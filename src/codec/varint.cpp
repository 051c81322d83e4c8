#include "codec/varint.hpp"

#include <cstring>
#include <string>

#include "util/error.hpp"

namespace fraz {

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80u);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

void put_varint(Buffer& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80u);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

void put_u32(Buffer& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8)
    out.push_back(static_cast<std::uint8_t>(value >> shift));
}

void put_u64(Buffer& out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8)
    out.push_back(static_cast<std::uint8_t>(value >> shift));
}

void put_f64(Buffer& out, double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, 8);
  put_u64(out, bits);
}

void ByteReader::throw_corrupt(const char* what, const char* detail) {
  throw CorruptStream(std::string(what) + ": " + detail);
}

}  // namespace fraz
