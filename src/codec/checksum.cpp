#include "codec/checksum.hpp"

#include <array>

namespace fraz {

namespace {

/// Slicing-by-8 tables: tables[0] is the classic byte-at-a-time table, and
/// tables[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// lookups advance the CRC over eight input bytes at once.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() noexcept {
  Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      tables[k][i] = (tables[k - 1][i] >> 8) ^ tables[0][tables[k - 1][i] & 0xffu];
  return tables;
}

constexpr Tables kTables = make_tables();

/// Little-endian load, independent of the host's byte order.
inline std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 | std::uint32_t{p[2]} << 16 |
         std::uint32_t{p[3]} << 24;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) noexcept {
  const auto& t = kTables;
  std::uint32_t c = 0xffffffffu;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = c ^ load_le32(data);
    const std::uint32_t hi = load_le32(data + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
        t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) c = t[0][(c ^ *data) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

}  // namespace fraz
