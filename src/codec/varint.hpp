#ifndef FRAZ_CODEC_VARINT_HPP
#define FRAZ_CODEC_VARINT_HPP

/// \file varint.hpp
/// LEB128 variable-length integers, zigzag mapping, the little-endian
/// fixed-width writers every encoder frames its output with, and ByteReader,
/// the one checked cursor every decoder reads untrusted bytes through.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/buffer.hpp"

namespace fraz {

/// Append \p value as unsigned LEB128 to \p out.
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t value);
void put_varint(Buffer& out, std::uint64_t value);

/// Little-endian fixed-width scalars; f64 travels as its IEEE-754 bit
/// pattern.
void put_u32(Buffer& out, std::uint32_t value);
void put_u64(Buffer& out, std::uint64_t value);
void put_f64(Buffer& out, double value);

/// Forward cursor over untrusted bytes: a span plus a position.  Every read
/// checks `n > remaining()`, which cannot wrap for any 64-bit n, and throws
/// CorruptStream("<what>: ...") naming the decoder that owns the reader.
/// Length-prefixed sections become readers of their own, so a decoder never
/// does position arithmetic on a length it read from the stream.  Header-only
/// so reads inside hot loops inline; only the throw is out of line.
class ByteReader {
public:
  ByteReader(const std::uint8_t* data, std::size_t size, const char* what) noexcept
      : data_(data), size_(size), what_(what) {}

  /// The unread bytes: data() points at the next one.
  const std::uint8_t* data() const noexcept { return data_ + pos_; }
  std::size_t remaining() const noexcept { return size_ - pos_; }

  /// Throw CorruptStream("<what>: <detail>").
  [[noreturn]] void fail(const char* detail) const { throw_corrupt(what_, detail); }

  /// Consume \p n bytes and return a pointer to the first.
  const std::uint8_t* take(std::uint64_t n, const char* detail = "truncated stream") {
    if (n > remaining()) fail(detail);
    const std::uint8_t* p = data_ + pos_;
    pos_ += static_cast<std::size_t>(n);
    return p;
  }

  /// Consume a length-prefixed section (a varint byte count, then the
  /// bytes) as a reader of its own.
  ByteReader section() {
    const std::uint64_t n = varint();
    return {take(n, "truncated section"), static_cast<std::size_t>(n), what_};
  }

  /// Split off the last \p n bytes (a trailer such as a CRC) as a reader of
  /// their own; this reader then ends where the trailer starts.
  ByteReader trailer(std::size_t n) {
    if (n > remaining()) fail("truncated trailer");
    size_ -= n;
    return {data_ + size_, n, what_};
  }

  /// Throw \p detail unless every byte has been consumed.
  void expect_end(const char* detail = "trailing bytes") const {
    if (pos_ != size_) fail(detail);
  }

  std::uint8_t u8() { return *take(1); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(little_endian(take(4), 4)); }
  std::uint64_t u64() { return little_endian(take(8), 8); }
  double f64() {
    const std::uint64_t bits = u64();
    double value;
    std::memcpy(&value, &bits, 8);
    return value;
  }

  /// An IEEE scalar stored verbatim in host byte order (the encoders'
  /// put_scalar).
  template <typename Scalar>
  Scalar scalar() {
    Scalar value;
    std::memcpy(&value, take(sizeof(Scalar)), sizeof(Scalar));
    return value;
  }

  /// Unsigned LEB128; truncation and encodings longer than ten bytes throw.
  std::uint64_t varint() {
    std::uint64_t value = 0;
    for (unsigned shift = 0;; shift += 7) {
      if (pos_ == size_) fail("truncated varint");
      if (shift >= 64) fail("overlong varint");
      const std::uint8_t byte = data_[pos_++];
      value |= static_cast<std::uint64_t>(byte & 0x7fu) << shift;
      if ((byte & 0x80u) == 0) return value;
    }
  }

private:
  // Static and out of line: the reader's address never escapes, so its
  // position stays in a register inside the decoders' loops.
  [[noreturn]] static void throw_corrupt(const char* what, const char* detail);

  static std::uint64_t little_endian(const std::uint8_t* p, unsigned bytes) noexcept {
    std::uint64_t value = 0;
    for (unsigned i = 0; i < bytes; ++i) value |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return value;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  const char* what_;
};

/// Zigzag map a signed value to unsigned (0,-1,1,-2,... -> 0,1,2,3,...).
constexpr std::uint64_t zigzag_encode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

/// Inverse of zigzag_encode.
constexpr std::int64_t zigzag_decode(std::uint64_t u) noexcept {
  return static_cast<std::int64_t>(u >> 1) ^ -static_cast<std::int64_t>(u & 1);
}

}  // namespace fraz

#endif  // FRAZ_CODEC_VARINT_HPP
