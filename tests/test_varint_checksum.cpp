#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "codec/checksum.hpp"
#include "codec/varint.hpp"
#include "util/error.hpp"

namespace fraz {
namespace {

TEST(Varint, RoundtripsBoundaryValues) {
  const std::uint64_t values[] = {0,           1,          127,        128,
                                  16383,       16384,      (1ull << 32) - 1,
                                  1ull << 32,  std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t v : values) {
    std::vector<std::uint8_t> buf;
    put_varint(buf, v);
    ByteReader in(buf.data(), buf.size(), "test");
    EXPECT_EQ(in.varint(), v);
    EXPECT_EQ(in.remaining(), 0u);
  }
}

TEST(Varint, SmallValuesAreOneByte) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, 127);
  EXPECT_EQ(buf.size(), 1u);
  buf.clear();
  put_varint(buf, 128);
  EXPECT_EQ(buf.size(), 2u);
}

TEST(Varint, SequencesDecodeInOrder) {
  std::vector<std::uint8_t> buf;
  for (std::uint64_t v = 0; v < 1000; v += 7) put_varint(buf, v * v);
  ByteReader in(buf.data(), buf.size(), "test");
  for (std::uint64_t v = 0; v < 1000; v += 7) ASSERT_EQ(in.varint(), v * v);
}

TEST(Varint, TruncationThrows) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, 1ull << 40);
  buf.pop_back();
  ByteReader in(buf.data(), buf.size(), "test");
  EXPECT_THROW(in.varint(), CorruptStream);
}

TEST(Varint, OverlongEncodingThrows) {
  // 11 continuation bytes exceed the 64-bit shift budget.
  std::vector<std::uint8_t> buf(11, 0x80);
  buf.push_back(0x01);
  ByteReader in(buf.data(), buf.size(), "test");
  EXPECT_THROW(in.varint(), CorruptStream);
}

TEST(ByteReader, FixedWidthRoundTripLittleEndian) {
  Buffer buf;
  put_u32(buf, 0xdeadbeefu);
  put_u64(buf, 0x0123456789abcdefull);
  put_f64(buf, -2.5);
  EXPECT_EQ(buf.data()[0], 0xefu);
  ByteReader in(buf.data(), buf.size(), "test");
  EXPECT_EQ(in.u32(), 0xdeadbeefu);
  EXPECT_EQ(in.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(in.f64(), -2.5);
  EXPECT_NO_THROW(in.expect_end());
  EXPECT_THROW(in.u8(), CorruptStream);
}

TEST(ByteReader, HostileLengthsCannotWrap) {
  // Every length near 2^64 fails from any position: the check is
  // `n > remaining()`, never `pos + n > size`.
  for (const std::uint64_t n : {~std::uint64_t{0}, ~std::uint64_t{0} - 3, std::uint64_t{17}}) {
    std::vector<std::uint8_t> buf(4, 0);
    put_varint(buf, n);
    buf.resize(buf.size() + 8, 0);
    ByteReader in(buf.data(), buf.size(), "test");
    in.take(4);
    EXPECT_THROW(in.take(n), CorruptStream) << n;
    EXPECT_EQ(in.remaining(), buf.size() - 4) << "a failed read must not move the cursor";
    EXPECT_THROW(in.section(), CorruptStream) << n;
  }
}

TEST(ByteReader, SectionsAndTrailerSplitTheSpan) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, 3);
  buf.insert(buf.end(), {7, 8, 9, 0xaa, 0xbb, 0xcc, 0xdd});
  ByteReader in(buf.data(), buf.size(), "test");
  EXPECT_EQ(in.trailer(4).u32(), 0xddccbbaau);
  ByteReader section = in.section();
  EXPECT_EQ(section.remaining(), 3u);
  EXPECT_EQ(section.u8(), 7u);
  EXPECT_THROW(section.expect_end(), CorruptStream);
  EXPECT_NO_THROW(in.expect_end());  // the trailer is no longer part of the body
}

TEST(ByteReader, ErrorsNameTheDecoder) {
  const std::uint8_t byte = 0x80;
  ByteReader in(&byte, 1, "mydecoder");
  try {
    in.varint();
    FAIL() << "truncated varint accepted";
  } catch (const CorruptStream& e) {
    EXPECT_EQ(std::string(e.what()).rfind("mydecoder: ", 0), 0u) << e.what();
  }
}

TEST(Zigzag, MapsSignedToCompactUnsigned) {
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
  EXPECT_EQ(zigzag_encode(-2), 3u);
}

TEST(Zigzag, RoundtripsExtremes) {
  for (std::int64_t v : {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1},
                         std::numeric_limits<std::int64_t>::min(),
                         std::numeric_limits<std::int64_t>::max(), std::int64_t{-123456789}}) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
}

TEST(Crc32, MatchesKnownVector) {
  // The canonical CRC-32 check value.
  const char* s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s), 9), 0xcbf43926u);
}

TEST(Crc32, EmptyInputIsZero) { EXPECT_EQ(crc32(nullptr, 0), 0u); }

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> data(64);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 37);
  const std::uint32_t base = crc32(data);
  for (std::size_t byte = 0; byte < data.size(); byte += 7) {
    data[byte] ^= 0x10;
    EXPECT_NE(crc32(data), base);
    data[byte] ^= 0x10;
  }
  EXPECT_EQ(crc32(data), base);
}

/// The classic byte-at-a-time CRC-32, bit by bit from the reflected
/// polynomial, independent of the library's tables.
std::uint32_t crc32_bytewise(const std::uint8_t* data, std::size_t size) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) c = table[(c ^ data[i]) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

TEST(Crc32, SlicedMatchesBytewiseReference) {
  // Every length 0..64 from every start offset 0..7 covers each alignment
  // and each tail the eight-byte step leaves; the 1 MiB buffer covers the
  // long run.
  std::vector<std::uint8_t> buf(std::size_t{1} << 20);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (auto& b : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t len = 0; len <= 64; ++len)
      ASSERT_EQ(crc32(buf.data() + offset, len), crc32_bytewise(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
  EXPECT_EQ(crc32(buf), crc32_bytewise(buf.data(), buf.size()));
}

}  // namespace
}  // namespace fraz
