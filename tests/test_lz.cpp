#include "codec/lz.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "codec/checksum.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fraz {
namespace {

void expect_roundtrip(const std::vector<std::uint8_t>& data, const LzOptions& opt = {}) {
  const auto compressed = lz_compress(data, opt);
  const auto decompressed = lz_decompress(compressed);
  ASSERT_EQ(decompressed.size(), data.size());
  ASSERT_TRUE(std::equal(data.begin(), data.end(), decompressed.begin()));
}

TEST(Lz, EmptyInput) { expect_roundtrip({}); }

TEST(Lz, SingleByte) { expect_roundtrip({0x42}); }

TEST(Lz, ShortLiteralOnly) { expect_roundtrip({1, 2, 3}); }

TEST(Lz, AllSameByteCompressesHard) {
  const std::vector<std::uint8_t> data(100000, 0xaa);
  const auto compressed = lz_compress(data);
  EXPECT_LT(compressed.size(), 200u);
  expect_roundtrip(data);
}

TEST(Lz, OverlappingMatchReplication) {
  // "abcabcabc..." forces matches with offset < length.
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 3000; ++i) data.push_back(static_cast<std::uint8_t>("abc"[i % 3]));
  const auto compressed = lz_compress(data);
  EXPECT_LT(compressed.size(), data.size() / 10);
  expect_roundtrip(data);
}

TEST(Lz, RepeatedBlocksFound) {
  Rng rng(5);
  std::vector<std::uint8_t> block(512);
  for (auto& b : block) b = static_cast<std::uint8_t>(rng.below(256));
  std::vector<std::uint8_t> data;
  for (int rep = 0; rep < 20; ++rep) data.insert(data.end(), block.begin(), block.end());
  const auto compressed = lz_compress(data);
  EXPECT_LT(compressed.size(), 2 * block.size());
  expect_roundtrip(data);
}

TEST(Lz, IncompressibleRandomDataSurvives) {
  Rng rng(6);
  std::vector<std::uint8_t> data(50000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
  const auto compressed = lz_compress(data);
  // Overhead should stay tiny even when no matches exist.
  EXPECT_LT(compressed.size(), data.size() + data.size() / 50 + 64);
  expect_roundtrip(data);
}

TEST(Lz, EndsExactlyOnMatch) {
  // Data whose tail is a match: decoder must not expect trailing literals.
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 64; ++i) data.push_back(static_cast<std::uint8_t>(i));
  data.insert(data.end(), data.begin(), data.begin() + 32);  // tail repeats head
  expect_roundtrip(data);
}

TEST(Lz, WindowLimitRespected) {
  // Repetition farther apart than the window cannot be matched, but the
  // stream must still roundtrip.
  LzOptions opt;
  opt.window = 256;
  Rng rng(7);
  std::vector<std::uint8_t> block(200);
  for (auto& b : block) b = static_cast<std::uint8_t>(rng.below(256));
  std::vector<std::uint8_t> data;
  data.insert(data.end(), block.begin(), block.end());
  std::vector<std::uint8_t> gap(1000);
  for (auto& b : gap) b = static_cast<std::uint8_t>(rng.below(256));
  data.insert(data.end(), gap.begin(), gap.end());
  data.insert(data.end(), block.begin(), block.end());
  expect_roundtrip(data, opt);
}

TEST(Lz, TruncationThrows) {
  std::vector<std::uint8_t> data(5000, 1);
  auto compressed = lz_compress(data);
  compressed.resize(compressed.size() - 3);
  EXPECT_THROW(lz_decompress(compressed), CorruptStream);
}

TEST(Lz, BogusOffsetThrows) {
  // decompressed_size=4, literal run 0, offset 9 (beyond produced output).
  std::vector<std::uint8_t> bogus = {4, 0, 9, 0};
  EXPECT_THROW(lz_decompress(bogus), CorruptStream);
}

TEST(Lz, LiteralOverrunThrows) {
  // declares 2 output bytes but carries a 3-byte literal run.
  std::vector<std::uint8_t> bogus = {2, 3, 1, 2, 3};
  EXPECT_THROW(lz_decompress(bogus), CorruptStream);
}

TEST(Lz, DeterministicOutput) {
  Rng rng(8);
  std::vector<std::uint8_t> data(10000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(64));
  EXPECT_EQ(lz_compress(data), lz_compress(data));
}

/// Byte pins for the match finder: size and CRC-32 of lz_compress output.
/// The cases reach each slot form of the hash chain (input within the
/// window, input past the 64 KiB window, a window that is not a power of
/// two, a small power-of-two window), the >= 1024-byte early exit, matches
/// that overlap their source, and incompressible bytes.  The output is the
/// wire format other pinned frames embed, so any encoder rewrite must
/// reproduce these exactly.
std::vector<std::uint8_t> pin_words(std::size_t size, std::uint64_t seed) {
  // Words drawn from a small vocabulary with random separators: many short
  // and medium matches at varied distances, so chains are long.
  static const char* const vocab[] = {"pressure", "velocity", "Uf48", "QCLOUD",
                                      "temperature", "x", "fraz", "ratio", "bound"};
  Rng rng(seed);
  std::vector<std::uint8_t> out;
  while (out.size() < size) {
    for (const char* c = vocab[rng.below(9)]; *c != 0; ++c)
      out.push_back(static_cast<std::uint8_t>(*c));
    out.push_back(static_cast<std::uint8_t>(rng.below(4) == 0 ? rng.below(256) : ' '));
  }
  out.resize(size);
  return out;
}
std::vector<std::uint8_t> pin_random(std::size_t size) {
  Rng rng(31);
  std::vector<std::uint8_t> out(size);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}
std::vector<std::uint8_t> pin_long_runs() {
  // Runs of 1024+ equal bytes and 1500-byte repeats, separated by noise.
  Rng rng(32);
  std::vector<std::uint8_t> out;
  const std::vector<std::uint8_t> phrase = pin_random(1500);
  for (int rep = 0; rep < 12; ++rep) {
    out.insert(out.end(), 1024 + 97 * static_cast<std::size_t>(rep),
               static_cast<std::uint8_t>(rep * 19));
    for (int i = 0; i < 50; ++i) out.push_back(static_cast<std::uint8_t>(rng.below(256)));
    out.insert(out.end(), phrase.begin(), phrase.end());
  }
  return out;
}
std::vector<std::uint8_t> pin_overlapping() {
  // Short periods force matches whose offset is below their length.
  std::vector<std::uint8_t> out;
  for (std::size_t period = 1; period <= 7; ++period)
    for (std::size_t i = 0; i < 700; ++i)
      out.push_back(static_cast<std::uint8_t>("abcdefg"[i % period] + period));
  return out;
}

TEST(Lz, EncoderBytesArePinned) {
  struct Pin {
    const char* name;
    std::vector<std::uint8_t> data;
    std::size_t window;
    std::size_t size;
    std::uint32_t crc;
  };
  const Pin pins[] = {
      {"within_window", pin_words(30000, 33), 1u << 16, 9908, 0x7fe48d25u},
      {"past_64KiB_window", pin_words(200000, 34), 1u << 16, 69219, 0x12a03c04u},
      {"window_1000", pin_words(5000, 35), 1000, 1741, 0x4e1a5960u},
      {"window_4096", pin_words(20000, 36), 4096, 6757, 0x4cfe199bu},
      {"long_runs", pin_long_runs(), 1u << 16, 2219, 0xe06c46a0u},
      {"overlapping", pin_overlapping(), 1u << 16, 57, 0xbc766289u},
      {"random", pin_random(20000), 1u << 16, 20006, 0x87d0b5d6u},
  };
  for (const Pin& p : pins) {
    SCOPED_TRACE(p.name);
    LzOptions opt;
    opt.window = p.window;
    const auto compressed = lz_compress(p.data, opt);
    EXPECT_EQ(compressed.size(), p.size);
    EXPECT_EQ(crc32(compressed), p.crc);
    EXPECT_EQ(lz_decompress(compressed), p.data);
  }
}

/// Property sweep over sizes and alphabet entropy.
class LzSweep : public testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LzSweep, Roundtrips) {
  const auto [size, alphabet] = GetParam();
  Rng rng(static_cast<std::uint64_t>(size * 131 + alphabet));
  std::vector<std::uint8_t> data(static_cast<std::size_t>(size));
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(static_cast<std::uint64_t>(alphabet)));
  expect_roundtrip(data);
}

INSTANTIATE_TEST_SUITE_P(SizesAndAlphabets, LzSweep,
                         testing::Combine(testing::Values(1, 17, 4096, 100000),
                                          testing::Values(2, 16, 256)));

}  // namespace
}  // namespace fraz
