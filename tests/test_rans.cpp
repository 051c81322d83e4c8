#include "codec/rans.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "codec/checksum.hpp"
#include "codec/lz.hpp"
#include "codec/rans_table.hpp"
#include "codec/varint.hpp"
#include "compressors/container.hpp"
#include "compressors/sz/sz.hpp"
#include "data/datasets.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fraz {
namespace {

void expect_roundtrip(const std::vector<std::uint32_t>& symbols) {
  const auto encoded = rans_encode(symbols);
  const auto decoded = rans_decode(encoded);
  ASSERT_EQ(decoded.size(), symbols.size());
  for (std::size_t i = 0; i < symbols.size(); ++i) ASSERT_EQ(decoded[i], symbols[i]);
}

TEST(Rans, EmptyInput) { expect_roundtrip({}); }

TEST(Rans, SingleSymbolRepeated) { expect_roundtrip(std::vector<std::uint32_t>(100000, 42)); }

TEST(Rans, SingleOccurrence) { expect_roundtrip({7}); }

TEST(Rans, TwoSymbols) { expect_roundtrip({7, 7, 7, 9, 7, 9, 9, 7}); }

TEST(Rans, SparseAlphabetAroundRadius) {
  std::vector<std::uint32_t> symbols;
  Rng rng(1);
  for (int i = 0; i < 50000; ++i)
    symbols.push_back(32768 + static_cast<std::uint32_t>(rng.below(9)) - 4);
  expect_roundtrip(symbols);
}

TEST(Rans, ExtremeSymbolValues) {
  expect_roundtrip({0, 0xffffffffu, 0x80000000u, 1, 0xfffffffeu, 0});
}

TEST(Rans, NearConstantStreamBeatsOneBitPerSymbol) {
  // The reason rANS replaces Huffman in the SZ pipeline: 99% of codes equal
  // the radius, entropy ~0.08 bits/symbol, and the coder must get close.
  std::vector<std::uint32_t> symbols;
  Rng rng(2);
  for (int i = 0; i < 200000; ++i)
    symbols.push_back(rng.below(100) < 99 ? 32768u
                                          : 32768u + static_cast<std::uint32_t>(rng.below(5)));
  const auto encoded = rans_encode(symbols);
  const double bits_per_symbol = 8.0 * encoded.size() / symbols.size();
  EXPECT_LT(bits_per_symbol, 0.15);  // far below Huffman's 1.0 floor
  expect_roundtrip(symbols);
}

TEST(Rans, ApproachesEntropyOnDyadicDistribution) {
  std::vector<std::uint32_t> symbols;
  Rng rng(3);
  for (int i = 0; i < 200000; ++i) {
    const double u = rng.uniform();
    symbols.push_back(u < 0.5 ? 0 : u < 0.75 ? 1 : u < 0.875 ? 2 : 3);
  }
  const auto encoded = rans_encode(symbols);
  const double bits_per_symbol = 8.0 * encoded.size() / symbols.size();
  EXPECT_NEAR(bits_per_symbol, 1.75, 0.05);  // H = 1.75 bits
}

TEST(Rans, LargeAlphabetRoundtrip) {
  std::vector<std::uint32_t> symbols;
  for (std::uint32_t i = 0; i < 8000; ++i) symbols.push_back(i * 31);
  expect_roundtrip(symbols);
}

TEST(Rans, FullSzAlphabetFlatDistribution) {
  // The SZ worst case: 2^16+1 distinct codes, each exactly once.  The
  // normalizer must spread the probability table without starving anyone.
  std::vector<std::uint32_t> symbols;
  for (std::uint32_t i = 0; i <= 65536; ++i) symbols.push_back(i);
  expect_roundtrip(symbols);
}

TEST(Rans, SkewPlusLongFlatTail) {
  // One dominant symbol plus a huge flat tail: exercises the drift loop that
  // steals frequency from the large symbol.
  std::vector<std::uint32_t> symbols(200000, 7);
  for (std::uint32_t i = 0; i < 60000; ++i) symbols.push_back(100 + i);
  expect_roundtrip(symbols);
}

TEST(Rans, DeterministicOutput) {
  std::vector<std::uint32_t> symbols = {5, 3, 5, 5, 2, 3, 5, 8, 8, 2};
  EXPECT_EQ(rans_encode(symbols), rans_encode(symbols));
}

TEST(Rans, TruncationThrows) {
  std::vector<std::uint32_t> symbols(1000, 7);
  symbols[500] = 9;
  auto encoded = rans_encode(symbols);
  encoded.resize(encoded.size() - 2);
  EXPECT_THROW(rans_decode(encoded), CorruptStream);
}

TEST(Rans, BitFlipsDetectedOrDifferent) {
  // rANS has a final-state integrity check; most corruptions throw, and the
  // few that decode must not crash.
  std::vector<std::uint32_t> symbols;
  Rng rng(4);
  for (int i = 0; i < 2000; ++i) symbols.push_back(static_cast<std::uint32_t>(rng.below(16)));
  const auto base = rans_encode(symbols);
  for (int trial = 0; trial < 64; ++trial) {
    auto mutated = base;
    mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    try {
      (void)rans_decode(mutated);
    } catch (const Error&) {
      // rejected: fine
    }
  }
}

TEST(Rans, BadFrequencyTableThrows) {
  // distinct=1 but frequency 5 != 2^14.
  std::vector<std::uint8_t> bogus;
  bogus.push_back(1);  // symbol_count
  bogus.push_back(1);  // distinct
  bogus.push_back(0);  // symbol 0
  bogus.push_back(5);  // freq 5 (must sum to 2^14)
  bogus.push_back(0);  // payload size 0
  EXPECT_THROW(rans_decode(bogus), CorruptStream);
}

/// A 14-byte stream declaring \p count symbols of a one-symbol alphabet at
/// full frequency: every decode step leaves the state at 2^23, so it
/// consumes no payload bytes and any declared count decodes.
std::vector<std::uint8_t> one_symbol_stream(std::uint64_t count) {
  std::vector<std::uint8_t> stream;
  put_varint(stream, count);
  put_varint(stream, 1);                                // distinct
  put_varint(stream, 0);                                // symbol 0
  put_varint(stream, std::uint64_t{1} << kRansProbBits);  // frequency: the whole scale
  put_varint(stream, 4);                                // payload size
  stream.insert(stream.end(), {0, 0x80, 0, 0});         // initial state 2^23
  return stream;
}

TEST(Rans, ExpectedCountRejectsDeclaredCountBeforeDecoding) {
  // The declared count alone sizes the output: 2^24 symbols would be 64 MiB
  // from 14 bytes.  With the caller's count the header is rejected first.
  const std::vector<std::uint8_t> hostile = one_symbol_stream(std::uint64_t{1} << 24);
  ASSERT_EQ(hostile.size(), 14u);
  EXPECT_THROW((void)rans_decode(hostile.data(), hostile.size(), 8), CorruptStream);

  // The same framing at the expected count decodes.
  const std::vector<std::uint8_t> honest = one_symbol_stream(8);
  EXPECT_EQ(rans_decode(honest.data(), honest.size(), 8), std::vector<std::uint32_t>(8, 0));
  EXPECT_EQ(rans_decode(honest), std::vector<std::uint32_t>(8, 0));
}

/// Byte pins for the encoder: size and CRC-32 of rans_encode output on
/// streams that reach every branch of the table builder (dense and sparse
/// census, freq == 1 and freq == 2^17 entries, empty and single-symbol
/// streams) and every drift case of normalize: a surplus, an overshoot the
/// heaviest symbol absorbs, one it cannot (the sorted fallback), a tie for
/// the heaviest frequency, and escape code 0 as the heaviest symbol.  The wire format is frozen by the sz goldens, so
/// any encoder rewrite must reproduce these exactly.
struct PinCase {
  const char* name;
  std::vector<std::uint32_t> (*make)();
  std::size_t size;
  std::uint32_t crc;
};

std::vector<std::uint32_t> pin_sz_like() {
  // 2^20 quantization codes: ~0.1% escapes (code 0), the rest peaked at the
  // radius 32768 with a triangular spread of +-16.
  Rng rng(11);
  std::vector<std::uint32_t> s(std::size_t{1} << 20);
  for (auto& v : s)
    v = rng.below(1000) == 0
            ? 0u
            : 32768u + static_cast<std::uint32_t>(rng.below(17) + rng.below(17)) - 16u;
  return s;
}
std::vector<std::uint32_t> pin_one_symbol() { return std::vector<std::uint32_t>(5000, 77); }
std::vector<std::uint32_t> pin_freq_one_tail() {
  std::vector<std::uint32_t> s(1000000, 9);
  for (std::uint32_t i = 0; i < 3000; ++i) s[i * 331] = 1000 + 7 * i;
  return s;
}
std::vector<std::uint32_t> pin_range(std::uint32_t span) {
  Rng rng(12);
  std::vector<std::uint32_t> s;
  for (int i = 0; i < 20000; ++i) s.push_back(100u + static_cast<std::uint32_t>(rng.below(64)));
  s.push_back(100u + span - 1);  // max - min + 1 == span
  return s;
}
std::vector<std::uint32_t> pin_range_dense_edge() { return pin_range(1u << 20); }
std::vector<std::uint32_t> pin_range_sparse_edge() { return pin_range((1u << 20) + 1); }
std::vector<std::uint32_t> pin_sparse_extremes() {
  Rng rng(13);
  const std::uint32_t alphabet[] = {0u, 3u, 0x10000u, 0x7fffffffu, 0xfffffff0u, 0xffffffffu};
  std::vector<std::uint32_t> s;
  for (int i = 0; i < 30000; ++i) s.push_back(alphabet[rng.below(i % 3 == 0 ? 6 : 2)]);
  return s;
}
std::vector<std::uint32_t> pin_drift_positive() {
  // Three symbols at 5:3:1: every frequency rounds down, so the surplus
  // goes to the heaviest symbol.
  std::vector<std::uint32_t> s;
  for (int i = 0; i < 9000; ++i) s.push_back(i % 9 < 5 ? 40u : i % 9 < 8 ? 41u : 42u);
  return s;
}
std::vector<std::uint32_t> pin_drift_absorbed() {
  // One dominant symbol plus 5000 singletons lifted from 0 to 1 slot: the
  // overshoot is taken from the dominant symbol alone.
  std::vector<std::uint32_t> s(std::size_t{1} << 20, 32768u);
  for (std::uint32_t i = 0; i < 5000; ++i) s[i * 200] = 40000u + i;
  return s;
}
std::vector<std::uint32_t> pin_drift_spread() {
  // 70000 singletons (1 slot each) and 1000 symbols of count 70 (65 slots
  // each): the overshoot exceeds what the heaviest symbol can give, so it
  // is spread over the alphabet in (frequency desc, symbol asc) order.
  std::vector<std::uint32_t> s;
  for (std::uint32_t i = 0; i < 70000; ++i) s.push_back(100000u + i);
  for (std::uint32_t i = 0; i < 70000; ++i) s.push_back(i % 1000);
  return s;
}
std::vector<std::uint32_t> pin_heaviest_tie() {
  // Two symbols tie for the largest count; the smaller one absorbs drift.
  std::vector<std::uint32_t> s;
  for (int i = 0; i < 7000; ++i) s.push_back(i % 7 < 3 ? 9u : i % 7 < 6 ? 5u : 11u);
  return s;
}
std::vector<std::uint32_t> pin_escape_heavy() {
  // Escape code 0 is the heaviest symbol, beside codes within +-40 of the
  // radius.
  Rng rng(14);
  std::vector<std::uint32_t> s(200000);
  for (auto& v : s)
    v = rng.below(10) < 4 ? 0u : 32768u + static_cast<std::uint32_t>(rng.below(81)) - 40u;
  return s;
}
std::vector<std::uint32_t> pin_empty() { return {}; }
std::vector<std::uint32_t> pin_single() { return {123456789u}; }

TEST(Rans, EncoderBytesArePinned) {
  const PinCase cases[] = {
      {"sz_like_2^20", pin_sz_like, 630662, 0x19a57d4au},
      {"one_symbol", pin_one_symbol, 12, 0x516d9a4eu},
      {"freq_one_tail", pin_freq_one_tail, 16548, 0x4cbd5654u},
      {"range_2^20", pin_range_dense_edge, 15202, 0xf9cd2e9du},
      {"range_2^20+1", pin_range_sparse_edge, 15202, 0xfab9e2f5u},
      {"sparse_extremes", pin_sparse_extremes, 7475, 0x72dd9383u},
      {"n=0", pin_empty, 2, 0x41d912ffu},
      {"n=1", pin_single, 14, 0x00db515du},
      {"drift>0", pin_drift_positive, 1540, 0x4d3bbebfu},
      {"drift<0_absorbed", pin_drift_absorbed, 27954, 0x533e5f60u},
      {"drift<0_spread", pin_drift_spread, 390030, 0x4d71b8a1u},
      {"heaviest_tie", pin_heaviest_tie, 1288, 0xb859737cu},
      {"escape_heavy", pin_escape_heavy, 119707, 0xbeeb1c95u},
  };
  for (const PinCase& c : cases) {
    SCOPED_TRACE(c.name);
    const std::vector<std::uint32_t> symbols = c.make();
    const std::vector<std::uint8_t> encoded = rans_encode(symbols);
    EXPECT_EQ(encoded.size(), c.size);
    EXPECT_EQ(crc32(encoded), c.crc);
    EXPECT_EQ(rans_decode(encoded), symbols);
    EXPECT_EQ(rans_decode_ref(encoded.data(), encoded.size()), symbols);
  }
}

TEST(Rans, OneSymbolStreamsMatchTheGeneralEncoder) {
  // rans_encode codes a one-symbol stream without the census or the state
  // loop; its bytes must be those of the general table and payload coder.
  for (const std::uint32_t symbol : {0u, 1u, 32768u, 0xffffffffu})
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{2}, std::size_t{4097}, std::size_t{100003}}) {
      SCOPED_TRACE(std::to_string(symbol) + " x " + std::to_string(n));
      const std::vector<std::uint32_t> symbols(n, symbol);
      std::vector<std::uint8_t> general;
      put_varint(general, n);
      const bool coded =
          rans_detail::encode_stream<kRansProbBits, 1>(symbols.data(), n, general);
      ASSERT_TRUE(coded);
      EXPECT_EQ(rans_encode(symbols), general);
    }
}

/// Symbols with exactly the given counts, deterministically shuffled.  When
/// the counts sum to the 2^17 scale every normalized frequency equals its
/// count, so a test places each symbol's slot range exactly: ranges follow
/// ascending symbol order from slot 0.
std::vector<std::uint32_t> with_counts(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& counts) {
  std::vector<std::uint32_t> symbols;
  for (const auto& [symbol, count] : counts) symbols.insert(symbols.end(), count, symbol);
  Rng rng(21);
  for (std::size_t i = symbols.size(); i > 1; --i)
    std::swap(symbols[i - 1], symbols[rng.below(i)]);
  return symbols;
}

/// An alphabet over the whole scale: freq-1 singletons at the given slot
/// runs [first, first + length), one heavy filler symbol between runs.
std::vector<std::uint32_t> singleton_runs(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& runs) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> counts;
  std::uint32_t slot = 0, symbol = 0;
  for (const auto& [first, length] : runs) {
    if (first > slot) counts.emplace_back(symbol++, first - slot);
    for (std::uint32_t i = 0; i < length; ++i) counts.emplace_back(symbol++, 1);
    slot = first + length;
  }
  if (slot < (1u << kRansProbBits)) counts.emplace_back(symbol, (1u << kRansProbBits) - slot);
  return with_counts(counts);
}

void expect_fast_matches_ref(const std::vector<std::uint32_t>& symbols) {
  const auto encoded = rans_encode(symbols);
  const auto fast = rans_decode(encoded.data(), encoded.size(), symbols.size());
  EXPECT_EQ(fast, rans_decode_ref(encoded.data(), encoded.size()));
  EXPECT_EQ(fast, symbols);
}

TEST(Rans, FastDecodeMatchesReferenceOnLookupStressAlphabets) {
  {
    SCOPED_TRACE("2^17 distinct freq-1 symbols: no slot range spans two slots");
    std::vector<std::pair<std::uint32_t, std::uint32_t>> counts;
    for (std::uint32_t v = 0; v < (1u << kRansProbBits); ++v) counts.emplace_back(v * 3, 1);
    expect_fast_matches_ref(with_counts(counts));
  }
  {
    // Small alphabets look up through 2^10 buckets of 128 slots: runs cross
    // the first, a middle and the last bucket edge, and fill whole buckets.
    SCOPED_TRACE("freq-1 runs straddling 128-slot bucket edges");
    expect_fast_matches_ref(singleton_runs({{120, 20}, {64 * 128 - 3, 6}, {130944 - 100, 200}}));
    expect_fast_matches_ref(singleton_runs({{0, 130}, {5 * 128, 256}}));
    expect_fast_matches_ref(singleton_runs({{127, 2}, {255, 1}, {1023 * 128 - 1, 2}}));
  }
  {
    // 600 symbols take 2^11 buckets of 64 slots; 1100 take 2^12 of 32.
    SCOPED_TRACE("freq-1 runs at finer bucket sizes");
    expect_fast_matches_ref(singleton_runs({{60, 300}, {70000 - 10, 297}}));
    expect_fast_matches_ref(singleton_runs({{31, 1097}}));
  }
  {
    SCOPED_TRACE("dominant symbol first, in the middle and last");
    const std::uint32_t dominant = (1u << kRansProbBits) - 1000;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> first = {{10, dominant}},
                                                         middle, last;
    for (std::uint32_t v = 0; v < 500; ++v) {
      first.emplace_back(100 + v, 2);
      middle.emplace_back(v < 250 ? v : 1000 + v, 2);
      last.emplace_back(v, 2);
    }
    middle.emplace_back(500, dominant);
    last.emplace_back(5000, dominant);
    expect_fast_matches_ref(with_counts(first));
    expect_fast_matches_ref(with_counts(middle));
    expect_fast_matches_ref(with_counts(last));
  }
  {
    SCOPED_TRACE("one-symbol alphabet through the expected-count overload");
    const std::vector<std::uint8_t> stream = one_symbol_stream(1000);
    EXPECT_EQ(rans_decode(stream.data(), stream.size(), 1000),
              rans_decode_ref(stream.data(), stream.size()));
    const auto encoded = rans_encode(std::vector<std::uint32_t>(23000, 32768));
    EXPECT_EQ(rans_decode(encoded.data(), encoded.size(), 23000),
              rans_decode_ref(encoded.data(), encoded.size()));
  }
}

/// The rANS code stream of one sz (v1) frame: the quantization codes the
/// archive's chunk decode spends most of its time on.
std::vector<std::uint8_t> sz_code_stream(const Buffer& frame, std::uint64_t& count) {
  const Container c = open_container(frame.data(), frame.size(), CompressorId::kSz);
  count = shape_elements(c.shape);
  const std::vector<std::uint8_t> assembled = lz_decompress(c.payload, c.payload_size);
  ByteReader in(assembled.data(), assembled.size(), "test");
  in.scalar<double>();  // error bound
  in.u8();              // regression flag
  in.take(in.varint());  // block flags
  in.section();          // regression coefficients
  const ByteReader codes = in.section();
  return std::vector<std::uint8_t>(codes.data(), codes.data() + codes.remaining());
}

TEST(Rans, FastDecodeMatchesReferenceOnChunkSizedSzStreams) {
  // ~23k codes, an archive chunk's count, from each synthetic field family
  // at a tight and a loose bound.
  const data::FieldSpec fields[] = {
      {"cosmo", data::FieldKind::kCosmoField3d, {16, 36, 40}, 1},
      {"plume", data::FieldKind::kLogSparsePlume3d, {16, 36, 40}, 2},
      {"cloud", data::FieldKind::kCloudField3d, {16, 36, 40}, 3},
      {"smooth", data::FieldKind::kSmooth2d, {144, 160}, 4},
      {"velocity", data::FieldKind::kParticleVel1d, {23040}, 5},
  };
  for (const data::FieldSpec& spec : fields) {
    const NdArray field = data::generate_field(spec, 0);
    const float* v = field.typed<float>();
    const auto [lo, hi] = std::minmax_element(v, v + shape_elements(field.shape()));
    for (const double relative : {1e-4, 1e-2}) {
      SCOPED_TRACE(spec.name + " at " + std::to_string(relative));
      SzOptions options;
      options.error_bound = relative * (*hi - *lo);
      Buffer frame;
      sz_compress_into(field, options, frame);
      std::uint64_t count = 0;
      const auto stream = sz_code_stream(frame, count);
      const auto fast = rans_decode(stream.data(), stream.size(), count);
      EXPECT_EQ(fast.size(), 23040u);
      EXPECT_EQ(fast, rans_decode_ref(stream.data(), stream.size()));
    }
  }
}

/// Property sweep: roundtrip across alphabet sizes, skews, and lengths.
class RansSweep : public testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RansSweep, Roundtrips) {
  const auto [alphabet, count] = GetParam();
  Rng rng(static_cast<std::uint64_t>(alphabet * 131 + count));
  std::vector<std::uint32_t> symbols;
  symbols.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const double u = rng.uniform();
    symbols.push_back(static_cast<std::uint32_t>(u * u * alphabet));
  }
  expect_roundtrip(symbols);
}

INSTANTIATE_TEST_SUITE_P(AlphabetsAndSizes, RansSweep,
                         testing::Combine(testing::Values(2, 17, 256, 5000),
                                          testing::Values(1, 100, 50000)));

}  // namespace
}  // namespace fraz
