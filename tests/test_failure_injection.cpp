#include <gtest/gtest.h>

#include "pressio/registry.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

/// Failure-injection suite: compressed archives are mutated (bit flips,
/// truncations, payload swaps) and fed back to the decoders.  The contract
/// is "no crashes, no garbage": every mutation must either be rejected with
/// a non-ok Status or—never—silently succeed with a wrong payload (the
/// container checksum makes silent acceptance practically impossible).

namespace fraz {
namespace {

using testhelpers::make_field;

class CorruptionSweep : public testing::TestWithParam<const char*> {};

std::vector<std::uint8_t> compress_sample(const std::string& name) {
  auto c = pressio::registry().create(name);
  c->set_error_bound(0.05);
  const NdArray field = make_field(DType::kFloat32, {16, 24});
  Buffer archive;
  c->compress_into(field.view(), archive).throw_if_error();
  return {archive.begin(), archive.end()};
}

TEST_P(CorruptionSweep, RandomBitFlipsAreRejected) {
  const auto base = compress_sample(GetParam());
  auto c = pressio::registry().create(GetParam());
  Rng rng(4242);
  NdArray out;
  for (int trial = 0; trial < 100; ++trial) {
    auto mutated = base;
    const std::size_t byte = rng.below(mutated.size());
    mutated[byte] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    EXPECT_FALSE(c->decompress_into(mutated.data(), mutated.size(), out).ok())
        << "flip at byte " << byte;
  }
}

TEST_P(CorruptionSweep, TruncationsAreRejected) {
  const auto base = compress_sample(GetParam());
  auto c = pressio::registry().create(GetParam());
  NdArray out;
  for (const double keep : {0.0, 0.1, 0.5, 0.9, 0.99}) {
    auto mutated = base;
    mutated.resize(static_cast<std::size_t>(keep * base.size()));
    EXPECT_FALSE(c->decompress_into(mutated.data(), mutated.size(), out).ok())
        << "keep=" << keep;
  }
}

TEST_P(CorruptionSweep, AppendedGarbageRejected) {
  auto mutated = compress_sample(GetParam());
  mutated.push_back(0x00);
  auto c = pressio::registry().create(GetParam());
  NdArray out;
  EXPECT_FALSE(c->decompress_into(mutated.data(), mutated.size(), out).ok());
}

TEST_P(CorruptionSweep, EmptyBufferRejected) {
  auto c = pressio::registry().create(GetParam());
  NdArray out;
  EXPECT_FALSE(c->decompress_into(nullptr, 0, out).ok());
}

TEST_P(CorruptionSweep, CrossCompressorArchivesRejected) {
  // Feed each backend the other backends' archives.
  auto c = pressio::registry().create(GetParam());
  NdArray out;
  for (const char* other : {"sz", "zfp", "mgard"}) {
    if (std::string(other) == GetParam()) continue;
    const auto foreign = compress_sample(other);
    EXPECT_FALSE(c->decompress_into(foreign.data(), foreign.size(), out).ok())
        << "accepted " << other << " archive";
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, CorruptionSweep, testing::Values("sz", "zfp", "mgard"));

TEST(CorruptionRecovery, IntactArchiveStillWorksAfterFailures) {
  // A decoder that failed must remain usable (strong exception safety at the
  // API boundary).
  auto c = pressio::registry().create("sz");
  c->set_error_bound(0.05);
  const NdArray field = make_field(DType::kFloat32, {16, 24});
  Buffer good;
  ASSERT_TRUE(c->compress_into(field.view(), good).ok());
  std::vector<std::uint8_t> bad(good.begin(), good.end());
  bad[bad.size() / 2] ^= 0xff;
  NdArray decoded;
  EXPECT_FALSE(c->decompress_into(bad.data(), bad.size(), decoded).ok());
  ASSERT_TRUE(c->decompress_into(good.data(), good.size(), decoded).ok());
  EXPECT_LE(testhelpers::max_error(field, decoded), 0.05);
}

}  // namespace
}  // namespace fraz
