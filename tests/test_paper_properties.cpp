#include <gtest/gtest.h>

#include <set>

#include "compressors/zfp/zfp.hpp"
#include "core/loss.hpp"
#include "core/tuner.hpp"
#include "data/datasets.hpp"
#include "engine/engine.hpp"
#include "opt/global_search.hpp"
#include "pressio/registry.hpp"
#include "test_helpers.hpp"

/// Paper-central behaviours asserted as fast unit tests (the full-scale
/// versions live in bench/): ZFP's step-function ratio curve, warm-start
/// savings, early-termination savings, and the infeasibility reporting
/// contract.

namespace fraz {
namespace {

using testhelpers::make_field;

TEST(PaperProperties, ZfpExpressesFewRatios) {
  // §VI-B.3: "ZFP expresses few compression ratios because it uses a
  // flooring function in the minimum exponent calculation".  Across a dense
  // tolerance sweep, the number of distinct archive sizes must be far
  // smaller than the number of tolerances (one per power of two).
  const NdArray field = make_field(DType::kFloat32, {16, 16, 16});
  std::set<std::size_t> sizes;
  int tolerances = 0;
  Buffer archive;
  for (double tol = 1e-4; tol < 10.0; tol *= 1.18) {
    ZfpOptions opt;
    opt.tolerance = tol;
    zfp_compress_into(field.view(), opt, archive);
    sizes.insert(archive.size());
    ++tolerances;
  }
  EXPECT_GE(tolerances, 60);
  EXPECT_LE(sizes.size(), static_cast<std::size_t>(tolerances) / 3);
}

TEST(PaperProperties, SzExpressesManyMoreRatiosThanZfp) {
  // The flip side of the same observation: SZ's ratio curve is nearly
  // continuous, which is why FRaZ finds SZ targets feasible more often.
  const NdArray field = make_field(DType::kFloat32, {16, 16, 16});
  std::set<std::size_t> sz_sizes, zfp_sizes;
  auto sz = pressio::registry().create("sz");
  auto zfp = pressio::registry().create("zfp");
  Buffer archive;
  for (double tol = 1e-4; tol < 10.0; tol *= 1.18) {
    sz->set_error_bound(tol);
    zfp->set_error_bound(tol);
    ASSERT_TRUE(sz->compress_into(field.view(), archive).ok());
    sz_sizes.insert(archive.size());
    ASSERT_TRUE(zfp->compress_into(field.view(), archive).ok());
    zfp_sizes.insert(archive.size());
  }
  EXPECT_GT(sz_sizes.size(), zfp_sizes.size() * 2);
}

TEST(PaperProperties, WarmStartSlashesSeriesCost) {
  // §VI-B.1: reusing the previous step's bound makes later steps nearly
  // free.  Compare an Engine's warm-started series against cold per-step
  // tuning.
  const auto ds = data::dataset_by_name("cesm", data::SuiteScale::kTiny);
  const auto arrays = data::generate_series(data::field_by_name(ds, "CLDHGH"), 5);

  EngineConfig config;
  config.compressor = "sz";
  config.tuner.target_ratio = 6.0;
  config.tuner.threads = 1;
  Engine engine(config);
  int warm_calls = 0;
  for (const NdArray& a : arrays)
    warm_calls += engine.tune("CLDHGH", a.view()).value().compress_calls;

  auto compressor = pressio::registry().create("sz");
  const Tuner tuner(*compressor, config.tuner);
  int cold_calls = 0;
  for (const NdArray& a : arrays) cold_calls += tuner.tune(a.view()).compress_calls;
  EXPECT_LT(warm_calls, cold_calls / 2) << "warm " << warm_calls << " vs cold " << cold_calls;
}

TEST(PaperProperties, EarlyTerminationCutoffSavesCalls) {
  // §V-B.3: the cutoff-modified optimizer stops once the band is reached;
  // without the cutoff it spends the whole budget refining.
  const NdArray field = make_field(DType::kFloat32, {24, 24});
  auto compressor = pressio::registry().create("sz");
  const double hi = value_range(field.view());
  const double target = 6.0;

  auto make_objective = [&](int& counter) {
    return [&compressor, &field, &counter, target](double x) {
      const double bound = std::exp(x);
      auto clone = compressor->clone();
      clone->set_error_bound(bound);
      Buffer archive;
      clone->compress_into(field.view(), archive).throw_if_error();
      ++counter;
      const double ratio = static_cast<double>(field.size_bytes()) /
                           static_cast<double>(archive.size());
      return ratio_loss(ratio, target);
    };
  };

  opt::SearchOptions with_cutoff;
  with_cutoff.max_calls = 48;
  with_cutoff.cutoff = loss_cutoff(target, 0.1);
  int calls_with = 0;
  const auto r1 = opt::find_min_global(make_objective(calls_with), std::log(hi * 1e-9),
                                       std::log(hi), with_cutoff);

  opt::SearchOptions without_cutoff;
  without_cutoff.max_calls = 48;
  int calls_without = 0;
  opt::find_min_global(make_objective(calls_without), std::log(hi * 1e-9), std::log(hi),
                       without_cutoff);

  ASSERT_TRUE(r1.hit_cutoff);
  EXPECT_LT(calls_with, calls_without);
  EXPECT_EQ(calls_without, 48);  // no cutoff => full budget
}

TEST(PaperProperties, InfeasibleReportIsClosestObservation) {
  // Alg. 2 tail: when nothing lands in the band, FRaZ returns the evaluated
  // point whose ratio is closest to the target.
  const NdArray field = make_field(DType::kFloat32, {16, 16});
  auto compressor = pressio::registry().create("sz");
  TunerConfig cfg;
  cfg.target_ratio = 400.0;  // unreachable on a 1 KB field
  cfg.epsilon = 0.05;
  cfg.threads = 1;
  cfg.max_evals_per_region = 6;
  const Tuner tuner(*compressor, cfg);
  const TuneResult r = tuner.tune(field.view());
  ASSERT_FALSE(r.feasible);

  double best_dist = 1e300;
  for (const RegionOutcome& region : r.regions) {
    if (region.compress_calls == 0) continue;
    best_dist = std::min(best_dist, std::abs(region.best_ratio - cfg.target_ratio));
  }
  EXPECT_DOUBLE_EQ(std::abs(r.achieved_ratio - cfg.target_ratio), best_dist);
}

TEST(PaperProperties, EpsilonWidensFeasibility) {
  // Fig. 6 discussion: "a larger tolerance (epsilon = .2) would have allowed
  // even this case to converge".  A target infeasible at a tight band can
  // become feasible at a loose one.
  const auto ds = data::dataset_by_name("hurricane", data::SuiteScale::kTiny);
  const NdArray field = data::generate_field(data::field_by_name(ds, "TCf"), 0);
  auto compressor = pressio::registry().create("zfp");  // step-function curve

  int feasible_tight = 0, feasible_loose = 0;
  for (double target = 4; target <= 14; target += 2) {
    TunerConfig tight;
    tight.target_ratio = target;
    tight.epsilon = 0.02;
    tight.threads = 1;
    tight.max_evals_per_region = 8;
    TunerConfig loose = tight;
    loose.epsilon = 0.25;
    feasible_tight += Tuner(*compressor, tight).tune(field.view()).feasible;
    feasible_loose += Tuner(*compressor, loose).tune(field.view()).feasible;
  }
  EXPECT_GE(feasible_loose, feasible_tight);
  EXPECT_GE(feasible_loose, 4);  // loose bands should catch most targets
}

TEST(PaperProperties, RandomAccessOfZfpFixedRate) {
  // §III: ZFP's fixed-rate mode exists for random access — every block has
  // identical size, so block offsets are computable.  We verify the archive
  // size equals blocks x budget exactly (the property random access needs).
  const Shape shape{16, 16, 16};  // 64 blocks of 4^3
  const NdArray field = make_field(DType::kFloat32, shape);
  ZfpOptions opt;
  opt.mode = ZfpMode::kFixedRate;
  opt.rate = 6.0;
  Buffer archive;
  zfp_compress_into(field.view(), opt, archive);
  const std::size_t blocks = 64;
  const std::size_t bits_per_block = static_cast<std::size_t>(opt.rate * 64);
  const std::size_t payload_bits = blocks * bits_per_block;
  // Container adds header+mode+param+crc; payload must be exactly the
  // fixed-rate budget rounded up to bytes.
  const std::size_t expected_payload = (payload_bits + 7) / 8 + 9;  // + mode/param
  EXPECT_NEAR(static_cast<double>(archive.size()),
              static_cast<double>(expected_payload), 32.0);
}

}  // namespace
}  // namespace fraz
