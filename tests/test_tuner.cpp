#include "core/tuner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "data/datasets.hpp"
#include "engine/engine.hpp"
#include "pressio/registry.hpp"
#include "test_helpers.hpp"

namespace fraz {
namespace {

using testhelpers::make_field;

NdArray hurricane_field(const char* name = "TCf", int step = 0) {
  const auto ds = data::dataset_by_name("hurricane", data::SuiteScale::kTiny);
  return data::generate_field(data::field_by_name(ds, name), step);
}

TunerConfig fast_config(double target) {
  TunerConfig cfg;
  cfg.target_ratio = target;
  cfg.epsilon = 0.1;
  cfg.threads = 2;
  return cfg;
}

// ------------------------------------------------------------ feasibility

class TunerBackendSweep : public testing::TestWithParam<const char*> {};

TEST_P(TunerBackendSweep, FeasibleTargetLandsInBand) {
  const NdArray field = hurricane_field();
  auto compressor = pressio::registry().create(GetParam());
  const Tuner tuner(*compressor, fast_config(5.0));
  const TuneResult r = tuner.tune(field.view());
  EXPECT_TRUE(r.feasible);
  EXPECT_TRUE(ratio_acceptable(r.achieved_ratio, 5.0, 0.1))
      << "achieved " << r.achieved_ratio;
  EXPECT_GT(r.error_bound, 0.0);
  EXPECT_GT(r.compress_calls, 0);
}

TEST_P(TunerBackendSweep, TunedBoundReproducesRatio) {
  // The recommended bound, applied directly, must reproduce the reported
  // achieved ratio (the tuner's contract with its caller).
  const NdArray field = hurricane_field();
  auto compressor = pressio::registry().create(GetParam());
  const Tuner tuner(*compressor, fast_config(6.0));
  const TuneResult r = tuner.tune(field.view());
  compressor->set_error_bound(r.error_bound);
  Buffer compressed;
  ASSERT_TRUE(compressor->compress_into(field.view(), compressed).ok());
  const double ratio =
      static_cast<double>(field.size_bytes()) / static_cast<double>(compressed.size());
  EXPECT_NEAR(ratio, r.achieved_ratio, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, TunerBackendSweep,
                         testing::Values("sz", "zfp", "mgard"));

// ------------------------------------------------------- all-zero data

/// A lossy registry backend under one configuration.
struct LossyBackend {
  std::string label;
  std::string name;
  pressio::Options options;
};

/// Every lossy backend the registry holds; sz in both of its modes.
std::vector<LossyBackend> lossy_backends() {
  std::vector<LossyBackend> out;
  for (const std::string& name : pressio::registry().names()) {
    if (pressio::registry().create(name)->capabilities().lossless) continue;
    if (name != "sz") {
      out.push_back({name, name, {}});
      continue;
    }
    for (const char* mode : {"serial", "blocked"})
      out.push_back({name + "_" + mode, name, pressio::Options{{"sz:mode", std::string(mode)}}});
  }
  return out;
}

class ZeroDataSweep : public testing::TestWithParam<LossyBackend> {};

TEST_P(ZeroDataSweep, SizeIsFlatAcrossBoundsSoTuneSpendsOneProbe) {
  // The premise of the tuner's one-probe rule for all-zero data: a
  // zero_size_flat backend writes the same size at every bound, so a region
  // search would learn nothing its first probe did not.  mgard is the one
  // built-in that is not flat: it stores its tolerance as a raw double
  // inside an LZ-coded stream, and the zero bytes of 1.0's bit pattern code
  // one byte shorter.  Above the band a search keeps the larger size (closer
  // to the target), so it settles on the first probe; below the band it
  // prefers the shorter size, which the top of the range (1.0) holds.
  const LossyBackend& backend = GetParam();
  auto compressor = pressio::registry().create(backend.name, backend.options);
  const bool flat = compressor->capabilities().zero_size_flat;
  EXPECT_EQ(flat, backend.name != "mgard");
  Buffer archive;
  for (const DType dtype : {DType::kFloat32, DType::kFloat64}) {
    const NdArray zeros(dtype, {16, 24, 20});
    std::size_t size = 0;
    for (int k = 0; k < 12; ++k) {
      const double bound = std::pow(10.0, -9.0 + 9.0 * k / 11.0);
      compressor->set_error_bound(bound);
      ASSERT_TRUE(compressor->compress_into(zeros.view(), archive).ok());
      const std::size_t at_bound = archive.size();
      if (k == 0) size = at_bound;
      const std::size_t expected = !flat && bound == 1.0 ? size - 1 : size;
      EXPECT_EQ(at_bound, expected) << dtype_name(dtype) << " at bound " << bound;
    }
    const double zero_ratio = static_cast<double>(zeros.size_bytes()) / size;
    const TuneResult r = Tuner(*compressor, fast_config(10.0)).tune(zeros.view());
    EXPECT_EQ(r.compress_calls, 1) << dtype_name(dtype);
    EXPECT_EQ(r.probe_cache_hits, 0) << dtype_name(dtype);
    EXPECT_EQ(r.achieved_ratio, zero_ratio);

    // Below the band a flat backend still stops at its first probe; mgard
    // probes the top of the range too and keeps its shorter size, as a full
    // search does.
    const TuneResult below =
        Tuner(*compressor, fast_config(100.0 * zero_ratio)).tune(zeros.view());
    EXPECT_EQ(below.compress_calls, flat ? 1 : 2) << dtype_name(dtype);
    EXPECT_EQ(below.probe_cache_hits, 0) << dtype_name(dtype);
    EXPECT_FALSE(below.feasible) << dtype_name(dtype);
    const std::size_t shortest = flat ? size : size - 1;
    EXPECT_EQ(below.achieved_ratio, static_cast<double>(zeros.size_bytes()) / shortest)
        << dtype_name(dtype);
    if (flat)
      EXPECT_EQ(below.error_bound, r.error_bound) << dtype_name(dtype);
    else
      EXPECT_EQ(below.error_bound, 1.0) << dtype_name(dtype);

    // The rule is for zero bytes only: a non-zero constant's size moves with
    // the bound on some backends (truncate's ratio falls 3.07 -> 1.29 at
    // 3.7), so it gets the full search.
    NdArray constant(dtype, zeros.shape());
    for (std::size_t i = 0; i < constant.elements(); ++i) {
      if (dtype == DType::kFloat32)
        constant.typed<float>()[i] = 3.7f;
      else
        constant.typed<double>()[i] = 3.7;
    }
    EXPECT_GT(Tuner(*compressor, fast_config(10.0)).tune(constant.view()).compress_calls, 1)
        << dtype_name(dtype);
  }
}

INSTANTIATE_TEST_SUITE_P(LossyBackends, ZeroDataSweep, testing::ValuesIn(lossy_backends()),
                         [](const testing::TestParamInfo<LossyBackend>& info) {
                           return info.param.label;
                         });

TEST(Tuner, InfeasiblyHighTargetReportsClosest) {
  // Container/dictionary overhead puts a hard ceiling on the achievable
  // ratio of a 2048-element field; a target of 500 is unreachable at any
  // bound, so FRaZ must flag infeasibility and report the closest observed
  // ratio (paper Alg. 2 tail, Fig. 7 discussion of infeasible targets).
  const NdArray field = hurricane_field();
  auto compressor = pressio::registry().create("sz");
  TunerConfig cfg = fast_config(500.0);
  cfg.max_evals_per_region = 6;  // keep the failing search cheap
  const Tuner tuner(*compressor, cfg);
  const TuneResult r = tuner.tune(field.view());
  EXPECT_FALSE(r.feasible);
  EXPECT_GT(r.achieved_ratio, 0.0);
  EXPECT_LT(r.achieved_ratio, 500.0 * 0.9);
}

TEST(Tuner, LinearScaleSearchMatchesPaperBehaviour) {
  // With the paper's literal linear region split, low-bound ratios live in a
  // sliver of region 1; the log-scale default resolves them.  Both must
  // agree on a mid-range feasible target.
  const NdArray field = hurricane_field();
  auto compressor = pressio::registry().create("sz");
  TunerConfig cfg = fast_config(6.0);
  cfg.log_scale_search = false;
  const TuneResult linear = Tuner(*compressor, cfg).tune(field.view());
  cfg.log_scale_search = true;
  const TuneResult logscale = Tuner(*compressor, cfg).tune(field.view());
  EXPECT_TRUE(linear.feasible);
  EXPECT_TRUE(logscale.feasible);
}

TEST(Tuner, TinyUpperBoundMakesTargetInfeasible) {
  // The paper's U discussion: when the needed bound exceeds the user's
  // maximum allowed error, FRaZ reports the closest observation.
  const NdArray field = hurricane_field();
  auto compressor = pressio::registry().create("sz");
  TunerConfig cfg = fast_config(40.0);
  cfg.max_error_bound = value_range(field.view()) * 1e-7;  // absurdly strict
  cfg.max_evals_per_region = 6;
  const Tuner tuner(*compressor, cfg);
  const TuneResult r = tuner.tune(field.view());
  EXPECT_FALSE(r.feasible);
  EXPECT_LT(r.achieved_ratio, 40.0);
  EXPECT_LE(r.error_bound, cfg.max_error_bound * 1.0000001);
}

TEST(Tuner, DeterministicAcrossRunsWhenSerial) {
  // With one worker, regions run in order and the first-success cancellation
  // is no longer a race: results must be bit-identical.  (With threads > 1
  // the winning region can differ run to run, exactly as in the paper's MPI
  // implementation.)
  const NdArray field = hurricane_field();
  auto compressor = pressio::registry().create("sz");
  TunerConfig cfg = fast_config(8.0);
  cfg.threads = 1;
  const Tuner tuner(*compressor, cfg);
  const TuneResult a = tuner.tune(field.view());
  const TuneResult b = tuner.tune(field.view());
  EXPECT_EQ(a.error_bound, b.error_bound);
  EXPECT_EQ(a.achieved_ratio, b.achieved_ratio);
  EXPECT_EQ(a.compress_calls, b.compress_calls);
}

TEST(Tuner, SerialAndParallelAgreeOnFeasibility) {
  const NdArray field = hurricane_field();
  auto compressor = pressio::registry().create("sz");
  TunerConfig serial_cfg = fast_config(7.0);
  serial_cfg.threads = 1;
  TunerConfig parallel_cfg = fast_config(7.0);
  parallel_cfg.threads = 4;
  const TuneResult s = Tuner(*compressor, serial_cfg).tune(field.view());
  const TuneResult p = Tuner(*compressor, parallel_cfg).tune(field.view());
  EXPECT_TRUE(s.feasible);
  EXPECT_TRUE(p.feasible);
  EXPECT_TRUE(ratio_acceptable(p.achieved_ratio, 7.0, 0.1));
}

TEST(Tuner, RegionReportsPopulated) {
  const NdArray field = hurricane_field();
  auto compressor = pressio::registry().create("sz");
  TunerConfig cfg = fast_config(8.0);
  cfg.regions = 4;
  const Tuner tuner(*compressor, cfg);
  const TuneResult r = tuner.tune(field.view());
  ASSERT_EQ(r.regions.size(), 4u);
  int touched = 0, calls = 0;
  for (const auto& region : r.regions) {
    calls += region.compress_calls;
    touched += region.compress_calls > 0;
  }
  EXPECT_EQ(calls, r.compress_calls);
  EXPECT_GE(touched, 1);
}

// -------------------------------- Algorithms 1 and 3 through the Engine

/// Engine over \p backend with the same tuning knobs as fast_config.
Engine series_engine(const char* backend, double target) {
  EngineConfig config;
  config.compressor = backend;
  config.tuner = fast_config(target);
  return Engine(config);
}

TEST(Algorithm1, PredictionShortCircuits) {
  const NdArray field = hurricane_field();
  auto compressor = pressio::registry().create("sz");
  const TuneResult trained = Tuner(*compressor, fast_config(8.0)).tune(field.view());
  ASSERT_TRUE(trained.feasible);
  Engine engine = series_engine("sz", 8.0);
  engine.bound_store()->put("TCf", 8.0, trained.error_bound);
  const TuneResult reused = engine.tune("TCf", field.view()).value();
  EXPECT_TRUE(reused.from_prediction);
  EXPECT_EQ(reused.compress_calls, 1);
  EXPECT_DOUBLE_EQ(reused.error_bound, trained.error_bound);
}

TEST(Algorithm1, BadPredictionFallsBackToTraining) {
  const NdArray field = hurricane_field();
  Engine engine = series_engine("sz", 8.0);
  const double hopeless = value_range(field.view());  // gives a huge ratio
  engine.bound_store()->put("TCf", 8.0, hopeless);
  const TuneResult r = engine.tune("TCf", field.view()).value();
  EXPECT_FALSE(r.from_prediction);
  EXPECT_TRUE(r.feasible);
  EXPECT_GT(r.compress_calls, 1);
}

TEST(Algorithm1, ZeroPredictionMeansNoProbe) {
  const NdArray field = hurricane_field();
  auto compressor = pressio::registry().create("sz");
  TunerConfig cfg = fast_config(8.0);
  cfg.threads = 1;  // serial so both runs are bit-identical
  const TuneResult direct = Tuner(*compressor, cfg).tune(field.view());
  EngineConfig config;
  config.compressor = "sz";
  config.tuner = cfg;
  Engine engine(config);
  engine.bound_store()->put("TCf", 8.0, 0.0);
  const TuneResult via = engine.tune("TCf", field.view()).value();
  EXPECT_EQ(direct.compress_calls, via.compress_calls);
  EXPECT_FALSE(via.from_prediction);
}

TEST(Algorithm3, SeriesReusesBoundAcrossSteps) {
  const auto ds = data::dataset_by_name("hurricane", data::SuiteScale::kTiny);
  const auto spec = data::field_by_name(ds, "TCf");
  const auto arrays = data::generate_series(spec, 6);

  Engine engine = series_engine("sz", 8.0);
  std::vector<TuneResult> steps;
  for (const auto& a : arrays) steps.push_back(engine.tune("TCf", a.view()).value());
  ASSERT_EQ(steps.size(), 6u);
  EXPECT_FALSE(steps[0].from_prediction);  // first step always trains
  // Drift is slow: the majority of steps must reuse the previous bound
  // (paper: "we retrained only a small percentage of the time").
  EXPECT_LE(engine.field_stats().at("TCf").retrains, 3u);
  std::size_t call_sum = 0;
  for (const auto& s : steps) call_sum += static_cast<std::size_t>(s.compress_calls);
  EXPECT_EQ(call_sum, engine.stats().tuner_probe_calls + engine.stats().probe_cache_hits);
}

TEST(Algorithm3, SeriesEveryFeasibleStepInBand) {
  const auto ds = data::dataset_by_name("cesm", data::SuiteScale::kTiny);
  const auto spec = data::field_by_name(ds, "CLOUD");
  const auto arrays = data::generate_series(spec, 5);

  Engine engine = series_engine("zfp", 6.0);
  for (const auto& a : arrays) {
    const TuneResult r = engine.tune("CLOUD", a.view()).value();
    if (r.feasible) {
      EXPECT_TRUE(ratio_acceptable(r.achieved_ratio, 6.0, 0.1));
    }
  }
}

TEST(Algorithm3, FieldsTunedIndependently) {
  // One Engine, one cache key per field: each field trains on its own first
  // step and carries its own bound.
  const auto ds = data::dataset_by_name("cesm", data::SuiteScale::kTiny);
  Engine engine = series_engine("sz", 6.0);
  for (const auto& f : {"CLDHGH", "CLDLOW"}) {
    const auto arrays = data::generate_series(data::field_by_name(ds, f), 3);
    std::vector<TuneResult> steps;
    for (const auto& a : arrays) steps.push_back(engine.tune(f, a.view()).value());
    ASSERT_EQ(steps.size(), 3u) << f;
    EXPECT_TRUE(steps[0].feasible) << f;
    EXPECT_FALSE(steps[0].from_prediction) << f;
  }
  EXPECT_EQ(engine.field_stats().size(), 2u);
}

// ------------------------------------------------ retrain from a landing

/// Ratio \p compressor gives \p data at \p bound.
double ratio_at(pressio::Compressor& compressor, const ArrayView& data, double bound) {
  compressor.set_error_bound(bound);
  Buffer archive;
  compressor.compress_into(data, archive).throw_if_error();
  return static_cast<double>(data.size_bytes()) / static_cast<double>(archive.size());
}

TEST(Retrain, LandingOnEitherSideReachesTheTargetWithinEightProbes) {
  // A retrain steps a secant from where the carried bound landed toward ρt.
  // From below the band and from above it, it settles within ρt·ε/4 in at
  // most 8 probes, on fewer compressions than Algorithm 2 spends on the same
  // data, and without running Algorithm 2's regions.
  const NdArray field = hurricane_field();
  auto sz = pressio::registry().create("sz");
  const double target = 8.0;
  const Tuner tuner(*sz, fast_config(target));
  const TuneResult search = tuner.tune(field.view());
  ASSERT_TRUE(search.feasible);
  const int search_executed = search.compress_calls - search.probe_cache_hits;
  for (const double scale : {1e-3, 1e-1, 1e1, 1e3}) {
    const double bound = search.error_bound * scale;
    const double ratio = ratio_at(*sz, field.view(), bound);
    if (scale < 1)
      ASSERT_LT(ratio, target * 0.9) << scale;
    else
      ASSERT_GT(ratio, target * 1.1) << scale;
    const TuneResult r = tuner.retrain(field.view(), bound, ratio);
    EXPECT_TRUE(r.feasible) << scale;
    EXPECT_TRUE(r.regions.empty()) << scale;
    EXPECT_LE(std::abs(r.achieved_ratio - target), target * 0.1 / 4) << scale;
    EXPECT_LE(r.compress_calls, 8) << scale;
    EXPECT_LT(r.compress_calls - r.probe_cache_hits, search_executed) << scale;
    EXPECT_EQ(ratio_at(*sz, field.view(), r.error_bound), r.achieved_ratio) << scale;
  }
}

TEST(Retrain, InfeasibleTargetFallsBackToAlgorithm2) {
  // Fig. 6a (bench_fig6_convergence's bad case): step 0's bound lands below
  // ρt = 15 on CLOUDf's step 4, and no bound under U = 1e-5 reaches the band
  // there.  The secant's steps are clamped to U, none lands in band, and
  // Algorithm 2 decides with the same memo: the retrain returns the bound
  // tune() returns given that memo, and its closest-ratio fallback.
  const auto ds = data::dataset_by_name("hurricane", data::SuiteScale::kSmall);
  const auto steps = data::generate_series(data::field_by_name(ds, "CLOUDf"), 5);
  TunerConfig cfg = fast_config(15.0);
  cfg.regions = 8;
  cfg.max_evals_per_region = 16;
  cfg.max_error_bound = 1.0e-5;
  auto sz = pressio::registry().create("sz");
  const Tuner tuner(*sz, cfg);
  const double bound = tuner.tune(steps[0].view()).error_bound;
  const ArrayView step4 = steps[4].view();
  ProbeMemo memo;
  const double ratio = tuner.executor().probe_ratio(step4, memo, bound).record.ratio;
  ASSERT_LT(ratio, 15.0 * 0.9);

  const TuneResult r = tuner.retrain(step4, bound, ratio, memo);
  const TuneResult t = tuner.tune(step4, memo);
  EXPECT_FALSE(r.regions.empty());
  EXPECT_FALSE(r.feasible);
  EXPECT_LE(r.error_bound, cfg.max_error_bound);
  EXPECT_EQ(r.error_bound, t.error_bound);
  EXPECT_EQ(r.achieved_ratio, t.achieved_ratio);
  EXPECT_GE(r.compress_calls, t.compress_calls);
}

TEST(Retrain, FlatCurvesSpendOneProbe) {
  // A lossless backend (fpc) and all-zero bytes on a zero_size_flat backend
  // compress to one size at every bound: a retrain is tune()'s single probe.
  const NdArray field = hurricane_field();
  const NdArray zeros(DType::kFloat32, {16, 24, 20});
  struct Case {
    const char* backend;
    const NdArray* data;
  };
  for (const Case& c : {Case{"fpc", &field}, Case{"sz", &zeros}}) {
    auto compressor = pressio::registry().create(c.backend);
    const Tuner tuner(*compressor, fast_config(8.0));
    const double bound = 1e-3;
    const double ratio = ratio_at(*compressor, c.data->view(), bound);
    ASSERT_FALSE(ratio_acceptable(ratio, 8.0, 0.1)) << c.backend;
    const TuneResult r = tuner.retrain(c.data->view(), bound, ratio);
    EXPECT_EQ(r.compress_calls, 1) << c.backend;
    EXPECT_TRUE(r.regions.empty()) << c.backend;
    EXPECT_EQ(r.achieved_ratio, ratio) << c.backend;
  }
}

// ------------------------------------------------------ one-sided searches

/// Smallest ratio \p compressor reaches over 200 bounds spaced evenly in
/// log space across the tuner's default search range of \p data.
double sweep_min_ratio(pressio::Compressor& compressor, const ArrayView& data) {
  const double hi = value_range(data);
  double lowest = std::numeric_limits<double>::infinity();
  for (int k = 0; k < 200; ++k)
    lowest = std::min(lowest, ratio_at(compressor, data, hi * std::pow(1e-9, 1.0 - k / 199.0)));
  return lowest;
}

TEST(OneSided, SparseFieldBelowItsMinimumRatioKeepsAlgorithm2sBound) {
  // CLOUDf is sparse: no bound in its search range codes it below ~2.6x, so
  // every probe of a search for ρt = 2 lands above the band.  After the
  // first round only the closest probe's region and its two neighbours run
  // on; they hold Algorithm 2's closest ratio (bound pinned from its
  // 288-probe search), within 1% of the smallest a 200-point sweep finds.
  const NdArray field = hurricane_field("CLOUDf");
  auto sz = pressio::registry().create("sz");
  const double target = 2.0;
  const double sweep_min = sweep_min_ratio(*sz, field.view());
  ASSERT_GT(sweep_min, target * 1.1) << "the target must lie below every ratio";
  TunerConfig cfg = fast_config(target);
  const TuneResult r = Tuner(*sz, cfg).tune(field.view());
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.error_bound, 0x1.9db41c2ba7347p-30);
  EXPECT_EQ(r.compress_calls, 12 + 3 * 23);
  EXPECT_LE(r.achieved_ratio, sweep_min * 1.01);
  EXPECT_EQ(ratio_at(*sz, field.view(), r.error_bound), r.achieved_ratio);
  ASSERT_EQ(r.regions.size(), 12u);
  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < r.regions.size(); ++i) {
    const RegionOutcome& region = r.regions[i];
    if (region.cancelled) {
      EXPECT_EQ(region.compress_calls, 1) << i;
    } else {
      EXPECT_EQ(region.compress_calls, cfg.max_evals_per_region) << i;
      kept.push_back(i);
    }
  }
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[2], kept[0] + 2) << "the kept regions are neighbours";
  // The rounds are deterministic: the same probes at any thread count.
  for (const unsigned threads : {1u, 4u}) {
    cfg.threads = threads;
    const TuneResult again = Tuner(*sz, cfg).tune(field.view());
    EXPECT_EQ(again.error_bound, r.error_bound) << threads;
    EXPECT_EQ(again.compress_calls, r.compress_calls) << threads;
    EXPECT_EQ(again.probe_cache_hits, r.probe_cache_hits) << threads;
  }
}

TEST(OneSided, ConstantFieldKeepsAlgorithm2sBoundInFewProbes) {
  // −7.0 everywhere.  At ρt = 10, sz, szx, zfp and mgard code it to one
  // size at every bound, above the band: the first round is one-sided and
  // ties, so region 0 and its one neighbour run on.  truncate lands below
  // the band, closest at the range top, so the top two regions run on.
  // Each search keeps the bound Algorithm 2 settled on after 288 probes
  // (pinned from it).
  NdArray constant(DType::kFloat32, {16, 24, 20});
  for (std::size_t i = 0; i < constant.elements(); ++i) constant.typed<float>()[i] = -7.0f;
  for (const auto& [backend, bound] :
       {std::pair{"sz", 0x1.e48b54f8587b4p-30}, std::pair{"szx", 0x1.e48b54f8587b4p-30},
        std::pair{"zfp", 0x1.e48b54f8587b4p-30}, std::pair{"mgard", 0x1.e48b54f8587b4p-30},
        std::pair{"truncate", 0x1p+0}}) {
    auto compressor = pressio::registry().create(backend);
    const TuneResult r = Tuner(*compressor, fast_config(10.0)).tune(constant.view());
    EXPECT_EQ(r.error_bound, bound) << backend;
    EXPECT_FALSE(r.feasible) << backend;
    EXPECT_EQ(r.compress_calls, 12 + 2 * 23) << backend;
  }
}

TEST(OneSided, BracketedSearchRunsAlgorithm2Unchanged) {
  // ρt = 20 on CLOUDf: the first round's probes fall on both sides of the
  // band, so every region runs on as Algorithm 2 until one lands.  The
  // bound, the probe count and the memo hits are the region search's,
  // pinned from it before the one-sided stop existed.
  const NdArray field = hurricane_field("CLOUDf");
  auto sz = pressio::registry().create("sz");
  const TuneResult r = Tuner(*sz, fast_config(20.0)).tune(field.view());
  EXPECT_EQ(r.error_bound, 0x1.9ca2da22f087fp-14);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.compress_calls, 72);
  EXPECT_EQ(r.probe_cache_hits, 8);
  int region_calls = 0;
  for (const RegionOutcome& region : r.regions) region_calls += region.compress_calls;
  EXPECT_EQ(region_calls, r.compress_calls);
}

TEST(OneSided, TargetAboveEveryRatioReturnsTheRangeEnd) {
  // Fig. 6a's step 4: under U = 1e-5 no bound reaches ρt = 15 on CLOUDf,
  // and the ratio grows with the bound, so every probe lands below the band
  // and the closest probe of the first round is in the top region.  That
  // region runs on and probes its upper end, the top of the search range,
  // which holds the ratio closest to the target, as Algorithm 2's 128-probe
  // fallback found it.
  const auto ds = data::dataset_by_name("hurricane", data::SuiteScale::kSmall);
  const auto steps = data::generate_series(data::field_by_name(ds, "CLOUDf"), 5);
  const ArrayView step4 = steps[4].view();
  TunerConfig cfg = fast_config(15.0);
  cfg.regions = 8;
  cfg.max_evals_per_region = 16;
  cfg.max_error_bound = 1.0e-5;
  auto sz = pressio::registry().create("sz");
  // The top of the range as the log-space search reaches it.
  const double top_bound = std::exp(std::log(cfg.max_error_bound));
  const double top = ratio_at(*sz, step4, top_bound);
  ASSERT_LT(top, 15.0 * 0.9);
  const TuneResult r = Tuner(*sz, cfg).tune(step4);
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.error_bound, top_bound);
  EXPECT_EQ(r.achieved_ratio, top);
  EXPECT_EQ(r.compress_calls, 8 + 2 * 15);
}

TEST(Tuner, RejectsUnsupportedRank) {
  const auto ds = data::dataset_by_name("hacc", data::SuiteScale::kTiny);
  const NdArray field = data::generate_field(ds.fields[0], 0);  // 1D
  auto compressor = pressio::registry().create("mgard");       // 2D/3D only
  const Tuner tuner(*compressor, fast_config(8.0));
  EXPECT_THROW(tuner.tune(field.view()), InvalidArgument);
  EXPECT_THROW(tuner.retrain(field.view(), 1e-3, 2.0), InvalidArgument);
}

TEST(Retrain, RejectsALandingThatIsNoCompression) {
  const NdArray field = hurricane_field();
  auto compressor = pressio::registry().create("sz");
  const Tuner tuner(*compressor, fast_config(8.0));
  EXPECT_THROW(tuner.retrain(field.view(), 0.0, 2.0), InvalidArgument);
  EXPECT_THROW(tuner.retrain(field.view(), 1e-3, 0.0), InvalidArgument);
}

TEST(Tuner, ConfigValidation) {
  auto compressor = pressio::registry().create("sz");
  TunerConfig cfg;
  cfg.target_ratio = 0.5;
  EXPECT_THROW(Tuner(*compressor, cfg), InvalidArgument);
  cfg = TunerConfig{};
  cfg.epsilon = 0;
  EXPECT_THROW(Tuner(*compressor, cfg), InvalidArgument);
  cfg = TunerConfig{};
  cfg.regions = 0;
  EXPECT_THROW(Tuner(*compressor, cfg), InvalidArgument);
  cfg = TunerConfig{};
  cfg.overlap = 1.0;
  EXPECT_THROW(Tuner(*compressor, cfg), InvalidArgument);
}

}  // namespace
}  // namespace fraz
