#include <gtest/gtest.h>

#include "core/quality_tuner.hpp"
#include "data/datasets.hpp"
#include "engine/engine.hpp"
#include "metrics/error_stats.hpp"
#include "metrics/ssim.hpp"
#include "pressio/registry.hpp"
#include "test_helpers.hpp"

/// Tests for the paper's §VII future-work features implemented as
/// extensions: quality-target tuning and online (in-situ) fixed-ratio
/// streaming through Engine::compress.

namespace fraz {
namespace {

using testhelpers::make_field;

NdArray cesm_field(int step = 0) {
  const auto ds = data::dataset_by_name("cesm", data::SuiteScale::kTiny);
  return data::generate_field(data::field_by_name(ds, "CLOUD"), step);
}

// -------------------------------------------------------- quality tuner

TEST(QualityTuner, PsnrFloorIsMet) {
  const NdArray field = cesm_field();
  auto compressor = pressio::registry().create("sz");
  QualityTunerConfig cfg;
  cfg.metric = QualityMetric::kPsnrDb;
  cfg.quality_floor = 60.0;
  const QualityTuneResult r = tune_for_quality(*compressor, field.view(), cfg);
  ASSERT_TRUE(r.met_floor);
  EXPECT_GE(r.quality, 60.0);
  EXPECT_GT(r.achieved_ratio, 1.0);

  // Re-check independently: the returned bound really delivers the quality.
  compressor->set_error_bound(r.error_bound);
  Buffer compressed;
  ASSERT_TRUE(compressor->compress_into(field.view(), compressed).ok());
  NdArray decoded;
  ASSERT_TRUE(compressor->decompress_into(compressed.data(), compressed.size(), decoded).ok());
  EXPECT_GE(error_stats(field.view(), decoded.view()).psnr_db, 60.0);
}

TEST(QualityTuner, SsimFloorIsMet) {
  const NdArray field = cesm_field();
  auto compressor = pressio::registry().create("zfp");
  QualityTunerConfig cfg;
  cfg.metric = QualityMetric::kSsim;
  cfg.quality_floor = 0.95;
  const QualityTuneResult r = tune_for_quality(*compressor, field.view(), cfg);
  ASSERT_TRUE(r.met_floor);
  EXPECT_GE(r.quality, 0.95);
  compressor->set_error_bound(r.error_bound);
  Buffer compressed;
  ASSERT_TRUE(compressor->compress_into(field.view(), compressed).ok());
  NdArray decoded;
  ASSERT_TRUE(compressor->decompress_into(compressed.data(), compressed.size(), decoded).ok());
  EXPECT_GE(ssim(field.view(), decoded.view()), 0.95);
}

TEST(QualityTuner, HigherFloorMeansSmallerBound) {
  const NdArray field = cesm_field();
  auto compressor = pressio::registry().create("sz");
  QualityTunerConfig strict;
  strict.quality_floor = 80.0;
  QualityTunerConfig lax;
  lax.quality_floor = 40.0;
  const auto r_strict = tune_for_quality(*compressor, field.view(), strict);
  const auto r_lax = tune_for_quality(*compressor, field.view(), lax);
  ASSERT_TRUE(r_strict.met_floor);
  ASSERT_TRUE(r_lax.met_floor);
  EXPECT_LT(r_strict.error_bound, r_lax.error_bound);
  EXPECT_LE(r_strict.achieved_ratio, r_lax.achieved_ratio * 1.05);
}

TEST(QualityTuner, SsimOn1dRejected) {
  const NdArray field = make_field(DType::kFloat32, {512});
  auto compressor = pressio::registry().create("sz");
  QualityTunerConfig cfg;
  cfg.metric = QualityMetric::kSsim;
  cfg.quality_floor = 0.9;
  EXPECT_THROW(tune_for_quality(*compressor, field.view(), cfg), InvalidArgument);
}

TEST(QualityTuner, ImpossibleFloorReportsNotMet) {
  // PSNR 10000 dB is unreachable with a lossy bound > 0 on textured data.
  const NdArray field = cesm_field();
  auto compressor = pressio::registry().create("zfp");
  QualityTunerConfig cfg;
  cfg.quality_floor = 10000.0;
  cfg.max_evals = 8;
  cfg.min_error_bound = value_range(field.view()) * 1e-3;  // forbid near-lossless
  const QualityTuneResult r = tune_for_quality(*compressor, field.view(), cfg);
  EXPECT_FALSE(r.met_floor);
  EXPECT_EQ(r.error_bound, 0.0);
}

TEST(QualityTuner, ConfigValidation) {
  const NdArray field = cesm_field();
  auto compressor = pressio::registry().create("sz");
  QualityTunerConfig cfg;
  cfg.quality_floor = 0;
  EXPECT_THROW(tune_for_quality(*compressor, field.view(), cfg), InvalidArgument);
  cfg = QualityTunerConfig{};
  cfg.max_evals = 1;
  EXPECT_THROW(tune_for_quality(*compressor, field.view(), cfg), InvalidArgument);
}

// ------------------------------------------ in-situ streaming (Engine)

EngineConfig stream_config(double target) {
  EngineConfig config;
  config.compressor = "sz";
  config.tuner.target_ratio = target;
  config.tuner.epsilon = 0.1;
  config.tuner.threads = 2;
  return config;
}

TEST(Engine, FirstFrameTrainsLaterFramesReuse) {
  Engine engine(stream_config(6.0));
  const auto ds = data::dataset_by_name("cesm", data::SuiteScale::kTiny);
  const auto spec = data::field_by_name(ds, "CLOUD");
  Buffer out;

  const NdArray f0 = data::generate_field(spec, 0);
  CompressOutcome s0;
  ASSERT_TRUE(engine.compress("CLOUD", f0.view(), out, &s0).ok());
  EXPECT_TRUE(s0.retrained);
  ASSERT_TRUE(s0.in_band);
  EXPECT_GT(engine.cached_bound("CLOUD"), 0.0);

  int reused = 0;
  for (int t = 1; t <= 4; ++t) {
    const NdArray f = data::generate_field(spec, t);
    CompressOutcome outcome;
    ASSERT_TRUE(engine.compress("CLOUD", f.view(), out, &outcome).ok()) << t;
    reused += !outcome.retrained;
  }
  EXPECT_GE(reused, 3);  // slow drift: the bound survives most frames
  EXPECT_EQ(engine.field_stats().at("CLOUD").tunes, 5u);
  EXPECT_LE(engine.field_stats().at("CLOUD").retrains, 2u);
}

TEST(Engine, ClearCacheForgetsCarriedBound) {
  Engine engine(stream_config(6.0));
  const NdArray f = cesm_field();
  Buffer out;
  ASSERT_TRUE(engine.compress("CLOUD", f.view(), out).ok());
  ASSERT_GT(engine.cached_bound("CLOUD"), 0.0);
  engine.clear_cache();
  EXPECT_EQ(engine.cached_bound("CLOUD"), 0.0);
  // Next frame trains from scratch again.
  CompressOutcome outcome;
  ASSERT_TRUE(engine.compress("CLOUD", f.view(), out, &outcome).ok());
  EXPECT_TRUE(outcome.retrained);
}

TEST(Engine, RegimeChangeTriggersRetrain) {
  // Stream frames from one field, then switch to a very different field:
  // the carried bound must miss the band and trigger retraining.
  Engine engine(stream_config(6.0));
  const auto ds = data::dataset_by_name("cesm", data::SuiteScale::kTiny);
  const NdArray calm = data::generate_field(data::field_by_name(ds, "PHIS"), 0);
  Buffer out;
  CompressOutcome first;
  ASSERT_TRUE(engine.compress("stream", calm.view(), out, &first).ok());
  ASSERT_TRUE(first.in_band);

  // A field with a completely different amplitude/structure profile.
  const auto hur = data::dataset_by_name("hurricane", data::SuiteScale::kTiny);
  const NdArray wild = data::generate_field(data::field_by_name(hur, "QCLOUDf.log10"), 0)
                           .slice2d(4);
  CompressOutcome jump;
  ASSERT_TRUE(engine.compress("stream", wild.view(), out, &jump).ok());
  EXPECT_TRUE(jump.retrained);
}

}  // namespace
}  // namespace fraz
