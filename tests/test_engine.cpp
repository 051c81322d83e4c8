#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "data/datasets.hpp"
#include "metrics/error_stats.hpp"
#include "pressio/registry.hpp"
#include "telemetry/telemetry.hpp"
#include "test_helpers.hpp"
#include "util/buffer.hpp"
#include "util/status.hpp"

/// Tests for the CompressorV2 contract (Status-based zero-copy hot paths,
/// capabilities introspection) and the fraz::Engine facade (bound cache,
/// warm-start reuse).

namespace fraz {
namespace {

using testhelpers::make_field;
using testhelpers::max_error;

/// 2D fits every built-in backend (MGARD excludes 1D).
NdArray test_field() { return make_field(DType::kFloat32, {37, 41}); }

EngineConfig fast_config(const std::string& backend, double target = 5.0) {
  EngineConfig config;
  config.compressor = backend;
  config.tuner.target_ratio = target;
  config.tuner.epsilon = 0.1;
  config.tuner.threads = 2;
  return config;
}

// ------------------------------------------------------------------ Buffer

TEST(Buffer, GrowOnlyAcrossReuse) {
  Buffer b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.allocations(), 0u);
  b.append("hello", 5);
  EXPECT_EQ(b.size(), 5u);
  const std::size_t after_first = b.allocations();
  EXPECT_GE(after_first, 1u);
  // clear() keeps capacity: refilling with the same or less never allocates.
  const std::size_t cap = b.capacity();
  for (int i = 0; i < 100; ++i) {
    b.clear();
    b.append("world", 5);
  }
  EXPECT_EQ(b.allocations(), after_first);
  EXPECT_EQ(b.capacity(), cap);
  EXPECT_EQ(std::memcmp(b.data(), "world", 5), 0);
}

TEST(Buffer, MoveTransfersOwnership) {
  Buffer a;
  a.append("abc", 3);
  Buffer b = std::move(a);
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(std::memcmp(b.data(), "abc", 3), 0);
}

// ------------------------------------------------------- CompressorV2 paths

class BackendSweep : public testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendSweep,
                         testing::ValuesIn(pressio::registry().names()));

TEST_P(BackendSweep, StatusRoundTrip) {
  auto c = pressio::registry().create(GetParam());
  const NdArray field = test_field();
  c->set_error_bound(0.05);

  Buffer archive;
  ASSERT_TRUE(c->compress_into(field.view(), archive).ok());
  ASSERT_GT(archive.size(), 0u);

  NdArray decoded;
  ASSERT_TRUE(c->decompress_into(archive.data(), archive.size(), decoded).ok());
  ASSERT_EQ(decoded.shape(), field.shape());
  ASSERT_EQ(decoded.dtype(), field.dtype());
  if (c->capabilities().error_bounded) {
    EXPECT_LE(max_error(field, decoded), 0.05) << GetParam();
  }
}

TEST_P(BackendSweep, CompressIntoClearsPreviousContents) {
  auto c = pressio::registry().create(GetParam());
  const NdArray field = test_field();
  c->set_error_bound(0.05);
  Buffer archive;
  ASSERT_TRUE(c->compress_into(field.view(), archive).ok());
  const std::size_t size_once = archive.size();
  // A second identical compression must replace, not append.
  ASSERT_TRUE(c->compress_into(field.view(), archive).ok());
  EXPECT_EQ(archive.size(), size_once);
}

TEST_P(BackendSweep, DecompressIntoRejectsGarbageAsStatus) {
  auto c = pressio::registry().create(GetParam());
  const std::uint8_t garbage[] = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01, 0x02, 0x03,
                                  0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b};
  NdArray out;
  const Status s = c->decompress_into(garbage, sizeof(garbage), out);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruptStream) << s.to_string();
}

TEST_P(BackendSweep, CapabilitiesMatchBehaviour) {
  auto c = pressio::registry().create(GetParam());
  const pressio::Capabilities caps = c->capabilities();
  EXPECT_EQ(caps.name, c->name());
  EXPECT_FALSE(caps.version.empty());
  EXPECT_GE(caps.max_dims, caps.min_dims);
  for (std::size_t dims = 1; dims <= 4; ++dims)
    EXPECT_EQ(c->supports_dims(dims), dims >= caps.min_dims && dims <= caps.max_dims);
  EXPECT_TRUE(caps.supports(DType::kFloat32, caps.min_dims));
  EXPECT_FALSE(caps.supports(DType::kFloat32, caps.max_dims + 1));
}

TEST_P(BackendSweep, CloneIsIndependent) {
  // Per-worker clones must not share mutable state: reconfiguring the clone
  // leaves the original untouched, and both produce their own archives.
  auto original = pressio::registry().create(GetParam());
  original->set_error_bound(0.5);
  auto clone = original->clone();
  clone->set_error_bound(0.001);

  EXPECT_DOUBLE_EQ(original->error_bound(), 0.5);
  EXPECT_DOUBLE_EQ(clone->error_bound(), 0.001);

  const NdArray field = test_field();
  Buffer a, b;
  ASSERT_TRUE(original->compress_into(field.view(), a).ok());
  ASSERT_TRUE(clone->compress_into(field.view(), b).ok());
  // The tight-bound archive must be strictly larger — shared state would
  // make the two calls produce identical output.  Lossless backends ignore
  // the bound entirely, so for them the bound values above are the check.
  if (!original->capabilities().lossless) {
    EXPECT_GT(b.size(), a.size()) << GetParam();
  }
  // And the original still compresses at its own bound afterwards.
  EXPECT_DOUBLE_EQ(original->error_bound(), 0.5);
}

TEST(CompressorV2, UnsupportedRankComesBackAsStatusNotThrow) {
  auto mgard = pressio::registry().create("mgard");
  const NdArray field = make_field(DType::kFloat32, {256});  // 1D
  Buffer out;
  const Status s = mgard->compress_into(field.view(), out);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnsupported) << s.to_string();
}

// --------------------------------------------------- zero-allocation proof

TEST(ZeroCopy, SteadyStateCompressionAllocatesNothing) {
  // The acceptance gate for the zero-copy redesign: a tuner-style sweep over
  // the bound axis, repeated against the same reusable Buffer, performs ZERO
  // output-buffer allocations once the first sweep established the
  // high-water capacity.  (A single tightest-bound warm-up would not do:
  // archive size is non-monotonic in the bound — paper Fig. 3 — so the
  // grow-only property over a full sweep is what matters.)
  auto c = pressio::registry().create("sz");
  const NdArray field = make_field(DType::kFloat32, {48, 48});

  Buffer out;
  const auto sweep = [&] {
    int iterations = 0;
    for (double bound = 1e-9; bound < 50.0; bound *= 2.5) {
      c->set_error_bound(bound);
      ASSERT_TRUE(c->compress_into(field.view(), out).ok());
      ++iterations;
    }
    EXPECT_GE(iterations, 20);
  };

  sweep();  // warm-up: capacity may grow toward the high-water mark
  const std::size_t warm_allocations = out.allocations();
  const std::size_t high_water = out.capacity();
  sweep();  // steady state: every archive fits in already-owned storage
  EXPECT_EQ(out.allocations(), warm_allocations);
  EXPECT_EQ(out.capacity(), high_water);
}

TEST(ZeroCopy, TightestBoundSizesZfpScratchForLooserOnes) {
  auto c = pressio::registry().create("zfp");
  const NdArray field = test_field();
  Buffer scratch;
  c->set_error_bound(1e-9);
  ASSERT_TRUE(c->compress_into(field.view(), scratch).ok());
  const std::size_t warm = scratch.allocations();
  for (double bound = 1e-4; bound < 10.0; bound *= 3) {
    c->set_error_bound(bound);
    ASSERT_TRUE(c->compress_into(field.view(), scratch).ok());
    EXPECT_GT(compression_ratio(field.size_bytes(), scratch.size()), 0.0);
    EXPECT_EQ(scratch.allocations(), warm);
  }
}

// ------------------------------------------------------------------ Engine

TEST(Engine, CreateRejectsUnknownBackend) {
  auto r = Engine::create(fast_config("lzma"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

TEST(Engine, CreateRejectsBadTunerConfig) {
  EngineConfig config = fast_config("sz");
  config.tuner.target_ratio = 0.5;  // must exceed 1
  auto r = Engine::create(config);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(Engine, AppliesCompressorOptionsAtConstruction) {
  EngineConfig config = fast_config("sz");
  config.compressor_options.set("sz:error_bound", 0.125);
  Engine engine(config);
  EXPECT_EQ(engine.compressor_name(), "sz");
  EXPECT_EQ(engine.capabilities().name, "sz");
}

TEST(Engine, RoundTripForEveryBackend) {
  const NdArray field = test_field();
  for (const auto& backend : pressio::registry().names()) {
    auto created = Engine::create(fast_config(backend));
    ASSERT_TRUE(created.ok()) << backend << ": " << created.status().to_string();
    Engine engine = std::move(created).value();

    const auto tuned = engine.tune("field", field.view());
    ASSERT_TRUE(tuned.ok()) << backend << ": " << tuned.status().to_string();
    EXPECT_GT(tuned.value().error_bound, 0.0) << backend;

    Buffer archive;
    ASSERT_TRUE(engine.compress("field", field.view(), archive).ok()) << backend;
    ASSERT_GT(archive.size(), 0u) << backend;

    const auto decoded = engine.decompress(archive.data(), archive.size());
    ASSERT_TRUE(decoded.ok()) << backend << ": " << decoded.status().to_string();
    EXPECT_EQ(decoded.value().shape(), field.shape()) << backend;
    if (engine.capabilities().error_bounded) {
      EXPECT_LE(max_error(field, decoded.value()), tuned.value().error_bound * 1.0000001)
          << backend;
    }
  }
}

TEST(Engine, BoundCacheWarmStartsEveryBackend) {
  const NdArray field = test_field();
  for (const auto& backend : pressio::registry().names()) {
    Engine engine(fast_config(backend));
    const auto first = engine.tune("cache-key", field.view());
    ASSERT_TRUE(first.ok()) << backend;
    if (!first.value().feasible) continue;  // nothing cacheable (e.g. truncate's
                                            // step-function ratios may miss the band)
    EXPECT_GT(engine.cached_bound("cache-key"), 0.0) << backend;

    // Identical data, same key: Algorithm 3's reuse — one confirmation
    // probe, no retraining.
    const auto second = engine.tune("cache-key", field.view());
    ASSERT_TRUE(second.ok()) << backend;
    EXPECT_TRUE(second.value().from_prediction) << backend;
    EXPECT_EQ(second.value().compress_calls, 1) << backend;
    EXPECT_EQ(engine.stats().warm_hits, 1u) << backend;
    EXPECT_DOUBLE_EQ(second.value().error_bound, first.value().error_bound) << backend;
  }
}

TEST(Engine, CacheIsKeyedByFieldAndTarget) {
  const NdArray field = test_field();
  Engine engine(fast_config("sz"));
  ASSERT_TRUE(engine.tune("a", field.view()).ok());
  const double bound_a = engine.cached_bound("a");
  ASSERT_GT(bound_a, 0.0);

  // A different field key retrains from scratch.
  EXPECT_EQ(engine.cached_bound("b"), 0.0);
  ASSERT_TRUE(engine.tune("b", field.view()).ok());
  EXPECT_EQ(engine.stats().retrains, 2u);

  // Same field, different target: separate entry with a different bound.
  const auto tighter = engine.tune("a", field.view(), 3.0);
  ASSERT_TRUE(tighter.ok());
  EXPECT_DOUBLE_EQ(engine.cached_bound("a"), bound_a);  // default-target entry intact
  if (tighter.value().feasible) {
    EXPECT_GT(engine.cached_bound("a", 3.0), 0.0);
    EXPECT_LT(engine.cached_bound("a", 3.0), bound_a);
  }

  engine.clear_cache();
  EXPECT_EQ(engine.cached_bound("a"), 0.0);
}

TEST(Engine, CompressReusesCallerBufferAcrossFrames) {
  // Time-step loop through the facade: after the first frame's archive the
  // caller's buffer stops allocating (the production streaming pattern).
  Engine engine(fast_config("sz"));
  Buffer archive;
  std::size_t warm = 0;
  for (int step = 0; step < 6; ++step) {
    const NdArray frame = make_field(DType::kFloat32, {37, 41}, 50.0 + step);
    ASSERT_TRUE(engine.compress("frame", frame.view(), archive).ok()) << step;
    if (step == 0)
      warm = archive.allocations();
    else
      EXPECT_LE(archive.allocations(), warm + 1) << step;  // grow-only, at most one
                                                           // growth past warm-up
  }
  EXPECT_GE(engine.stats().warm_hits, 4u);
}

TEST(Engine, WarmCompressIsOneCompressionPerFrame) {
  // The warm path must use the archive itself as the acceptance probe: no
  // separate tuner probe, exactly one compression per in-band frame.
  Engine engine(fast_config("sz"));
  const NdArray frame = test_field();
  Buffer out;
  ASSERT_TRUE(engine.compress("f", frame.view(), out).ok());  // full training
  const std::size_t probes_after_first = engine.stats().tuner_probe_calls;
  const std::size_t archives_after_first = engine.stats().compress_calls;
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(engine.compress("f", frame.view(), out).ok());
  EXPECT_EQ(engine.stats().tuner_probe_calls, probes_after_first);
  EXPECT_EQ(engine.stats().compress_calls, archives_after_first + 5);
  EXPECT_EQ(engine.stats().warm_hits, 5u);
}

TEST(Engine, EvaluateReportsFidelityAtTunedBound) {
  Engine engine(fast_config("zfp"));
  const NdArray field = test_field();
  const auto report = engine.evaluate("field", field.view());
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_GT(report.value().probe.ratio, 1.0);
  EXPECT_GT(report.value().psnr_db, 20.0);
  EXPECT_LE(report.value().max_abs_error, engine.cached_bound("field") * 1.0000001);
}

TEST(Engine, DecompressGarbageIsAStatus) {
  Engine engine(fast_config("sz"));
  const std::uint8_t junk[16] = {};
  const auto r = engine.decompress(junk, sizeof(junk));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruptStream);
}

// ----------------------------------------------------- streaming fast path

TEST(Engine, CompressDriftRetrainsFromScratch) {
  Engine engine(fast_config("sz"));
  const NdArray calm = test_field();
  Buffer out;
  CompressOutcome first;
  ASSERT_TRUE(engine.compress("f", calm.view(), out, &first).ok());
  EXPECT_TRUE(first.retrained);
  CompressOutcome warm;
  ASSERT_TRUE(engine.compress("f", calm.view(), out, &warm).ok());
  ASSERT_TRUE(warm.warm);
  const double carried = engine.cached_bound("f");
  ASSERT_GT(carried, 0.0);

  // Regime change: 1000x the amplitude pushes the carried bound's achieved
  // ratio out of the band — the warm archive measures the drift, and the
  // frame retrains from scratch and carries a new bound.
  const NdArray wild = make_field(DType::kFloat32, {37, 41}, 50000.0);
  CompressOutcome drift;
  ASSERT_TRUE(engine.compress("f", wild.view(), out, &drift).ok());
  EXPECT_TRUE(drift.retrained);
  EXPECT_FALSE(drift.warm);
  EXPECT_GT(out.size(), 0u);
  EXPECT_GT(engine.cached_bound("f"), 0.0);
  EXPECT_NE(engine.cached_bound("f"), carried);
}

// ------------------------------------------------- above-band carried bounds

/// A constant frame compresses to the same ratio at every bound — far above
/// ρt(1+ε) — so every search on it ends above the band.
NdArray constant_frame(float value) {
  NdArray frame(DType::kFloat32, {37, 41});
  for (std::size_t i = 0; i < frame.elements(); ++i) frame.set_flat(i, value);
  return frame;
}

std::uint64_t above_band_keeps() {
  return telemetry::global().counter("engine.above_band_keeps").value();
}

TEST(Engine, AboveBandBoundIsKeptWithoutASearch) {
  const EngineConfig config = fast_config("sz");
  Engine engine(config);
  Buffer out;
  CompressOutcome first;
  ASSERT_TRUE(engine.compress("f", constant_frame(1.0f).view(), out, &first).ok());
  ASSERT_TRUE(first.retrained);
  ASSERT_GT(first.achieved_ratio, config.tuner.target_ratio * (1 + config.tuner.epsilon));
  const CarriedBound carried = engine.bound_store()->carried("f", config.tuner.target_ratio);
  EXPECT_TRUE(carried.above_band);
  EXPECT_EQ(carried.bound, first.error_bound);

  // Step 2: one compression at the carried bound, no search.
  const std::size_t probes = engine.stats().tuner_probe_calls;
  const std::size_t compressions = engine.stats().compress_calls;
  const std::uint64_t keeps = above_band_keeps();
  CompressOutcome second;
  ASSERT_TRUE(engine.compress("f", constant_frame(2.0f).view(), out, &second).ok());
  EXPECT_EQ(engine.stats().compress_calls, compressions + 1);
  EXPECT_EQ(engine.stats().tuner_probe_calls, probes);
  EXPECT_TRUE(second.warm);
  EXPECT_FALSE(second.retrained);
  EXPECT_FALSE(second.in_band);
  EXPECT_EQ(second.error_bound, first.error_bound);
  EXPECT_EQ(engine.stats().retrains, 1u);
  if (telemetry::enabled()) {
    EXPECT_EQ(above_band_keeps(), keeps + 1);
  }
  EXPECT_TRUE(engine.bound_store()->carried("f", config.tuner.target_ratio).above_band);
}

TEST(Engine, AboveBandTuneIsOneProbe) {
  Engine engine(fast_config("sz"));
  const auto first = engine.tune("f", constant_frame(1.0f).view());
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first.value().feasible);
  ASSERT_FALSE(first.value().from_prediction);

  const std::size_t probes = engine.stats().tuner_probe_calls;
  const auto second = engine.tune("f", constant_frame(2.0f).view());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().from_prediction);
  EXPECT_FALSE(second.value().feasible);
  EXPECT_EQ(second.value().compress_calls, 1);
  EXPECT_EQ(engine.stats().tuner_probe_calls, probes + 1);
  EXPECT_EQ(second.value().error_bound, first.value().error_bound);
  EXPECT_EQ(engine.stats().retrains, 1u);
}

/// In-band bound of test_field() at \p config's target, from its own Engine.
double in_band_bound(const EngineConfig& config) {
  Engine probe(config);
  const auto tuned = probe.tune("x", test_field().view());
  EXPECT_TRUE(tuned.ok() && tuned.value().feasible);
  return tuned.ok() ? tuned.value().error_bound : 0;
}

TEST(Engine, AboveBandBoundLandingInBandIsAPlainWarmHit) {
  const EngineConfig config = fast_config("sz");
  const double target = config.tuner.target_ratio;
  const double bound = in_band_bound(config);
  ASSERT_GT(bound, 0.0);
  for (const bool through_tune : {false, true}) {
    Engine engine(config);
    engine.bound_store()->put("f", target, bound, /*above_band=*/true);
    if (through_tune) {
      const auto tuned = engine.tune("f", test_field().view());
      ASSERT_TRUE(tuned.ok());
      EXPECT_TRUE(tuned.value().from_prediction);
      EXPECT_TRUE(tuned.value().feasible);
    } else {
      Buffer out;
      CompressOutcome outcome;
      ASSERT_TRUE(engine.compress("f", test_field().view(), out, &outcome).ok());
      EXPECT_TRUE(outcome.warm);
      EXPECT_FALSE(outcome.retrained);
      EXPECT_TRUE(outcome.in_band);
      EXPECT_EQ(engine.stats().compress_calls, 1u);
    }
    EXPECT_EQ(engine.stats().warm_hits, 1u);
    const CarriedBound carried = engine.bound_store()->carried("f", target);
    EXPECT_EQ(carried.bound, bound) << through_tune;
    EXPECT_FALSE(carried.above_band) << through_tune;
  }
}

TEST(Engine, AboveBandBoundLandingBelowBandRetrainsAndClearsTheFlag) {
  const EngineConfig config = fast_config("sz");
  const double target = config.tuner.target_ratio;
  const double bound = in_band_bound(config);
  ASSERT_GT(bound, 0.0);
  for (const bool through_tune : {false, true}) {
    Engine engine(config);
    // Far below the in-band bound, the ratio falls below ρt(1−ε).
    engine.bound_store()->put("f", target, bound * 1e-6, /*above_band=*/true);
    if (through_tune) {
      const auto tuned = engine.tune("f", test_field().view());
      ASSERT_TRUE(tuned.ok());
      EXPECT_FALSE(tuned.value().from_prediction);
      EXPECT_TRUE(tuned.value().feasible);
    } else {
      Buffer out;
      CompressOutcome outcome;
      ASSERT_TRUE(engine.compress("f", test_field().view(), out, &outcome).ok());
      EXPECT_FALSE(outcome.warm);
      EXPECT_TRUE(outcome.retrained);
      EXPECT_TRUE(outcome.in_band);
    }
    EXPECT_EQ(engine.stats().retrains, 1u);
    const CarriedBound carried = engine.bound_store()->carried("f", target);
    EXPECT_GT(carried.bound, bound * 1e-6) << through_tune;
    EXPECT_FALSE(carried.above_band) << through_tune;
  }

  // When the retraining cannot reach the band either (no bound compresses
  // this field 1000×), the flagged bound is dropped, not kept.
  Engine hopeless(fast_config("sz", 1000.0));
  hopeless.bound_store()->put("f", 1000.0, bound, /*above_band=*/true);
  const auto tuned = hopeless.tune("f", test_field().view());
  ASSERT_TRUE(tuned.ok());
  EXPECT_FALSE(tuned.value().from_prediction);
  EXPECT_LT(tuned.value().achieved_ratio, 1000.0 * 0.9);
  EXPECT_EQ(hopeless.cached_bound("f", 1000.0), 0.0);
}

std::uint64_t retrain_fallbacks() {
  return telemetry::global().counter("engine.retrain_fallbacks").value();
}

TEST(Engine, RetrainStartsFromTheLanding) {
  // A carried bound that misses the band retrains from where it landed,
  // through tune() and compress() alike: on a smooth field the secant
  // settles within ρt·ε/4 and Algorithm 2 never runs, so no fallback counts.
  const EngineConfig config = fast_config("sz");
  const double target = config.tuner.target_ratio;
  const double bound = in_band_bound(config);
  ASSERT_GT(bound, 0.0);
  for (const bool through_tune : {false, true}) {
    Engine engine(config);
    engine.bound_store()->put("f", target, bound * 1e-3);
    const std::uint64_t fallbacks = retrain_fallbacks();
    double ratio = 0;
    if (through_tune) {
      const auto tuned = engine.tune("f", test_field().view());
      ASSERT_TRUE(tuned.ok());
      EXPECT_FALSE(tuned.value().from_prediction);
      EXPECT_TRUE(tuned.value().regions.empty());
      // The landing's probe, then at most 8 secant probes.
      EXPECT_LE(tuned.value().compress_calls, 9);
      ratio = tuned.value().achieved_ratio;
    } else {
      Buffer out;
      CompressOutcome outcome;
      ASSERT_TRUE(engine.compress("f", test_field().view(), out, &outcome).ok());
      EXPECT_TRUE(outcome.retrained);
      EXPECT_LE(engine.stats().tuner_probe_calls, 8u);
      ratio = outcome.achieved_ratio;
    }
    EXPECT_LE(std::abs(ratio - target), target * config.tuner.epsilon / 4) << through_tune;
    EXPECT_EQ(engine.stats().retrains, 1u);
    EXPECT_GT(engine.cached_bound("f"), bound * 1e-3) << through_tune;
    if (telemetry::enabled()) {
      EXPECT_EQ(retrain_fallbacks(), fallbacks) << through_tune;
    }
  }

  // No bound compresses this field 1000×: the secant finds nothing in band
  // and the retrain falls back to Algorithm 2, which counts.  A cold search
  // (nothing carried) is not a fallback.
  Engine hopeless(fast_config("sz", 1000.0));
  const std::uint64_t fallbacks = retrain_fallbacks();
  ASSERT_TRUE(hopeless.tune("g", test_field().view()).ok());
  hopeless.bound_store()->put("f", 1000.0, bound);
  const auto tuned = hopeless.tune("f", test_field().view());
  ASSERT_TRUE(tuned.ok());
  EXPECT_FALSE(tuned.value().regions.empty());
  if (telemetry::enabled()) {
    EXPECT_EQ(retrain_fallbacks(), fallbacks + 1);
  }
}

TEST(Engine, FlatRetrainsSpendOneProbe) {
  // fpc is lossless, and zeros compress to one size at every bound on a
  // zero_size_flat backend: a retrain after a missed landing spends one
  // probe, whether the landing came from tune()'s probe or compress()'s
  // archive.
  const NdArray zeros(DType::kFloat32, {37, 41});
  struct Case {
    const char* backend;
    const NdArray data;
  };
  for (const Case& c : {Case{"fpc", test_field()}, Case{"sz", zeros}}) {
    for (const bool through_tune : {false, true}) {
      Engine engine(fast_config(c.backend, 8.0));
      engine.bound_store()->put("f", 8.0, 1e-3);
      if (through_tune) {
        const auto tuned = engine.tune("f", c.data.view());
        ASSERT_TRUE(tuned.ok());
        ASSERT_FALSE(tuned.value().from_prediction) << c.backend;
      } else {
        Buffer out;
        CompressOutcome outcome;
        ASSERT_TRUE(engine.compress("f", c.data.view(), out, &outcome).ok());
        ASSERT_TRUE(outcome.retrained) << c.backend;
      }
      // tune()'s landing is a probe too.
      EXPECT_EQ(engine.stats().tuner_probe_calls + engine.stats().probe_cache_hits,
                through_tune ? 2u : 1u)
          << c.backend << " " << through_tune;
    }
  }
}

TEST(Engine, TuneDropsABoundWhoseRetrainEndsBelowTheBand) {
  // Fig. 6a (bench_fig6_convergence's bad case): CLOUDf's ratio drifts down
  // until step 4's carried bound lands below the band and no bound under U
  // reaches it again.  Step 4's retrain ends below the band, so it carries
  // nothing, through tune() and through compress() alike; step 5 then
  // searches without first re-measuring step 0's stale bound.
  const auto ds = data::dataset_by_name("hurricane", data::SuiteScale::kSmall);
  const auto steps = data::generate_series(data::field_by_name(ds, "CLOUDf"), 6);
  EngineConfig config;
  config.compressor = "sz";
  config.tuner.target_ratio = 15.0;
  config.tuner.epsilon = 0.1;
  config.tuner.regions = 8;
  config.tuner.max_evals_per_region = 16;
  config.tuner.max_error_bound = 1.0e-5;
  // What a search alone spends on step 5 (cache hits included).
  auto sz = pressio::registry().create("sz");
  const int step5_search = Tuner(*sz, config.tuner).tune(steps[5].view()).compress_calls;

  for (const bool through_tune : {true, false}) {
    Engine engine(config);
    Buffer out;
    for (std::size_t s = 0; s < steps.size(); ++s) {
      const std::size_t compressions = engine.stats().compress_calls;
      const std::size_t probes =
          engine.stats().tuner_probe_calls + engine.stats().probe_cache_hits;
      bool retrained = false;
      if (through_tune) {
        const auto tuned = engine.tune("CLOUDf", steps[s].view());
        ASSERT_TRUE(tuned.ok()) << tuned.status().to_string();
        retrained = !tuned.value().from_prediction;
        if (s == 4) {
          EXPECT_LT(tuned.value().achieved_ratio, 15.0 * 0.9);
        }
      } else {
        CompressOutcome outcome;
        ASSERT_TRUE(engine.compress("CLOUDf", steps[s].view(), out, &outcome).ok());
        retrained = outcome.retrained;
        if (s == 4) {
          EXPECT_FALSE(outcome.in_band);
        }
        if (s == 5) {
          EXPECT_EQ(engine.stats().compress_calls, compressions + 1) << "no warm archive";
        }
      }
      if (s == 4) {
        EXPECT_TRUE(retrained) << through_tune;
        EXPECT_EQ(engine.cached_bound("CLOUDf"), 0.0) << through_tune;
      }
      if (s == 5) {
        EXPECT_TRUE(retrained) << through_tune;
        const std::size_t spent =
            engine.stats().tuner_probe_calls + engine.stats().probe_cache_hits - probes;
        EXPECT_EQ(spent, static_cast<std::size_t>(step5_search)) << through_tune;
      }
    }
  }
}

TEST(Engine, TuneMeasuresEachStepOfALargeFieldOnItsOwnBytes) {
  // Two steps of a field over 1 MiB that agree in 64 evenly spaced 256-byte
  // windows (first at offset 0, last flush with the end) and differ
  // everywhere else.  A probe record keyed by a hash of only those windows
  // would answer step B's probes with step A's ratios.  Each search must
  // measure its own data: B's reported ratio is what B compresses to at B's
  // bound.
  const Shape shape{300, 1024};
  const NdArray a = make_field(DType::kFloat32, shape);
  NdArray b = a;
  const std::size_t size = a.size_bytes();
  constexpr std::size_t kWindows = 64, kWindowBytes = 256;
  ASSERT_GT(size, std::size_t{1} << 20);
  std::vector<bool> windowed(size, false);
  for (std::size_t w = 0; w < kWindows; ++w) {
    const std::size_t start = (size - kWindowBytes) * w / (kWindows - 1);
    std::fill(windowed.begin() + start, windowed.begin() + start + kWindowBytes, true);
  }
  float* values = b.typed<float>();
  std::uint32_t h = 12345;
  for (std::size_t i = 0; i < b.elements(); ++i) {
    h = h * 1664525u + 1013904223u;
    const std::size_t byte = i * sizeof(float);
    if (std::none_of(windowed.begin() + byte, windowed.begin() + byte + sizeof(float),
                     [](bool in) { return in; }))
      values[i] += 8.0f * (static_cast<float>(h >> 8) / 16777216.0f - 0.5f);
  }

  auto sz = pressio::registry().create("sz");
  Buffer archive;
  const auto ratio_at = [&](const NdArray& data, double bound) {
    sz->set_error_bound(bound);
    sz->compress_into(data.view(), archive).throw_if_error();
    return static_cast<double>(data.size_bytes()) / static_cast<double>(archive.size());
  };
  Engine engine(fast_config("sz", 10.0));
  const auto step_a = engine.tune("step", a.view());
  ASSERT_TRUE(step_a.ok()) << step_a.status().to_string();
  ASSERT_NE(ratio_at(b, step_a.value().error_bound), step_a.value().achieved_ratio)
      << "the steps must compress differently at A's bound";
  const auto step_b = engine.tune("step", b.view());
  ASSERT_TRUE(step_b.ok()) << step_b.status().to_string();
  EXPECT_EQ(step_b.value().achieved_ratio, ratio_at(b, step_b.value().error_bound));
}

// ------------------------------------------------ registry config creation

TEST(Options, CoercionRejectsOutOfRangeValues) {
  pressio::Options o;
  o.set("big", std::int64_t{5'000'000'000});
  o.set("neg", std::int64_t{-1});
  o.set("huge", 1e19);
  EXPECT_THROW(o.get<int>("big"), InvalidArgument);       // would wrap
  EXPECT_THROW(o.get<unsigned>("neg"), InvalidArgument);  // would wrap to 2^32-1
  EXPECT_THROW(o.get<std::int64_t>("huge"), InvalidArgument);  // above int64 range
  EXPECT_DOUBLE_EQ(o.get<double>("big"), 5e9);  // widening stays fine
}

TEST(Registry, CreateWithOptionsAppliesThem) {
  auto c = pressio::registry().create("sz", pressio::Options{{"sz:error_bound", 0.75}});
  EXPECT_DOUBLE_EQ(c->error_bound(), 0.75);
}

TEST(Registry, TryCreateReturnsStatusInsteadOfThrowing) {
  const auto unknown = pressio::registry().try_create("lzma");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kUnsupported);

  const auto bad_option =
      pressio::registry().try_create("sz", pressio::Options{{"sz:error_bound", -1.0}});
  ASSERT_FALSE(bad_option.ok());
  EXPECT_EQ(bad_option.status().code(), StatusCode::kInvalidArgument);

  auto ok = pressio::registry().try_create("zfp");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value()->name(), "zfp");
}

}  // namespace
}  // namespace fraz
