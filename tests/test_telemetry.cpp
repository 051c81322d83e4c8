/// Telemetry-layer tests: histogram bucket layout and quantile semantics
/// (exact boundaries, empty/one-sample, merge), concurrent counter
/// correctness under an 8-thread hammer, the kill-switch, registry
/// exposition shape, span/trace plumbing, and the hard observation-only
/// guarantee: packing with telemetry on and off yields byte-identical
/// archives.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "archive/archive.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/telemetry.hpp"
#include "test_helpers.hpp"

namespace fraz {
namespace {

using archive::ArchiveWriter;
using archive::ArchiveWriteConfig;
using telemetry::Counter;
using telemetry::Gauge;
using telemetry::Histogram;
using testhelpers::make_field;

/// Restore the kill-switch state on scope exit, whatever the test did.
class EnabledGuard {
public:
  EnabledGuard() : was_(telemetry::enabled()) {}
  ~EnabledGuard() { telemetry::set_enabled(was_); }

private:
  bool was_;
};

/// Files created by one test, removed on scope exit.
class TempFiles {
public:
  ~TempFiles() {
    for (const std::string& path : paths_) std::remove(path.c_str());
  }
  std::string make(const std::string& name) {
    paths_.push_back("fraz_test_" + name + ".tmp");
    return paths_.back();
  }

private:
  std::vector<std::string> paths_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// ---------------------------------------------------------- histogram layout

TEST(Histogram, BucketBoundariesArePinned) {
  // Bucket 0 is the value 0; bucket b holds [2^(b-1), 2^b - 1]; bucket 63
  // is the overflow bucket.  These are exact layout pins — changing them
  // silently changes every exported quantile.
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(7), 3u);
  EXPECT_EQ(Histogram::bucket_of(8), 4u);
  EXPECT_EQ(Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(Histogram::bucket_of(UINT64_MAX), 63u);

  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    // Every bucket's own bounds land back in it, and the bounds tile the
    // value axis with no gap or overlap.
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lower(b)), b) << b;
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_upper(b)), b) << b;
    if (b + 1 < Histogram::kBuckets) {
      EXPECT_EQ(Histogram::bucket_upper(b) + 1, Histogram::bucket_lower(b + 1)) << b;
    }
  }
  EXPECT_EQ(Histogram::bucket_lower(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper(Histogram::kBuckets - 1), UINT64_MAX);
}

TEST(Histogram, EmptyAndOneSampleQuantiles) {
  EnabledGuard guard;
  telemetry::set_enabled(true);

  Histogram h;
  Histogram::Snapshot empty = h.snapshot();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.quantile(0.5), 0.0);
  EXPECT_EQ(empty.mean(), 0.0);

  // One sample reports that exact sample at every quantile (the clamp to
  // [min, max] guarantees it even though 1337 sits mid-bucket).
  h.record(1337);
  Histogram::Snapshot one = h.snapshot();
  EXPECT_EQ(one.count, 1u);
  EXPECT_EQ(one.min, 1337u);
  EXPECT_EQ(one.max, 1337u);
  for (double q : {0.0, 0.01, 0.5, 0.95, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(one.quantile(q), 1337.0) << q;
  EXPECT_DOUBLE_EQ(one.mean(), 1337.0);
}

TEST(Histogram, QuantilesOfKnownDistribution) {
  EnabledGuard guard;
  telemetry::set_enabled(true);

  // 100 distinct values 1..100: nearest-rank p50 lands in the bucket
  // holding rank 50, and interpolation keeps estimates inside the bucket.
  Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum, 5050u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 100u);
  // Rank 50 lands in bucket [32, 63]; the log2 layout bounds the estimate
  // by the landing bucket, not exact order statistics.
  EXPECT_GE(s.p50(), 32.0);
  EXPECT_LE(s.p50(), 63.0);
  // Ranks 95 and 99 land in bucket [64, 100-clamped]; p99 >= p95 >= p50.
  EXPECT_GE(s.p95(), s.p50());
  EXPECT_GE(s.p99(), s.p95());
  EXPECT_LE(s.p99(), 100.0);

  // An all-identical stream reports the common value at every quantile.
  Histogram flat;
  for (int i = 0; i < 1000; ++i) flat.record(42);
  Histogram::Snapshot fs = flat.snapshot();
  for (double q : {0.01, 0.5, 0.99})
    EXPECT_DOUBLE_EQ(fs.quantile(q), 42.0) << q;
}

TEST(Histogram, MergeAddsCountsAndWidensRange) {
  EnabledGuard guard;
  telemetry::set_enabled(true);

  Histogram low, high;
  for (std::uint64_t v = 1; v <= 10; ++v) low.record(v);
  for (std::uint64_t v = 1000; v <= 1009; ++v) high.record(v);

  Histogram::Snapshot merged = low.snapshot();
  merged.merge(high.snapshot());
  EXPECT_EQ(merged.count, 20u);
  EXPECT_EQ(merged.min, 1u);
  EXPECT_EQ(merged.max, 1009u);
  EXPECT_EQ(merged.sum, 55u + 10045u);
  // Half the mass is <= 10, so p50 stays in the low cluster's bucket range
  // and p95 climbs into the high cluster.
  EXPECT_LE(merged.p50(), 15.0);
  EXPECT_GE(merged.p95(), 512.0);

  // Merging into an empty snapshot adopts the other's min/max rather than
  // keeping the 0 sentinel.
  Histogram::Snapshot empty;
  empty.merge(high.snapshot());
  EXPECT_EQ(empty.min, 1000u);
  EXPECT_EQ(empty.max, 1009u);
  EXPECT_EQ(empty.count, 10u);
}

// ------------------------------------------------------------------ counters

TEST(Counter, EightThreadHammerIsExact) {
  EnabledGuard guard;
  telemetry::set_enabled(true);

  Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add();
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

// More simultaneous threads than exclusive cells: the extras must land on
// the shared overflow cell, and slot leases released at thread exit must
// recycle — either way the total stays exact.
TEST(Counter, MoreThreadsThanCellsStaysExact) {
  EnabledGuard guard;
  telemetry::set_enabled(true);

  Counter counter;
  constexpr int kWaves = 3;
  constexpr int kThreads = static_cast<int>(Counter::kCells) + 8;
  constexpr std::uint64_t kPerThread = 20000;
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&counter] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add();
      });
    for (std::thread& t : threads) t.join();
  }
  EXPECT_EQ(counter.value(), kWaves * kThreads * kPerThread);
}

TEST(Counter, KillSwitchStopsCounting) {
  EnabledGuard guard;
  telemetry::set_enabled(true);

  Counter counter;
  counter.add(5);
  EXPECT_EQ(counter.value(), 5u);

  telemetry::set_enabled(false);
  counter.add(100);
  EXPECT_EQ(counter.value(), 5u) << "disabled counter must freeze";

  telemetry::set_enabled(true);
  counter.add(1);
  EXPECT_EQ(counter.value(), 6u);
}

TEST(Gauge, TracksSignedLevel) {
  EnabledGuard guard;
  telemetry::set_enabled(true);

  Gauge gauge;
  gauge.add(100);
  gauge.sub(30);
  EXPECT_EQ(gauge.value(), 70);
  gauge.sub(100);
  EXPECT_EQ(gauge.value(), -30);

  telemetry::set_enabled(false);
  gauge.add(1000);
  EXPECT_EQ(gauge.value(), -30);
}

TEST(InstancedCounter, InstancesAreIndependentAndExpositionSumsThem) {
  EnabledGuard guard;
  telemetry::set_enabled(true);

  // Two objects sharing a metric name each get their own instance: the
  // per-object view is exact, the exposition reports the sum.
  Counter& a = telemetry::global().instanced_counter("test.instanced");
  Counter& b = telemetry::global().instanced_counter("test.instanced");
  ASSERT_NE(&a, &b);
  a.add(3);
  b.add(4);
  EXPECT_EQ(a.value(), 3u);
  EXPECT_EQ(b.value(), 4u);
  const std::string json = telemetry::global().to_json("test.instanced");
  EXPECT_NE(json.find("\"test.instanced\":7"), std::string::npos) << json;
}

// ------------------------------------------------------------------ registry

TEST(MetricsRegistry, JsonAndPrometheusExposition) {
  EnabledGuard guard;
  telemetry::set_enabled(true);

  telemetry::MetricsRegistry& reg = telemetry::global();
  reg.counter("test.expo.requests").add(7);
  reg.gauge("test.expo.level").add(-3);
  Histogram& h = reg.histogram("test.expo.wait_us");
  h.record(10);
  h.record(20);

  const std::string json = reg.to_json("test.expo.");
  EXPECT_NE(json.find("\"test.expo.requests\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.expo.level\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.expo.wait_us\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99_us\":"), std::string::npos) << json;
  // The prefix filter excludes everything else.
  EXPECT_EQ(json.find("serve."), std::string::npos) << json;

  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("# TYPE fraz_test_expo_requests counter"), std::string::npos);
  EXPECT_NE(prom.find("fraz_test_expo_level"), std::string::npos);
  EXPECT_NE(prom.find("fraz_test_expo_wait_us{quantile=\"0.99\"}"), std::string::npos);
  EXPECT_NE(prom.find("fraz_test_expo_wait_us_count 2"), std::string::npos);
}

TEST(MetricsRegistry, SpanRecordsOnlyWhenEnabled) {
  EnabledGuard guard;
  telemetry::set_enabled(true);

  telemetry::MetricsRegistry& reg = telemetry::global();
  Histogram& span_histogram = reg.histogram("test.span_us");
  const std::uint64_t before = span_histogram.snapshot().count;
  {
    TELEM_SPAN("test.span_us");
  }
  EXPECT_EQ(span_histogram.snapshot().count, before + 1);

  // A disabled span records nothing.
  telemetry::set_enabled(false);
  {
    TELEM_SPAN("test.span_us");
  }
  EXPECT_EQ(span_histogram.snapshot().count, before + 1);
}

// -------------------------------------------------------- observation purity

TEST(Telemetry, PackIsByteIdenticalWithTelemetryOnAndOff) {
  // The hard guarantee of the whole layer: telemetry observes, never
  // controls.  Same input, same config, telemetry on vs. off — the archive
  // files must match byte for byte.
  EnabledGuard guard;
  TempFiles tmp;
  const NdArray field = make_field(DType::kFloat32, {32, 16, 16});

  ArchiveWriteConfig config;
  config.engine.compressor = "sz";
  config.engine.tuner.target_ratio = 6.0;
  config.engine.tuner.epsilon = 0.2;
  config.chunk_extent = 4;
  config.threads = 2;

  telemetry::set_enabled(true);
  const std::string path_on = tmp.make("telemetry_on");
  auto written_on = ArchiveWriter(config).write(path_on, field.view());
  ASSERT_TRUE(written_on.ok()) << written_on.status().to_string();

  telemetry::set_enabled(false);
  const std::string path_off = tmp.make("telemetry_off");
  auto written_off = ArchiveWriter(config).write(path_off, field.view());
  ASSERT_TRUE(written_off.ok()) << written_off.status().to_string();

  const std::string bytes_on = slurp(path_on);
  const std::string bytes_off = slurp(path_off);
  ASSERT_FALSE(bytes_on.empty());
  EXPECT_EQ(bytes_on, bytes_off) << "telemetry changed produced bytes";
}

}  // namespace
}  // namespace fraz
