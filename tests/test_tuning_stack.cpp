/// Tests for the unified tuning stack: the ask/tell SearchState (pinned
/// bit-identical to the historical callback loop), the ProbeExecutor and its
/// per-search memo, the lockstep Tuner's thread-count invariance, the shared
/// BoundStore, and the probe-budget regression gate on the Fig. 6 workload.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <iterator>

#include "core/probe.hpp"
#include "core/tuner.hpp"
#include "data/datasets.hpp"
#include "engine/bound_store.hpp"
#include "engine/engine.hpp"
#include "opt/global_search.hpp"
#include "opt/thread_pool.hpp"
#include "pressio/registry.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/seed.hpp"

namespace fraz {
namespace {

using testhelpers::make_field;

/// One bound-store checkpoint file, removed on scope exit.
struct TempBoundFile {
  std::string path = "fraz_test_bound_store.tmp";
  ~TempBoundFile() { std::remove(path.c_str()); }
};

// ------------------------------------------------------- ask/tell stepper

TEST(SearchState, MatchesHistoricalLoopBitForBit) {
  // Golden history recorded from the pre-refactor callback implementation
  // (seed 99, 24 calls, f(x) = cos(3x) + 0.1 x^2 over [-5, 5]).  The ask/tell
  // stepper must replay it exactly: the refactor moved state, not math.
  const std::pair<double, double> golden[] = {
      {-0x1.a0d45c33a989cp+1, 0x1.e88fbb4d7a4fp-4},
      {-0x1.4p+2, 0x1.bd8517cb1ad86p+0},
      {0x1.4p+2, 0x1.bd8517cb1ad86p+0},
      {0x1.285bbdfd82aep-3, 0x1.d1945dae66986p-1},
      {-0x1.08f8e0081b714p+1, 0x1.6d0608b5b2da6p+0},
      {0x1.2730d2f3e8cap+1, 0x1.5632b42c6e63cp+0},
      {-0x1.ba93f69037d1p+1, 0x1.39840b8dafa2bp-1},
      {0x1.d18c4072569acp+1, 0x1.3d180486c145dp+0},
      {-0x1.706e87d8dc26ep+1, 0x1.fd9afb835415p-4},
      {-0x1.b80e191be6e4p-1, -0x1.8b1d7c3b43f61p-1},
      {-0x1.c700a88d1e045p-1, -0x1.9ec04dd0e8c96p-1},
      {0x1.2f55783d58098p+0, -0x1.8d0bf98df1b71p-1},
      {-0x1.1f4104fb2e925p+0, -0x1.b2ab08a751438p-1},
      {0x1.f710654fa1f98p-1, -0x1.c4f8c2a46e9c4p-1},
      {0x1.f54090d0dfa4ap-1, -0x1.c4404eb4a2e93p-1},
      {-0x1.30be6f82cfc88p-1, -0x1.6c01a24c93a7fp-3},
      {0x1.06422278305abp+0, -0x1.c912ef96f0edep-1},
      {0x1.5c75d45f65be8p+0, -0x1.9c9f853c1093cp-2},
      {0x1.06447d7e33a64p+0, -0x1.c912ef0a77b47p-1},
      {-0x1.0101f2a6d8d4p+0, -0x1.c81712abb2379p-1},
      {0x1.06400cf996f2cp+0, -0x1.c912efbe4b951p-1},
      {-0x1.396ba4be0c234p+0, -0x1.6cace4815ed9cp-1},
      {0x1.06400f4da610bp+0, -0x1.c912efbe4bf51p-1},
      {-0x1.0259974c59faap+2, 0x1.437c72bba16a8p+1},
  };
  opt::SearchOptions options;
  options.seed = 99;
  options.max_calls = 24;
  const auto r = opt::find_min_global(
      [](double x) { return std::cos(3 * x) + 0.1 * x * x; }, -5, 5, options);
  ASSERT_EQ(r.history.size(), std::size(golden));
  for (std::size_t i = 0; i < std::size(golden); ++i) {
    EXPECT_EQ(r.history[i].first, golden[i].first) << i;
    EXPECT_EQ(r.history[i].second, golden[i].second) << i;
  }
  EXPECT_EQ(r.best_x, 0x1.06400f4da610bp+0);
  EXPECT_EQ(r.best_f, -0x1.c912efbe4bf51p-1);
  EXPECT_EQ(r.calls, 24);
}

TEST(SearchState, ManualDriveEqualsWrapper) {
  const auto f = [](double x) { return std::sin(7 * x) + 0.02 * x * x; };
  opt::SearchOptions options;
  options.max_calls = 40;
  options.seed = 1234;
  const auto wrapped = opt::find_min_global(f, -3, 9, options);

  opt::SearchState state(-3, 9, options);
  double x;
  while (state.ask(x)) state.tell(x, f(x));
  EXPECT_TRUE(state.done());
  EXPECT_EQ(state.result().history, wrapped.history);
  EXPECT_EQ(state.result().best_x, wrapped.best_x);
  EXPECT_EQ(state.result().calls, wrapped.calls);
}

TEST(SearchState, AskIsIdempotentUntilTold) {
  opt::SearchState state(0, 1, {});
  double a = -1, b = -2;
  ASSERT_TRUE(state.ask(a));
  ASSERT_TRUE(state.ask(b));
  EXPECT_EQ(a, b);  // an outstanding proposal is stable across re-asks
  state.tell(a, 0.5);
  double c = a;
  ASSERT_TRUE(state.ask(c));
  EXPECT_NE(c, a);
}

TEST(SearchState, TellValidatesTheProposal) {
  opt::SearchState state(0, 1, {});
  EXPECT_THROW(state.tell(0.5, 1.0), InvalidArgument);  // nothing pending
  double x;
  ASSERT_TRUE(state.ask(x));
  EXPECT_THROW(state.tell(x + 0.25, 1.0), InvalidArgument);  // wrong x
  state.tell(x, 1.0);  // the real proposal is still answerable
}

TEST(SearchState, CutoffFinishesTheSearch) {
  opt::SearchOptions options;
  options.max_calls = 100;
  options.cutoff = 0.75;
  opt::SearchState state(0, 1, options);
  double x;
  ASSERT_TRUE(state.ask(x));
  state.tell(x, 0.5);  // below the cutoff on the first observation
  EXPECT_TRUE(state.done());
  EXPECT_TRUE(state.result().hit_cutoff);
  EXPECT_FALSE(state.ask(x));
}

// ------------------------------------------------------------ probe memo

/// Clones every CloneCountingSz instance has made.
std::atomic<int> g_sz_clones{0};
/// While set, every CloneCountingSz compression fails.
std::atomic<bool> g_sz_fail{false};

/// sz that counts its clones and fails on demand: probes that throw must
/// still return their worker context to the executor's idle pool.
class CloneCountingSz final : public pressio::Compressor {
public:
  CloneCountingSz() : inner_(pressio::registry().create("sz")) {}
  CloneCountingSz(const CloneCountingSz& other) : inner_(other.inner_->clone()) {}

  std::string name() const override { return "sz-clone-counting"; }
  pressio::Capabilities capabilities() const override { return inner_->capabilities(); }
  pressio::Options get_options() const override { return inner_->get_options(); }
  void set_options(const pressio::Options& options) override { inner_->set_options(options); }
  void set_error_bound(double bound) override { inner_->set_error_bound(bound); }
  double error_bound() const override { return inner_->error_bound(); }
  Status compress_into(const ArrayView& input, Buffer& out) const noexcept override {
    if (g_sz_fail) return Status::unsupported("sz-clone-counting: injected failure");
    return inner_->compress_into(input, out);
  }
  Status decompress_into(const std::uint8_t* data, std::size_t size,
                         NdArray& out) const noexcept override {
    return inner_->decompress_into(data, size, out);
  }
  pressio::CompressorPtr clone() const override {
    ++g_sz_clones;
    return std::make_unique<CloneCountingSz>(*this);
  }

private:
  pressio::CompressorPtr inner_;
};

TEST(ProbeExecutor, AThrowingProbeReturnsItsContext) {
  const CloneCountingSz prototype;
  const NdArray field = make_field(DType::kFloat32, {32, 32});
  ProbeExecutor executor(prototype, 1);
  ProbeMemo memo;

  g_sz_fail = true;
  const int before = g_sz_clones;
  EXPECT_ANY_THROW(executor.probe_ratio(field.view(), memo, 0.5));
  EXPECT_EQ(g_sz_clones, before + 1);  // the one worker context
  EXPECT_ANY_THROW(executor.probe_ratios(field.view(), memo, {0.25, 0.125}));
  EXPECT_ANY_THROW(executor.probe_quality(field.view(), memo, 0.5, QualityMetric::kPsnrDb));
  EXPECT_TRUE(memo.empty()) << "a failed probe was remembered";
  g_sz_fail = false;
  EXPECT_FALSE(executor.probe_ratio(field.view(), memo, 0.5).from_memo);
  EXPECT_EQ(g_sz_clones, before + 1) << "a failed probe leaked its worker context";
  EXPECT_EQ(executor.executed(), 1u);
}

TEST(ProbeExecutor, BatchDeduplicatesAndAlignsResults) {
  auto compressor = pressio::registry().create("sz");
  const NdArray field = make_field(DType::kFloat32, {32, 32});
  ProbeExecutor executor(*compressor, 4);
  ProbeMemo memo;

  const std::vector<double> bounds{0.25, 0.5, 0.25, 1.0, 0.5};
  const auto outcomes = executor.probe_ratios(field.view(), memo, bounds);
  ASSERT_EQ(outcomes.size(), bounds.size());
  EXPECT_EQ(executor.executed(), 3u);  // three unique bounds
  EXPECT_EQ(memo.size(), 3u);
  EXPECT_EQ(outcomes[0].record.ratio, outcomes[2].record.ratio);
  EXPECT_EQ(outcomes[1].record.ratio, outcomes[4].record.ratio);
  EXPECT_FALSE(outcomes[0].from_memo);
  EXPECT_TRUE(outcomes[2].from_memo);
  EXPECT_TRUE(outcomes[4].from_memo);
  for (const auto& o : outcomes) EXPECT_GT(o.record.ratio, 0.0);

  // A later round of the same search pays only for the bounds it lacks.
  const auto next = executor.probe_ratios(field.view(), memo, {1.0, 2.0});
  EXPECT_TRUE(next[0].from_memo);
  EXPECT_EQ(next[0].record.ratio, outcomes[3].record.ratio);
  EXPECT_FALSE(next[1].from_memo);
  EXPECT_EQ(executor.executed(), 4u);

  // Another search starts from an empty memo: nothing carries over.
  ProbeMemo other;
  EXPECT_FALSE(executor.probe_ratio(field.view(), other, 0.25).from_memo);
  EXPECT_EQ(executor.executed(), 5u);
}

TEST(ProbeExecutor, BatchesFromEveryThreadOfABusyPoolComplete) {
  // Every worker of a small pool issues a threads=4 batch at once.  The
  // helpers go to that same (fully busy) pool, so each batch completes only
  // because its caller claims probes itself — a fan-out that waited on
  // futures from its own pool would hang here.  The ratios must equal a
  // threads=1 executor's.
  auto compressor = pressio::registry().create("sz");
  const NdArray field = make_field(DType::kFloat32, {32, 32});
  ProbeExecutor parallel(*compressor, 4);
  ProbeExecutor serial(*compressor, 1);
  constexpr unsigned kThreads = 3;
  std::vector<std::vector<double>> bounds(kThreads);
  for (unsigned t = 0; t < kThreads; ++t)
    for (unsigned k = 0; k < 6; ++k) bounds[t].push_back(0.005 * (1 + t + kThreads * k));

  ThreadPool pool(kThreads);
  std::atomic<unsigned> started{0};
  std::vector<std::future<std::vector<ProbeOutcome>>> batches;
  for (unsigned t = 0; t < kThreads; ++t)
    batches.push_back(pool.submit([&, t] {
      ++started;
      while (started.load() < kThreads) std::this_thread::yield();
      ProbeMemo memo;
      return parallel.probe_ratios(field.view(), memo, bounds[t]);
    }));
  for (unsigned t = 0; t < kThreads; ++t) {
    const std::vector<ProbeOutcome> got = batches[t].get();
    ProbeMemo memo;
    const std::vector<ProbeOutcome> want = serial.probe_ratios(field.view(), memo, bounds[t]);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < got.size(); ++k)
      EXPECT_EQ(got[k].record.ratio, want[k].record.ratio) << "thread " << t << ", probe " << k;
  }
  EXPECT_EQ(parallel.executed(), serial.executed());
}

// ------------------------------------------------- lockstep determinism

TEST(Tuner, TunedBoundsBitIdenticalAcrossThreadCounts) {
  // The lockstep rounds make the winning region — and therefore the tuned
  // bound — independent of probe parallelism.  The seed implementation only
  // guaranteed this for threads == 1.
  const auto ds = data::dataset_by_name("hurricane", data::SuiteScale::kTiny);
  const NdArray field = data::generate_field(data::field_by_name(ds, "TCf"), 0);
  auto compressor = pressio::registry().create("sz");

  TunerConfig serial;
  serial.target_ratio = 7.0;
  serial.threads = 1;
  TunerConfig parallel = serial;
  parallel.threads = 4;

  const TuneResult s = Tuner(*compressor, serial).tune(field.view());
  const TuneResult p = Tuner(*compressor, parallel).tune(field.view());
  EXPECT_EQ(s.error_bound, p.error_bound);
  EXPECT_EQ(s.achieved_ratio, p.achieved_ratio);
  EXPECT_EQ(s.compress_calls, p.compress_calls);
  EXPECT_TRUE(s.feasible);
}

// ------------------------------------------------------------ BoundStore

TEST(BoundStore, KeyedByFieldAndTarget) {
  BoundStore store;
  EXPECT_EQ(store.get("a", 10.0), 0.0);
  store.put("a", 10.0, 0.5);
  store.put("a", 5.0, 0.25);
  store.put("b", 10.0, 0.75);
  EXPECT_EQ(store.get("a", 10.0), 0.5);
  EXPECT_EQ(store.get("a", 5.0), 0.25);
  EXPECT_EQ(store.get("b", 10.0), 0.75);
  EXPECT_EQ(store.size(), 3u);
  store.put("a", 10.0, -1.0);  // non-positive bounds are ignored
  EXPECT_EQ(store.get("a", 10.0), 0.5);
  store.erase("a", 10.0);
  EXPECT_EQ(store.get("a", 10.0), 0.0);
  store.clear();
  EXPECT_EQ(store.size(), 0u);
}

TEST(BoundStore, SharedAcrossEnginesWarmStartsSiblings) {
  // The archive writer's pattern: worker Engines adopt one store, so a bound
  // tuned by one sibling warm-starts the others (deterministically, because
  // each consumer uses its own keys — here the same key on identical data).
  const NdArray field = make_field(DType::kFloat32, {37, 41});
  EngineConfig config;
  config.compressor = "sz";
  config.tuner.target_ratio = 5.0;
  config.tuner.threads = 1;

  Engine a(config);
  Engine b(config);
  const auto store = std::make_shared<BoundStore>();
  a.adopt_bound_store(store);
  b.adopt_bound_store(store);

  const auto trained = a.tune("field", field.view());
  ASSERT_TRUE(trained.ok());
  ASSERT_TRUE(trained.value().feasible);
  EXPECT_EQ(b.cached_bound("field"), trained.value().error_bound);

  const auto warm = b.tune("field", field.view());
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().from_prediction);
  EXPECT_EQ(warm.value().compress_calls, 1);
  EXPECT_EQ(warm.value().error_bound, trained.value().error_bound);
}

// ----------------------------------------------- probe budget regression

TEST(Engine, Fig6WorkloadSpendsNoMoreProbesThanTheSeedImplementation) {
  // Regression gate for the unified stack's headline claim: on the Fig. 6
  // convergence workload (Hurricane CLOUDf series, target 8, 8 regions x 16
  // evals) the seed implementation spent 190 probes serial / ~158 at 4
  // threads (measured at the refactor).  The lockstep rounds + per-search
  // memo must never regress past the seed's best case; at the refactor they
  // spent 79.
  const auto ds = data::dataset_by_name("hurricane", data::SuiteScale::kTiny);
  const auto spec = data::field_by_name(ds, "CLOUDf");
  const auto arrays = data::generate_series(spec, 8);

  EngineConfig config;
  config.compressor = "sz";
  config.tuner.target_ratio = 8.0;
  config.tuner.epsilon = 0.1;
  config.tuner.regions = 8;
  config.tuner.max_evals_per_region = 16;
  config.tuner.threads = 4;
  Engine engine(config);
  for (const auto& step : arrays) {
    const auto tuned = engine.tune("CLOUDf", step.view());
    ASSERT_TRUE(tuned.ok()) << tuned.status().to_string();
    if (tuned.value().feasible) {
      EXPECT_TRUE(ratio_acceptable(tuned.value().achieved_ratio, 8.0, 0.1));
    }
  }
  EXPECT_LE(engine.stats().tuner_probe_calls, 158u)
      << "unified tuning stack spends more probes than the seed implementation";
  EXPECT_GE(engine.stats().warm_hits, arrays.size() / 2)
      << "warm-start reuse regressed on a mildly drifting series";
}

TEST(BoundStore, SaveLoadRoundTripsBitExactly) {
  TempBoundFile tmp;
  BoundStore store;
  store.put("CLOUD", 10.0, 1.25e-3);
  store.put("CLOUD", 20.0, 7.5e-4);
  store.put("archive:data:chunk:3", 10.0, 0x1.fff3p-11);
  ASSERT_TRUE(store.save(tmp.path).ok());

  BoundStore restored;
  restored.put("stale", 1.0, 0.5);  // replaced wholesale by load
  const Status loaded = restored.load(tmp.path);
  ASSERT_TRUE(loaded.ok()) << loaded.to_string();
  EXPECT_EQ(restored.size(), 3u);
  EXPECT_EQ(restored.get("stale", 1.0), 0.0);
  EXPECT_EQ(restored.get("CLOUD", 10.0), 1.25e-3);
  EXPECT_EQ(restored.get("CLOUD", 20.0), 7.5e-4);
  EXPECT_EQ(restored.get("archive:data:chunk:3", 10.0), 0x1.fff3p-11);
}

TEST(BoundStore, AboveBandEntriesAreCarriedButNotSaved) {
  BoundStore store;
  store.put("CLOUD", 10.0, 1.25e-3);
  store.put("archive:CLOUDf:chunk:0", 10.0, 4.5e-10, /*above_band=*/true);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.get("archive:CLOUDf:chunk:0", 10.0), 4.5e-10);
  EXPECT_TRUE(store.carried("archive:CLOUDf:chunk:0", 10.0).above_band);
  EXPECT_FALSE(store.carried("CLOUD", 10.0).above_band);

  // The 'FRzB' v1 block carries in-band bounds only: the block is the one a
  // store without the above-band entry writes, so a restored campaign
  // searches that key once and carries its bound from then on.
  BoundStore in_band_only;
  in_band_only.put("CLOUD", 10.0, 1.25e-3);
  Buffer block;
  Buffer want;
  store.serialize(block);
  in_band_only.serialize(want);
  ASSERT_EQ(block.size(), want.size());
  EXPECT_EQ(std::memcmp(block.data(), want.data(), want.size()), 0);
  BoundStore restored;
  ASSERT_TRUE(restored.deserialize(block.data(), block.size()).ok());
  EXPECT_EQ(restored.size(), 1u);
  EXPECT_EQ(restored.get("archive:CLOUDf:chunk:0", 10.0), 0.0);
  EXPECT_EQ(restored.get("CLOUD", 10.0), 1.25e-3);

  // A plain put clears the flag.
  store.put("archive:CLOUDf:chunk:0", 10.0, 4.5e-10);
  EXPECT_FALSE(store.carried("archive:CLOUDf:chunk:0", 10.0).above_band);

  // The checked-in fuzz corpus block still loads and writes back bit-exactly.
  std::ifstream in(std::string(FRAZ_TEST_CORPUS_DIR) + "/bound_store/bounds.frzb",
                   std::ios::binary);
  const std::vector<std::uint8_t> corpus{std::istreambuf_iterator<char>(in),
                                         std::istreambuf_iterator<char>()};
  ASSERT_FALSE(corpus.empty());
  BoundStore loaded;
  ASSERT_TRUE(loaded.deserialize(corpus.data(), corpus.size()).ok());
  EXPECT_EQ(loaded.size(), 3u);
  Buffer again;
  loaded.serialize(again);
  ASSERT_EQ(again.size(), corpus.size());
  EXPECT_EQ(std::memcmp(again.data(), corpus.data(), corpus.size()), 0);
}

TEST(BoundStore, EmptyStoreRoundTrips) {
  // A campaign may checkpoint before any tuning (or after clear()); the
  // empty block is a valid checkpoint, not corruption.
  TempBoundFile tmp;
  BoundStore empty;
  ASSERT_TRUE(empty.save(tmp.path).ok());
  BoundStore restored;
  restored.put("stale", 1.0, 0.5);
  const Status loaded = restored.load(tmp.path);
  ASSERT_TRUE(loaded.ok()) << loaded.to_string();
  EXPECT_EQ(restored.size(), 0u);
}

TEST(BoundStore, CorruptOrMissingFilesLoadAsStatusesNotThrows) {
  TempBoundFile tmp;
  BoundStore store;
  store.put("f", 10.0, 1e-3);

  // Missing file: IoError.
  const Status missing = store.load("fraz_test_definitely_missing_bounds.tmp");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.code(), StatusCode::kIoError);
  EXPECT_EQ(store.get("f", 10.0), 1e-3) << "failed load must not clear the store";

  ASSERT_TRUE(store.save(tmp.path).ok());
  // Corrupt every byte position in turn: load must return CorruptStream and
  // leave the store untouched — never throw, never half-load.
  Buffer block;
  store.serialize(block);
  for (std::size_t i = 0; i < block.size(); ++i) {
    Buffer bad;
    bad.append(block.data(), block.size());
    bad.data()[i] ^= 0x5a;
    BoundStore victim;
    victim.put("keep", 2.0, 0.25);
    const Status s = victim.deserialize(bad.data(), bad.size());
    ASSERT_FALSE(s.ok()) << "byte " << i;
    EXPECT_EQ(victim.get("keep", 2.0), 0.25) << "byte " << i;
  }
  // Truncations too.
  for (const std::size_t keep : {std::size_t{0}, std::size_t{4}, block.size() - 1}) {
    BoundStore victim;
    EXPECT_FALSE(victim.deserialize(block.data(), keep).ok()) << keep;
  }
}

TEST(Engine, PerFieldStatsTrackEachStream) {
  const NdArray cloud = make_field(DType::kFloat32, {24, 18});
  const NdArray wind = make_field(DType::kFloat32, {24, 18}, 30.0);
  Engine engine([] {
    EngineConfig config;
    config.compressor = "sz";
    config.tuner.target_ratio = 5.0;
    return config;
  }());
  Buffer out;
  ASSERT_TRUE(engine.compress("CLOUD", cloud.view(), out).ok());
  ASSERT_TRUE(engine.compress("CLOUD", cloud.view(), out).ok());
  ASSERT_TRUE(engine.compress("WIND", wind.view(), out).ok());

  const auto& per_field = engine.field_stats();
  ASSERT_EQ(per_field.count("CLOUD"), 1u);
  ASSERT_EQ(per_field.count("WIND"), 1u);
  EXPECT_EQ(per_field.at("CLOUD").compress_calls, 2u);
  EXPECT_EQ(per_field.at("WIND").compress_calls, 1u);
  EXPECT_GE(per_field.at("CLOUD").warm_hits, 1u)
      << "the second identical CLOUD frame should warm-start";
  EXPECT_GE(per_field.at("WIND").retrains, 1u)
      << "WIND is a different stream and pays its own training";
  // The per-field slices sum to the aggregate counters.
  std::size_t tunes = 0;
  for (const auto& [name, stats] : per_field) tunes += stats.tunes;
  EXPECT_EQ(tunes, engine.stats().tunes);
}

TEST(Engine, StatsSplitExecutedProbesFromCacheHits) {
  // A search for an unreachable ratio spends the budgets of the regions
  // around its closest probe, and they re-propose bounds the search already
  // evaluated; the search's memo answers those without a compression.  The Engine books executed
  // probes and memo hits apart; together they are every probe the search
  // consumed.
  const auto ds = data::dataset_by_name("hurricane", data::SuiteScale::kTiny);
  const NdArray field = data::generate_field(data::field_by_name(ds, "CLOUDf"), 0);
  EngineConfig config;
  config.compressor = "sz";
  config.tuner.target_ratio = 500.0;
  config.tuner.regions = 8;
  config.tuner.max_evals_per_region = 16;
  config.tuner.threads = 2;
  Engine engine(config);
  const auto tuned = engine.tune("f", field.view());
  ASSERT_TRUE(tuned.ok()) << tuned.status().to_string();
  const TuneResult& result = tuned.value();
  ASSERT_FALSE(result.from_prediction);
  EXPECT_GE(result.probe_cache_hits, 1) << "the search must re-propose a bound";
  int region_hits = 0;
  for (const RegionOutcome& region : result.regions) region_hits += region.cache_hits;
  EXPECT_EQ(region_hits, result.probe_cache_hits);
  EXPECT_EQ(engine.stats().probe_cache_hits, static_cast<std::size_t>(result.probe_cache_hits));
  EXPECT_EQ(engine.stats().tuner_probe_calls,
            static_cast<std::size_t>(result.compress_calls - result.probe_cache_hits));

  // A memo lives for one search: the same search again splits alike, so it
  // executes every probe it did the first time.
  auto sz = pressio::registry().create("sz");
  const TuneResult again = Tuner(*sz, config.tuner).tune(field.view());
  EXPECT_EQ(again.compress_calls, result.compress_calls);
  EXPECT_EQ(again.probe_cache_hits, result.probe_cache_hits);
}

}  // namespace
}  // namespace fraz
