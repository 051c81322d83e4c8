/// Concurrent serving throughput of serve::ReaderPool — the read-side
/// subsystem's headline claim: once the decoded-chunk cache is warm, N
/// client threads re-reading an archive are bounded by memcpy, not by
/// decompression, so warm QPS clears cold QPS by a wide margin.
///
/// Two pools serve the same archive file under the same random-range
/// request mix (deterministic per-thread query streams):
///
///  - **cold**: a zero-budget cache — every request decodes its chunks,
///    the decode-per-call floor ArchiveReader alone would pay;
///  - **warm**: the default cache, pre-touched once, so every request is a
///    cache hit plus a plane-window copy.
///
/// Reported per mode: aggregate QPS and per-request latency p50/p99.  A
/// third pass re-runs the warm mix with the FRAZ_TELEMETRY_OFF kill-switch
/// engaged, so the telemetry layer's hot-path overhead is measured directly.
/// Expected shape: warm QPS >= ~5x cold QPS at 8 threads, and
/// telemetry-enabled warm QPS within 10% of the kill-switched run (both
/// floors enforced under --check).  Output ends with one JSON line.

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "archive/archive.hpp"
#include "bench_common.hpp"
#include "serve/reader_pool.hpp"
#include "telemetry/telemetry.hpp"
#include "util/timer.hpp"

namespace {

using namespace fraz;

struct ModeResult {
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

double percentile(std::vector<double>& sorted_ms, double q) {
  if (sorted_ms.empty()) return 0;
  const auto at = static_cast<std::size_t>(q * static_cast<double>(sorted_ms.size() - 1));
  return sorted_ms[at];
}

/// Run \p threads clients, each issuing \p per_thread random plane-range
/// reads from a deterministic per-thread stream, against one pool.  The
/// wall clock starts at a ready barrier, so thread spawn cost never counts
/// as serving time (warm requests are sub-microsecond — spawn would
/// otherwise dominate the measurement).
ModeResult run_mode(const std::shared_ptr<serve::ReaderPool>& pool, unsigned threads,
                    unsigned per_thread, bool& ok) {
  const std::size_t n0 = pool->fields()[0].shape[0];
  const std::size_t extent = pool->fields()[0].chunk_extent;
  std::vector<std::vector<double>> latencies_ms(threads);
  std::vector<std::thread> clients;
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  for (unsigned t = 0; t < threads; ++t)
    clients.emplace_back([&, t] {
      std::mt19937 rng(7000 + t);
      serve::ReaderHandle handle = pool->handle();
      latencies_ms[t].reserve(per_thread);
      ready.fetch_add(1, std::memory_order_relaxed);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (unsigned q = 0; q < per_thread; ++q) {
        // Chunk-sized windows at random offsets: the slicing access pattern
        // of a visualization or analysis client.
        const std::size_t first = rng() % (n0 - extent + 1);
        Timer request;
        if (!handle.read_range(0, first, extent).ok()) {
          ok = false;
          return;
        }
        latencies_ms[t].push_back(request.seconds() * 1e3);
      }
    });
  while (ready.load(std::memory_order_relaxed) < threads) std::this_thread::yield();
  Timer wall;
  go.store(true, std::memory_order_release);
  for (std::thread& client : clients) client.join();
  const double elapsed = wall.seconds();

  std::vector<double> all_ms;
  for (const auto& thread_ms : latencies_ms)
    all_ms.insert(all_ms.end(), thread_ms.begin(), thread_ms.end());
  std::sort(all_ms.begin(), all_ms.end());
  ModeResult result;
  result.qps = static_cast<double>(all_ms.size()) / elapsed;
  result.p50_ms = percentile(all_ms, 0.5);
  result.p99_ms = percentile(all_ms, 0.99);
  return result;
}

/// Best of \p rounds runs.  Warm requests finish in well under a
/// microsecond, so a single scheduler hiccup can halve one round's QPS;
/// the best round is each mode's steady-state capability, which is what
/// the warm-vs-kill-switched overhead comparison needs.
ModeResult best_mode(const std::shared_ptr<serve::ReaderPool>& pool, unsigned threads,
                     unsigned per_thread, unsigned rounds, bool& ok) {
  ModeResult best;
  for (unsigned r = 0; r < rounds && ok; ++r) {
    const ModeResult round = run_mode(pool, threads, per_thread, ok);
    if (round.qps > best.qps) best = round;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fraz;
  Cli cli("concurrent serving: warm decoded-chunk cache vs cold decode-per-call");
  cli.add_string("scale", "small", "suite scale: tiny|small|medium");
  cli.add_string("field", "TCf", "hurricane field to pack and serve");
  cli.add_string("compressor", "sz", "backend: sz|zfp|mgard|truncate");
  cli.add_double("target", 8.0, "target aggregate compression ratio");
  cli.add_int("threads", 8, "concurrent client threads");
  cli.add_int("requests", 200, "requests per thread per mode");
  cli.add_string("path", "bench_serve_concurrent.fraza", "scratch archive path");
  cli.add_flag("smoke", "tiny fast run for CI (overrides scale/threads/requests)");
  cli.add_flag("check", "exit nonzero unless warm QPS >= 5x cold QPS and "
                        "telemetry costs < 10% of kill-switched warm QPS");
  if (!cli.parse(argc, argv)) return 0;

  const bool smoke = cli.get_flag("smoke");
  const unsigned threads =
      smoke ? 4u : static_cast<unsigned>(cli.get_int("threads"));
  const unsigned per_thread =
      smoke ? 50u : static_cast<unsigned>(cli.get_int("requests"));

  bench::banner("serve-concurrent",
                "N client threads x random chunk-sized ranges, cold vs warm cache",
                "warm (cache-hit + copy) QPS >= ~5x cold (decode-per-call) QPS");

  // Pack the served archive once.
  const auto ds = data::dataset_by_name(
      "hurricane", bench::parse_scale(smoke ? "tiny" : cli.get_string("scale")));
  const NdArray field =
      data::generate_field(data::field_by_name(ds, cli.get_string("field")), 0);
  archive::ArchiveWriteConfig config;
  config.engine.compressor = cli.get_string("compressor");
  config.engine.tuner.target_ratio = cli.get_double("target");
  config.threads = 4;
  const std::string path = cli.get_string("path");
  archive::ArchiveWriter writer(config);
  auto written = writer.write(path, field.view());
  if (!written.ok()) {
    std::fprintf(stderr, "pack failed: %s\n", written.status().to_string().c_str());
    return 1;
  }
  std::printf("archive: %zu chunks, ratio %.2f, %.1f MB raw\n\n",
              written.value().chunk_count, written.value().achieved_ratio,
              static_cast<double>(field.size_bytes()) / 1e6);

  bool ok = true;
  ModeResult cold, warm, warm_off;

  {
    serve::ReaderPoolConfig pool_config;
    pool_config.cache = std::make_shared<serve::ChunkCache>(0);  // cache off
    pool_config.prefetch = false;
    auto pool = serve::ReaderPool::open(path, pool_config);
    if (!pool.ok()) return 1;
    cold = run_mode(pool.value(), threads, per_thread, ok);
  }
  {
    serve::ReaderPoolConfig pool_config;
    auto pool = serve::ReaderPool::open(path, pool_config);
    if (!pool.ok()) return 1;
    // Pre-touch every chunk so the timed section measures steady-state
    // serving, not the one-time fill.
    for (std::size_t i = 0; i < pool.value()->fields()[0].chunk_count; ++i)
      if (!pool.value()->chunk(0, i).ok()) return 1;
    // Warm requests are ~1000x cheaper than cold decodes: scale the request
    // count up so each round runs ~10ms+, interleave telemetry-on and
    // kill-switched rounds (so CPU frequency / cache warm-up drift hits
    // both modes equally), and take the best round per mode — otherwise
    // the comparison below measures scheduler noise instead of the
    // telemetry layer.
    const unsigned warm_per_thread = per_thread * 200;
    best_mode(pool.value(), threads, warm_per_thread, 1, ok);  // untimed warm-up
    for (unsigned round = 0; round < 3 && ok; ++round) {
      const ModeResult on = run_mode(pool.value(), threads, warm_per_thread, ok);
      if (on.qps > warm.qps) warm = on;
      // Same warm pool, kill-switch engaged: the delta is the telemetry
      // layer's whole hot-path cost (counters, spans, clock reads).
      telemetry::set_enabled(false);
      const ModeResult off = run_mode(pool.value(), threads, warm_per_thread, ok);
      telemetry::set_enabled(true);
      if (off.qps > warm_off.qps) warm_off = off;
    }
  }
  std::remove(path.c_str());
  if (!ok) {
    std::fprintf(stderr, "serving request failed\n");
    return 1;
  }

  const double speedup = cold.qps > 0 ? warm.qps / cold.qps : 0;
  const double telemetry_cost_pct =
      warm_off.qps > 0 ? (1.0 - warm.qps / warm_off.qps) * 100.0 : 0;
  std::printf("%-9s %-12s %-12s %-12s\n", "mode", "qps", "p50_ms", "p99_ms");
  std::printf("%-9s %-12.0f %-12.3f %-12.3f\n", "cold", cold.qps, cold.p50_ms,
              cold.p99_ms);
  std::printf("%-9s %-12.0f %-12.3f %-12.3f\n", "warm", warm.qps, warm.p50_ms,
              warm.p99_ms);
  std::printf("%-9s %-12.0f %-12.3f %-12.3f\n", "warm-off", warm_off.qps,
              warm_off.p50_ms, warm_off.p99_ms);
  std::printf("warm/cold speedup: %.1fx; telemetry cost: %.1f%% of warm QPS\n",
              speedup, telemetry_cost_pct);

  JsonWriter jw;
  const auto mode_json = [&jw](const char* name, const ModeResult& mode) {
    jw.key(name)
        .begin_object()
        .field("qps", mode.qps)
        .field("p50_ms", mode.p50_ms)
        .field("p99_ms", mode.p99_ms)
        .end_object();
  };
  jw.begin_object()
      .field("bench", "serve_concurrent")
      .field("threads", threads)
      .field("requests", threads * per_thread);
  mode_json("cold", cold);
  mode_json("warm", warm);
  mode_json("warm_telemetry_off", warm_off);
  jw.field("speedup", speedup)
      .field("telemetry_cost_pct", telemetry_cost_pct)
      .end_object();
  bench::json_line(jw);

  if (cli.get_flag("check") && speedup < 5.0) {
    std::fprintf(stderr, "FAIL: warm/cold speedup %.2f below the 5x floor\n", speedup);
    return 1;
  }
  if (cli.get_flag("check") && warm.qps < 0.9 * warm_off.qps) {
    std::fprintf(stderr,
                 "FAIL: telemetry-enabled warm QPS %.0f below 90%% of the "
                 "kill-switched %.0f\n",
                 warm.qps, warm_off.qps);
    return 1;
  }
  return 0;
}
