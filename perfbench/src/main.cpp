/// FRaZ end-to-end benchmark: packs a synthetic six-field campaign to a fixed
/// ratio, reads it back and serves it, and checks every result.
///
///   fraz_perfbench --workload pack-cold|campaign-warm|serve-skewed
///                  --seed N --seconds S --trace 0|1 [--out DIR]
///
/// --trace 0 prints every end-to-end metric; --trace 1 runs the workload
/// once untraced and once traced, writes the spans to
/// DIR/traces/<workload>-seed<N>.json and prints the per-layer metrics.  The
/// last line of standard output is one JSON object with the keys correct,
/// attempted, failed and metrics; the exit code is 1 when a correctness
/// check failed.  README.md beside this file says why each workload exists.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "campaign.hpp"
#include "layers.hpp"
#include "trace.hpp"
#include "traced_compressor.hpp"
#include "util/timer.hpp"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

const char* const kPackCold = "pack-cold";
const char* const kCampaignWarm = "campaign-warm";
const char* const kServeSkewed = "serve-skewed";

constexpr int kSetupRepeats = 3;       ///< set-ups per untraced run (median reported)
constexpr int kReadRepeats = 10;       ///< read_all sets per read-back
constexpr double kVerifyServeSeconds = 0.5;  ///< serving after each pack
constexpr double kZipfExponent = 1.1;  ///< serving: chunk popularity
constexpr double kCacheShare = 0.5;    ///< serving: ChunkCache budget / decoded bytes

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string out = ".bench_build";
  std::string program;
};

bool parse_args(int argc, char** argv, Args& args) {
  args.program = argv[0];
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0') return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (key == "--out") {
      args.out = value;
    } else {
      return false;
    }
  }
  if (argc % 2 == 0) return false;
  const bool known = args.workload == kPackCold || args.workload == kCampaignWarm ||
                     args.workload == kServeSkewed;
  return known && args.seconds > 0 && args.seconds <= 120 && args.trace >= 0;
}

/// Operations attempted and failed; a wrong result counts as a failure.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> notes;

  void op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
  void fail(const std::string& what) {
    ++failed;
    if (notes.size() < 20) notes.push_back(what);
  }
};

/// What one pass of a workload produced.
struct PassResult {
  std::vector<PackOutcome> packs;   ///< packs of the pass (per-layer figures)
  std::vector<double> pack_mbps;    ///< one per timed pack
  std::size_t archives = 0;         ///< every archive written
  std::size_t in_band = 0;
  std::vector<double> unpack_mbps;  ///< one per read_all set
  std::vector<double> psnr_db;      ///< one per archive read back
  std::vector<double> serve_qps;    ///< one per serving loop
  std::vector<double> serve_p50_us; ///< one per serving loop
  std::vector<double> serve_p99_us; ///< one per serving loop
  std::map<int, std::uint64_t> step_hashes;  ///< archive hash per campaign step
  std::size_t serve_requests = 0;   ///< every serving loop of the pass together
  fraz::serve::ReaderPool::Stats serve_pool;
  std::size_t iterations = 0;       ///< packs (pack-cold) or steps (campaign-warm)
  double wall_s = 0;
};

/// Set-up state of a workload.
struct State {
  std::string backend;
  std::vector<fraz::data::FieldSpec> fields;
  std::vector<fraz::NdArray> step0;
  std::unique_ptr<fraz::archive::ArchiveFileWriter> writer;  ///< campaign-warm, primed
  std::string archive;                                       ///< serve-skewed
  std::optional<PackOutcome> packed;                         ///< the set-up pack
  std::vector<fraz::NdArray> reference;                      ///< serve-skewed decode
};

/// How a pack counts: set-up packs only as archives written; pass packs in
/// the per-layer figures too; timed packs also in pack_MBps.
enum class PackUse { kSetup, kPass, kTimed };

/// Every pack of one campaign step must give the same bytes.
void record_hash(PassResult& r, int step, std::uint64_t hash, Tally& tally) {
  const auto [it, inserted] = r.step_hashes.emplace(step, hash);
  if (!inserted && it->second != hash)
    tally.fail("two packs of step " + std::to_string(step) + " hash differently");
}

void record_pack(const fraz::Result<PackOutcome>& packed, double raw, int step, PackUse use,
                 PassResult& r, Tally& tally, const std::string& what) {
  tally.op(packed.ok(), what + ": " + (packed.ok() ? "" : packed.status().to_string()));
  if (!packed.ok()) return;
  const PackOutcome& p = packed.value();
  // The writer's in_band flag and footer ratio must describe the file it wrote.
  const double file_ratio = p.file_bytes == 0 ? 0 : raw / static_cast<double>(p.file_bytes);
  const bool in_band = file_ratio >= kTargetRatio * (1 - kEpsilon) &&
                       file_ratio <= kTargetRatio * (1 + kEpsilon);
  if (in_band != p.result.in_band ||
      std::fabs(file_ratio - p.result.achieved_ratio) > 1e-9 * file_ratio)
    tally.fail(what + ": reported ratio or in_band flag disagrees with the file");
  ++r.archives;
  if (p.result.in_band) ++r.in_band;
  if (use == PackUse::kTimed) r.pack_mbps.push_back(raw / p.wall_s / 1e6);
  if (use != PackUse::kSetup) r.packs.push_back(p);
  record_hash(r, step, p.hash, tally);
}

void record_read_back(const ReadBack& rb, double raw, PassResult& r, Tally& tally,
                      const std::string& what) {
  tally.attempted += rb.reads;
  for (std::size_t i = 0; i < rb.read_errors; ++i) tally.fail(what + ": read_all failed");
  if (rb.bound_violations > 0)
    tally.fail(what + ": " + std::to_string(rb.bound_violations) +
               " values outside their chunk's error bound");
  if (rb.mismatched_repeats > 0) tally.fail(what + ": repeated read_all decoded other bytes");
  for (double s : rb.set_seconds) r.unpack_mbps.push_back(raw / s / 1e6);
  r.psnr_db.push_back(rb.psnr_db);
}

void record_serve(const ServeStats& s, PassResult& r, Tally& tally, const std::string& what) {
  tally.attempted += s.requests;
  for (std::size_t i = 0; i < s.errors; ++i) tally.fail(what + ": request failed");
  for (std::size_t i = 0; i < s.mismatches; ++i)
    tally.fail(what + ": response differs from the reference decode");
  r.serve_requests += s.requests;
  r.serve_pool.requests += s.pool_delta.requests;
  r.serve_pool.cache_hits += s.pool_delta.cache_hits;
  r.serve_pool.wait_hits += s.pool_delta.wait_hits;
  r.serve_pool.decoded_chunks += s.pool_delta.decoded_chunks;
  if (s.requests == 0) return;
  r.serve_qps.push_back(s.qps);
  r.serve_p50_us.push_back(percentile(s.latencies_us, 0.50));
  r.serve_p99_us.push_back(percentile(s.latencies_us, 0.99));
}

std::string path_in(const fs::path& dir, const std::string& name) {
  return (dir / name).string();
}

/// \p timed: the serve-skewed pack enters pack_MBps (the first set-up of a
/// process warms it and does not).
State set_up(const Args& args, const std::string& backend, const fs::path& dir, bool timed,
             PassResult& r, Tally& tally) {
  State st;
  st.backend = backend;
  st.fields = campaign_fields();
  st.step0 = generate_step(st.fields, 0, args.seed);
  const double raw = static_cast<double>(raw_bytes(st.step0));
  const unsigned workers = role_threads();
  if (args.workload == kCampaignWarm) {
    // Step 0 trains every (field, chunk) bound; the timed steps start warm.
    st.writer = std::make_unique<fraz::archive::ArchiveFileWriter>(
        write_config(backend, workers));
    auto packed = pack_step(*st.writer, path_in(dir, backend + "-warm-0.fraz"), st.fields,
                            st.step0);
    record_pack(packed, raw, 0, PackUse::kSetup, r, tally, "priming pack");
    if (packed.ok()) st.packed = packed.value();
  } else if (args.workload == kServeSkewed) {
    st.archive = path_in(dir, backend + "-serve.fraz");
    fraz::archive::ArchiveFileWriter writer(write_config(backend, workers));
    auto packed = pack_step(writer, st.archive, st.fields, st.step0);
    record_pack(packed, raw, 0, PackUse::kSetup, r, tally, "serve archive pack");
    if (packed.ok()) {
      st.packed = packed.value();
      if (timed) r.pack_mbps.push_back(raw / packed.value().wall_s / 1e6);
    }
    ReadBack rb = read_back(st.archive, st.step0, workers, kReadRepeats);
    record_read_back(rb, raw, r, tally, "serve archive read-back");
    st.reference = std::move(rb.decoded);
  }
  return st;
}

/// Zipf popularity over the chunks.  Which chunk holds which rank is fixed
/// (not drawn from the run's seed), so every run has the same hot set; the
/// seed drives the clients' request streams.
ChunkPicker zipf_picker(std::size_t count, double exponent) {
  std::vector<std::size_t> by_rank(count);
  std::iota(by_rank.begin(), by_rank.end(), std::size_t{0});
  std::mt19937_64 rng(0x5e12e5eedull);
  std::shuffle(by_rank.begin(), by_rank.end(), rng);
  std::vector<double> cdf(count);
  double sum = 0;
  for (std::size_t k = 0; k < count; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cdf[k] = sum;
  }
  for (double& c : cdf) c /= sum;
  return [by_rank, cdf](unsigned, std::uint64_t, std::mt19937_64& rng) {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    const std::size_t k = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    return by_rank[std::min(k, by_rank.size() - 1)];
  };
}

/// The serving mix: 4 closed-loop clients, Zipf-popular chunks, a fresh
/// ChunkCache of half the decoded archive, for \p seconds.
void skewed_serve(const std::string& archive, const std::vector<fraz::NdArray>& reference,
                  double seconds, std::uint64_t seed, PassResult& r, Tally& tally) {
  fraz::serve::ReaderPoolConfig config;
  config.cache_bytes =
      static_cast<std::size_t>(kCacheShare * static_cast<double>(raw_bytes(reference)));
  config.prefetch = false;  // no readahead threads: the clients are the only load
  auto pool = fraz::serve::ReaderPool::open(archive, config);
  if (!pool.ok()) {
    tally.op(false, "serve open: " + pool.status().to_string());
    return;
  }
  const std::vector<ChunkRef> chunks = chunk_refs(*pool.value());
  ScopedSpan span("serve.loop");
  const ServeStats stats =
      serve_closed_loop(pool.value(), chunks, reference, role_threads(), seconds, 0, seed,
                        zipf_picker(chunks.size(), kZipfExponent));
  record_serve(stats, r, tally, "serve");
}

/// Read back and serve a freshly packed archive: the correctness checks of a
/// pack, and the unpack and serving samples.  Run after every pack, so the
/// samples spread over the whole run.
void verify_pack(const std::string& path, const std::vector<fraz::NdArray>& originals,
                 std::uint64_t seed, PassResult& r, Tally& tally, const std::string& what) {
  const double raw = static_cast<double>(raw_bytes(originals));
  ReadBack rb = read_back(path, originals, role_threads(), kReadRepeats);
  record_read_back(rb, raw, r, tally, what + " read-back");
  skewed_serve(path, rb.decoded, kVerifyServeSeconds, seed, r, tally);
}

/// pack-cold: a fresh writer per pack, so every chunk pays full search.  The
/// first pack warms the process (allocator, page cache) and is checked but
/// not timed.  Every pack is verified.
void pack_cold_pass(const Args& args, State& st, std::size_t fixed, const fs::path& dir,
                    Tally& tally, PassResult& r) {
  const double raw = static_cast<double>(raw_bytes(st.step0));
  const std::string path = path_in(dir, st.backend + "-cold.fraz");
  fraz::Timer elapsed;
  for (std::size_t i = 0; fixed > 0 ? i < fixed : (i < 2 || elapsed.seconds() < args.seconds);
       ++i) {
    fraz::archive::ArchiveFileWriter writer(write_config(st.backend, role_threads()));
    auto packed = pack_step(writer, path, st.fields, st.step0);
    record_pack(packed, raw, 0, i > 0 ? PackUse::kTimed : PackUse::kPass, r, tally,
                "cold pack");
    ++r.iterations;
    if (packed.ok()) verify_pack(path, st.step0, args.seed, r, tally, "cold pack");
  }
}

/// campaign-warm: consecutive steps through the primed writer, each one
/// verified.
void campaign_warm_pass(const Args& args, State& st, std::size_t fixed, const fs::path& dir,
                        Tally& tally, PassResult& r) {
  if (!st.writer) return;
  fraz::Timer elapsed;
  for (int step = 1;; ++step) {
    if (fixed > 0 ? r.iterations >= fixed : (step > 1 && elapsed.seconds() >= args.seconds))
      break;
    std::vector<fraz::NdArray> data = [&] {
      ScopedSpan span("bench.generate");
      return generate_step(st.fields, step, args.seed);
    }();
    const double raw = static_cast<double>(raw_bytes(data));
    const std::string path = path_in(dir, st.backend + "-warm-" + std::to_string(step) + ".fraz");
    auto packed = pack_step(*st.writer, path, st.fields, data);
    record_pack(packed, raw, step, PackUse::kTimed, r, tally,
                "warm pack step " + std::to_string(step));
    ++r.iterations;
    if (!packed.ok()) continue;
    verify_pack(path, data, args.seed, r, tally, "warm step " + std::to_string(step));
    std::error_code ec;
    fs::remove(path, ec);
  }
}

/// serve-skewed: the serving mix over the set-up archive for the whole run.
void serve_skewed_pass(const Args& args, State& st, Tally& tally, PassResult& r) {
  if (!st.reference.empty())
    skewed_serve(st.archive, st.reference, args.seconds, args.seed, r, tally);
}

void run_pass(const Args& args, State& st, std::size_t fixed, const fs::path& dir, Tally& tally,
              PassResult& r) {
  fraz::Timer wall;
  if (args.workload == kPackCold)
    pack_cold_pass(args, st, fixed, dir, tally, r);
  else if (args.workload == kCampaignWarm)
    campaign_warm_pass(args, st, fixed, dir, tally, r);
  else
    serve_skewed_pass(args, st, tally, r);
  r.wall_s = wall.seconds();
}

double in_band_frac(const PassResult& r) {
  return r.archives == 0 ? 0 : static_cast<double>(r.in_band) / static_cast<double>(r.archives);
}

std::vector<Metric> end_to_end(const PassResult& r, double setup_s) {
  return {
      {"setup_s", setup_s, "s"},
      {"pack_MBps", median(r.pack_mbps), "MB/s"},
      {"unpack_MBps", median(r.unpack_mbps), "MB/s"},
      {"psnr_db", median(r.psnr_db), "dB"},
      {"serve_qps", median(r.serve_qps), "1/s"},
      {"serve_p50_us", median(r.serve_p50_us), "us"},
      {"serve_p99_us", median(r.serve_p99_us), "us"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

/// The archive of each campaign step must hash identically across runs of
/// the same binary at the same seed (within a run record_hash checks it);
/// earlier runs' hashes are kept under DIR/hashes, keyed by the binary's own
/// hash, one "step hash" line each.
void check_hashes(const Args& args, const PassResult& r, Tally& tally) {
  if (r.step_hashes.empty()) return;
  const fs::path dir = fs::path(args.out) / "hashes";
  std::error_code ec;
  fs::create_directories(dir, ec);
  char key[96];
  std::snprintf(key, sizeof key, "%016llx-%s-seed%llu.txt",
                static_cast<unsigned long long>(file_hash(args.program)), args.workload.c_str(),
                static_cast<unsigned long long>(args.seed));
  const fs::path file = dir / key;
  std::map<int, std::uint64_t> known;
  {
    std::ifstream in(file);
    int step = 0;
    std::string hex;
    while (in >> step >> hex) known[step] = std::strtoull(hex.c_str(), nullptr, 16);
  }
  bool grew = false;
  for (const auto& [step, hash] : r.step_hashes) {
    const auto [it, inserted] = known.emplace(step, hash);
    grew |= inserted;
    if (!inserted && it->second != hash)
      tally.fail("step " + std::to_string(step) + " archive hashes differently from an earlier run");
  }
  if (grew) {
    std::ofstream out(file, std::ios::trunc);
    char hex[24];
    for (const auto& [step, hash] : known) {
      std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(hash));
      out << step << ' ' << hex << '\n';
    }
  }
}

// ------------------------------------------------------------ traced run

bool named(const Span& s, const char* name) { return std::strcmp(s.name, name) == 0; }

/// Span totals of one traced pass.
struct SpanSummary {
  struct Sum {
    std::size_t calls = 0;
    double seconds = 0;
    double bytes = 0;
  };
  std::map<std::string, Sum> by_name;     ///< every span
  std::map<std::string, Sum> main_roots;  ///< main-thread spans with no parent
  double main_root_s = 0;
  double compress_main_s = 0;     ///< compressor spans on the main thread (chunk-0 search)
  double compress_workers_s = 0;  ///< compressor spans on other threads (chunk tasks)
  double request_s = 0;
  double request_decode_s = 0;    ///< decompress spans nested in serve.request spans
  std::vector<double> request_self_us;
};

SpanSummary summarize(const std::vector<Span>& spans, std::uint32_t main) {
  SpanSummary out;
  std::unordered_map<std::uint64_t, double> decode_in_request;
  for (const Span& s : spans) {
    auto& sum = out.by_name[s.name];
    ++sum.calls;
    sum.seconds += s.seconds();
    sum.bytes += static_cast<double>(s.bytes);
    if (s.thread == main && s.parent == 0) {
      auto& root = out.main_roots[s.name];
      ++root.calls;
      root.seconds += s.seconds();
      out.main_root_s += s.seconds();
    }
    if (named(s, kCompressSpan))
      (s.thread == main ? out.compress_main_s : out.compress_workers_s) += s.seconds();
    if (named(s, "serve.request")) decode_in_request.emplace(s.id, 0.0);
  }
  for (const Span& s : spans) {
    if (!named(s, kDecompressSpan)) continue;
    const auto it = decode_in_request.find(s.parent);
    if (it == decode_in_request.end()) continue;
    it->second += s.seconds();
    out.request_decode_s += s.seconds();
  }
  for (const Span& s : spans)
    if (named(s, "serve.request")) {
      out.request_s += s.seconds();
      out.request_self_us.push_back((s.seconds() - decode_in_request[s.id]) * 1e6);
    }
  return out;
}

double share(double a, double b) { return b > 0 ? a / b : 0.0; }

double chunk_task_seconds(const PassResult& r) {
  double seconds = 0;
  for (const PackOutcome& p : r.packs)
    for (const auto& c : p.result.chunks) seconds += c.seconds;
  return seconds;
}

/// Per-layer metrics of one traced pass.
std::vector<Metric> per_layer(const PassResult& r, SpanSummary spans, std::size_t field_count) {
  double pack_wall = 0, chunks = 0, requests = 0, executed = 0, warm = 0, retrained = 0;
  double staged_peak = 0;
  std::vector<double> achieved;
  for (const PackOutcome& p : r.packs) {
    pack_wall += p.wall_s;
    chunks += static_cast<double>(p.result.chunks.size());
    executed += static_cast<double>(p.result.tuner_probe_calls);
    requests += static_cast<double>(p.result.tuner_probe_calls + p.result.probe_cache_hits);
    warm += static_cast<double>(p.result.warm_chunks);
    retrained += static_cast<double>(p.result.retrained_chunks);
    staged_peak = std::max(staged_peak, static_cast<double>(p.result.peak_staged_bytes));
    achieved.push_back(p.result.achieved_ratio);
  }
  const double packs = static_cast<double>(r.packs.size());
  const double chunk_s = chunk_task_seconds(r);
  const auto& compress = spans.by_name[kCompressSpan];
  const auto& decompress = spans.by_name[kDecompressSpan];
  const auto& read_all = spans.by_name["archive.read_all"];
  const double read_sets = share(static_cast<double>(read_all.calls), static_cast<double>(field_count));
  const auto& pool = r.serve_pool;
  return {
      {"compressors.compress_calls", static_cast<double>(compress.calls), "count"},
      {"compressors.compress_busy_s", compress.seconds, "s"},
      {"compressors.compress_MBps", share(compress.bytes / 1e6, compress.seconds), "MB/s"},
      {"compressors.decompress_calls", static_cast<double>(decompress.calls), "count"},
      {"compressors.decompress_busy_s", decompress.seconds, "s"},
      {"compressors.decompress_MBps", share(decompress.bytes / 1e6, decompress.seconds), "MB/s"},
      {"core.probe_requests", requests, "count"},
      {"core.probes_executed", executed, "count"},
      {"core.probe_cache_hit_ratio", share(requests - executed, requests), "fraction"},
      {"core.probes_per_chunk", share(requests, chunks), "count"},
      {"core.search_self_s", chunk_s - spans.compress_workers_s, "s"},
      {"engine.warm_chunk_ratio", share(warm, chunks), "fraction"},
      {"engine.retrained_chunks", share(retrained, packs), "count"},
      {"archive.worker_util", share(chunk_s, role_threads() * pack_wall), "fraction"},
      {"archive.stage_s",
       share(spans.by_name["archive.push"].seconds + spans.by_name["archive.close"].seconds,
             packs),
       "s"},
      {"archive.finish_s", share(spans.by_name["archive.finish"].seconds, packs), "s"},
      {"archive.peak_staged_MB", staged_peak / 1e6, "MB"},
      {"archive.read_all_s", share(read_all.seconds, read_sets), "s"},
      {"archive.achieved_ratio", median(achieved), "ratio"},
      {"archive.in_band_frac", in_band_frac(r), "fraction"},
      {"serve.cache_hit_ratio",
       share(static_cast<double>(pool.cache_hits), static_cast<double>(pool.requests)),
       "fraction"},
      {"serve.wait_hits", static_cast<double>(pool.wait_hits), "count"},
      {"serve.decoded_chunks", static_cast<double>(pool.decoded_chunks), "count"},
      {"serve.decode_busy_s", spans.request_decode_s, "s"},
      {"serve.request_self_us_p50", percentile(spans.request_self_us, 0.5), "us"},
      {"trace.wall_s", r.wall_s, "s"},
      {"trace.unaccounted_s", r.wall_s - spans.main_root_s, "s"},
  };
}

/// Where the traced pass's time went: main-thread root spans by name, the
/// pack workers' chunk tasks split into compressor and search time, and the
/// serving clients' requests split into decode and self time.
void print_breakdown(const std::string& workload, const PassResult& r, const SpanSummary& spans) {
  std::printf("traced %s: wall %.3f s on the main thread\n", workload.c_str(), r.wall_s);
  for (const auto& [name, root] : spans.main_roots)
    std::printf("  %-22s %6zu spans %9.3f s\n", name.c_str(), root.calls, root.seconds);
  std::printf("  %-22s %22.3f s\n", "unaccounted", r.wall_s - spans.main_root_s);
  std::printf("  chunk-0 search compress on the main thread (inside archive.push): %.3f s\n",
              spans.compress_main_s);
  const double chunk_s = chunk_task_seconds(r);
  std::printf("  pack workers: chunk tasks %.3f s = compressors.compress %.3f s + "
              "core.search self %.3f s\n",
              chunk_s, spans.compress_workers_s, chunk_s - spans.compress_workers_s);
  std::printf("  serving clients: requests %.3f s = decode %.3f s + self %.3f s "
              "(%zu requests)\n",
              spans.request_s, spans.request_decode_s, spans.request_s - spans.request_decode_s,
              r.serve_requests);
}

// ---------------------------------------------------------------- output

void print_metrics(const std::vector<Metric>& metrics, const PassResult& r) {
  for (const Metric& m : metrics)
    std::printf("  %-36s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("  samples: %zu packs, %zu read_all sets, %zu requests; %zu archives "
              "written, %zu in band\n",
              r.packs.size(), r.unpack_mbps.size(), r.serve_requests, r.archives, r.in_band);
  std::printf("  pack MB/s:");
  for (double v : r.pack_mbps) std::printf(" %.3f", v);
  if (!r.packs.empty()) {
    const auto& first = r.packs[0].result;
    std::printf("\n  first archive: %zu probes executed, %zu cache hits, ratio %.3f, per field",
                first.tuner_probe_calls, first.probe_cache_hits, first.achieved_ratio);
    for (const auto& f : r.packs[0].result.fields)
      std::printf(" %s=%.2f", f.name.c_str(), f.payload_ratio);
  }
  std::printf("\n  serve cache hit ratio %.3f, %zu decodes\n",
              r.serve_pool.requests == 0
                  ? 0.0
                  : static_cast<double>(r.serve_pool.cache_hits) /
                        static_cast<double>(r.serve_pool.requests),
              r.serve_pool.decoded_chunks);
}

void print_json(const Tally& tally, const std::vector<Metric>& metrics) {
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    json << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << metrics[i].value
         << ", \"unit\": \"" << metrics[i].unit << "\"}";
  json << "}}";
  std::printf("%s\n", json.str().c_str());
}

void run_untraced(const Args& args, const fs::path& dir, Tally& tally) {
  PassResult r;
  std::vector<double> setup_s;
  State st;
  for (int i = 0; i < kSetupRepeats; ++i) {
    fraz::Timer timer;
    st = set_up(args, "sz", dir, i > 0, r, tally);
    setup_s.push_back(timer.seconds());
  }
  run_pass(args, st, 0, dir, tally, r);
  check_hashes(args, r, tally);
  const std::vector<Metric> metrics = end_to_end(r, median(setup_s));
  std::printf("%s seed %llu: %.3f s measured\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), r.wall_s);
  print_metrics(metrics, r);
  print_json(tally, metrics);
}

void check_same_bounds(const std::vector<double>& a, const std::vector<double>& b, Tally& tally,
                       const std::string& what) {
  tally.op(a == b, what + ": traced run tuned other bounds than the untraced run");
}

void run_traced(const Args& args, const fs::path& dir, Tally& tally) {
  register_traced_backends();
  const std::uint32_t main = tracer::thread_index();
  const std::string traced = traced_backend("sz");

  PassResult plain, spanned;
  State plain_state = set_up(args, "sz", dir, true, plain, tally);
  State traced_state = set_up(args, traced, dir, true, spanned, tally);
  if (plain_state.packed && traced_state.packed)
    check_same_bounds(plain_state.packed->tuned_bounds, traced_state.packed->tuned_bounds,
                      tally, "set-up pack");

  // Workload-independent layer measurements.
  std::vector<Metric> metrics;
  for (LayerResult layer : {measure_codecs(args.seed), measure_backends(plain_state.step0[0])}) {
    tally.attempted += layer.attempted;
    for (std::size_t i = 0; i < layer.failed; ++i) tally.fail("layer measurement");
    metrics.insert(metrics.end(), layer.metrics.begin(), layer.metrics.end());
  }
  // 1-worker baseline of the cold pack: same bytes, parallel speedup apart.
  {
    const double raw = static_cast<double>(raw_bytes(plain_state.step0));
    std::vector<double> walls;
    for (unsigned workers : {1u, role_threads()}) {
      fraz::archive::ArchiveFileWriter writer(write_config("sz", workers));
      auto packed = pack_step(writer, path_in(dir, "scaling.fraz"), plain_state.fields,
                              plain_state.step0);
      record_pack(packed, raw, 0, PackUse::kSetup, plain, tally,
                  std::to_string(workers) + "-worker pack");
      if (packed.ok()) walls.push_back(packed.value().wall_s);
    }
    metrics.push_back({"archive.parallel_speedup",
                       walls.size() == 2 ? walls[0] / walls[1] : 0.0, "ratio"});
  }

  run_pass(args, plain_state, 0, dir, tally, plain);
  tracer::enable(true);
  const std::size_t mark = tracer::mark();
  run_pass(args, traced_state, plain.iterations, dir, tally, spanned);
  tracer::enable(false);
  const std::vector<Span> spans = tracer::spans_since(mark);

  for (std::size_t i = 0; i < std::min(plain.packs.size(), spanned.packs.size()); ++i)
    check_same_bounds(plain.packs[i].tuned_bounds, spanned.packs[i].tuned_bounds, tally,
                      "pack " + std::to_string(i));
  check_hashes(args, plain, tally);

  const SpanSummary summary = summarize(spans, main);
  const std::vector<Metric> layer = per_layer(spanned, summary, plain_state.fields.size());
  metrics.insert(metrics.end(), layer.begin(), layer.end());

  // Tracing overhead: the same pass untraced and traced.
  const std::vector<Metric> e2e_plain = end_to_end(plain, 0);
  const std::vector<Metric> e2e_traced = end_to_end(spanned, 0);
  std::printf("tracing overhead (untraced -> traced):\n");
  double overhead = 0;
  const std::string primary = args.workload == kServeSkewed ? "serve_qps" : "pack_MBps";
  for (std::size_t i = 1; i + 1 < e2e_plain.size(); ++i) {
    const double a = e2e_plain[i].value, b = e2e_traced[i].value;
    const double pct = a != 0 ? 100.0 * (b - a) / a : 0.0;
    std::printf("  %-14s %12.4f -> %12.4f %s (%+.2f%%)\n", e2e_plain[i].name.c_str(), a, b,
                e2e_plain[i].unit.c_str(), pct);
    if (e2e_plain[i].name == primary) overhead = a != 0 ? 100.0 * (a - b) / a : 0.0;
  }
  metrics.push_back({"trace.overhead_pct", overhead, "%"});
  print_breakdown(args.workload, spanned, summary);

  const fs::path trace_dir = fs::path(args.out) / "traces";
  std::error_code ec;
  fs::create_directories(trace_dir, ec);
  const std::string trace_file =
      (trace_dir / (args.workload + "-seed" + std::to_string(args.seed) + ".json")).string();
  if (tracer::write_chrome(trace_file))
    std::printf("trace: %zu spans written to %s\n", tracer::mark(), trace_file.c_str());
  else
    std::fprintf(stderr, "trace: could not write %s\n", trace_file.c_str());

  std::printf("per-layer metrics (%s):\n", args.workload.c_str());
  print_metrics(metrics, spanned);
  print_json(tally, metrics);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload pack-cold|campaign-warm|serve-skewed --seed N "
                 "--seconds S --trace 0|1 [--out DIR]\n",
                 argv[0]);
    return 2;
  }
  tracer::thread_index();  // the main thread is thread 1 in the trace
  const fs::path dir = fs::path(args.out) / "work" /
                       (args.workload + "-" + std::to_string(static_cast<long>(getpid())));
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.string().c_str(), ec.message().c_str());
    return 1;
  }
  Tally tally;
  try {
    if (args.trace)
      run_traced(args, dir, tally);
    else
      run_untraced(args, dir, tally);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    fs::remove_all(dir, ec);
    return 1;
  }
  fs::remove_all(dir, ec);
  for (const std::string& note : tally.notes) std::fprintf(stderr, "FAILED: %s\n", note.c_str());
  return tally.failed == 0 ? 0 : 1;
}
