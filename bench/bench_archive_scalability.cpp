/// Archive pack throughput vs. worker count — the scaling companion to the
/// Fig. 8 reproduction, measured on the real `fraz::archive` chunk pipeline.
///
/// Substitution (same as bench_fig8, DESIGN.md §2): the paper scales over
/// MPI ranks on Bebop; this machine may have very few cores, so the *task
/// durations are real* — every chunk's compression is executed and timed by
/// the writer itself — and the thread-count curve is produced by
/// list-scheduling those measured chunk tasks at each simulated worker
/// count, exactly the schedule the writer's shared-counter worker loop
/// produces.  The serial residue (manifest/footer assembly and staging) is
/// measured per pack and charged to every worker count unchanged.
///
/// Protocol: one untimed warm-up pack (step 0) pays ratio training; the
/// measured steps exercise the campaign steady state — N chunk
/// compressions per archive, each its own warm-start check (Algorithm 3's
/// reuse, lifted to whole archives).  Real packs at each worker count additionally assert the
/// determinism contract: byte-identical archives regardless of threads.
///
/// Expected shape: near-linear speedup to the chunk-count limit; >2x at 4
/// workers.  Output ends with one machine-readable JSON line.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <queue>
#include <string>
#include <vector>

#include "archive/archive.hpp"
#include "bench_common.hpp"

namespace {

using namespace fraz;

/// Replay the writer's worker loop: chunks are claimed in index order, each
/// by the earliest-free worker.  Returns the makespan.
double simulate_pack(const std::vector<double>& chunk_seconds, unsigned workers) {
  std::priority_queue<double, std::vector<double>, std::greater<>> free_at;
  for (unsigned w = 0; w < workers; ++w) free_at.push(0.0);
  double makespan = 0;
  for (double task : chunk_seconds) {
    const double start = free_at.top();
    free_at.pop();
    free_at.push(start + task);
    makespan = std::max(makespan, start + task);
  }
  return makespan;
}

archive::ArchiveWriteConfig make_config(const Cli& cli, unsigned threads) {
  archive::ArchiveWriteConfig config;
  config.engine.compressor = cli.get_string("compressor");
  config.engine.tuner.target_ratio = cli.get_double("target");
  config.threads = threads;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fraz;
  Cli cli("archive scalability: pack throughput vs worker count");
  cli.add_string("scale", "small", "suite scale: tiny|small|medium");
  cli.add_string("field", "TCf", "hurricane field to pack");
  cli.add_string("compressor", "sz", "backend: sz|zfp|mgard|truncate");
  cli.add_double("target", 10.0, "target aggregate compression ratio");
  cli.add_int("steps", 6, "timed packs (after 1 warm-up)");
  cli.add_string("threads", "1,2,4,8", "comma-separated worker counts");
  if (!cli.parse(argc, argv)) return 0;

  bench::banner("archive", "chunked pack throughput vs worker count (Hurricane analogue)",
                "near-linear speedup to the chunk/core limit; >2x at 4 workers; "
                "byte-identical archives at every worker count");

  const auto ds =
      data::dataset_by_name("hurricane", bench::parse_scale(cli.get_string("scale")));
  const auto spec = data::field_by_name(ds, cli.get_string("field"));
  const int steps = static_cast<int>(cli.get_int("steps"));

  std::vector<unsigned> thread_counts;
  {
    const std::string list = cli.get_string("threads");
    std::size_t pos = 0;
    while (pos < list.size()) {
      std::size_t consumed = 0;
      thread_counts.push_back(
          static_cast<unsigned>(std::stoul(list.substr(pos), &consumed)));
      pos += consumed + 1;  // skip the comma
    }
  }

  // Pre-generate the series so data synthesis stays out of the timings.
  const std::vector<NdArray> series = data::generate_series(spec, steps + 1);
  const std::size_t raw_bytes_per_step = series[0].size_bytes();

  // ---- measurement pass: serial pack, real per-chunk task durations ------
  archive::ArchiveWriter writer(make_config(cli, 1));
  Buffer out;
  auto warmup = writer.write(series[0].view(), out);
  if (!warmup.ok()) {
    std::fprintf(stderr, "warm-up pack failed: %s\n", warmup.status().to_string().c_str());
    return 1;
  }
  std::size_t chunk_count = warmup.value().chunk_count;
  std::vector<std::vector<double>> step_chunk_seconds;  // per step, per chunk
  std::vector<double> step_overhead;                    // assembly residue
  double measured_serial = 0;
  for (int step = 1; step <= steps; ++step) {
    auto written = writer.write(series[static_cast<std::size_t>(step)].view(), out);
    if (!written.ok()) {
      std::fprintf(stderr, "pack failed: %s\n", written.status().to_string().c_str());
      return 1;
    }
    const auto& r = written.value();
    std::vector<double> chunk_seconds;
    double chunk_sum = 0;
    for (const auto& chunk : r.chunks) {
      chunk_seconds.push_back(chunk.seconds);
      chunk_sum += chunk.seconds;
    }
    step_chunk_seconds.push_back(std::move(chunk_seconds));
    step_overhead.push_back(std::max(r.seconds - chunk_sum, 0.0));
    measured_serial += r.seconds;
  }
  std::printf("[profile] %zu chunks/step, %d steps, %.3fs serial steady state "
              "(%.1f MB/s)\n\n",
              chunk_count, steps, measured_serial,
              static_cast<double>(raw_bytes_per_step) * steps / measured_serial / 1e6);

  // ---- byte-identity pass: real packs (cold + carried) per worker count --
  bool identical = true;
  std::vector<std::vector<std::uint8_t>> reference;  // per step
  for (unsigned threads : thread_counts) {
    archive::ArchiveWriter check(make_config(cli, threads));
    for (std::size_t step = 0; step < 2; ++step) {
      Buffer bytes;
      auto written = check.write(series[step].view(), bytes);
      if (!written.ok()) {
        std::fprintf(stderr, "pack failed: %s\n", written.status().to_string().c_str());
        return 1;
      }
      if (reference.size() <= step)
        reference.emplace_back(bytes.data(), bytes.data() + bytes.size());
      else if (reference[step].size() != bytes.size() ||
               std::memcmp(reference[step].data(), bytes.data(), bytes.size()) != 0)
        identical = false;
    }
  }

  // ---- schedule the measured tasks at each worker count ------------------
  Table t({"workers", "seconds", "mb_per_s", "speedup"});
  std::vector<double> scheduled;
  for (unsigned workers : thread_counts) {
    double total = 0;
    for (std::size_t s = 0; s < step_chunk_seconds.size(); ++s)
      total += step_overhead[s] + simulate_pack(step_chunk_seconds[s], workers);
    scheduled.push_back(total);
  }
  for (std::size_t i = 0; i < thread_counts.size(); ++i)
    t.add_row({std::to_string(thread_counts[i]), Table::num(scheduled[i], 3),
               Table::num(static_cast<double>(raw_bytes_per_step) * steps /
                              scheduled[i] / 1e6,
                          1),
               Table::num(scheduled.front() / scheduled[i], 2)});
  t.print(std::cout);

  double speedup4 = 0;
  for (std::size_t i = 0; i < thread_counts.size(); ++i)
    if (thread_counts[i] == 4) speedup4 = scheduled.front() / scheduled[i];
  std::printf("\nshape checks: >2x pack throughput at 4 workers: %s; "
              "byte-identical archives across worker counts: %s\n",
              speedup4 > 2.0 ? "HOLDS" : "VIOLATED", identical ? "HOLDS" : "VIOLATED");

  std::string json = "{\"bench\":\"archive_scalability\",\"dataset\":\"hurricane/" +
                     cli.get_string("field") + "\",\"compressor\":\"" +
                     cli.get_string("compressor") +
                     "\",\"raw_bytes_per_step\":" + std::to_string(raw_bytes_per_step) +
                     ",\"steps\":" + std::to_string(steps) +
                     ",\"chunks_per_step\":" + std::to_string(chunk_count) +
                     ",\"measured_serial_seconds\":" + std::to_string(measured_serial) +
                     ",\"results\":[";
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    if (i) json += ",";
    json += "{\"workers\":" + std::to_string(thread_counts[i]) +
            ",\"seconds\":" + std::to_string(scheduled[i]) + ",\"mb_per_s\":" +
            std::to_string(static_cast<double>(raw_bytes_per_step) * steps /
                           scheduled[i] / 1e6) +
            ",\"speedup\":" + std::to_string(scheduled.front() / scheduled[i]) + "}";
  }
  json += "],\"speedup_4_workers\":" + std::to_string(speedup4) +
          ",\"identical_bytes\":" + (identical ? "true" : "false") + "}";
  std::printf("%s\n", json.c_str());
  return speedup4 > 2.0 && identical ? 0 : 1;
}
