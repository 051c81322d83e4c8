#ifndef FRAZ_BENCH_BENCH_COMMON_HPP
#define FRAZ_BENCH_BENCH_COMMON_HPP

/// Shared plumbing for the per-figure/table reproduction benches: suite-scale
/// parsing, standard banner, and ratio/fidelity helpers.  Every bench prints
/// a self-describing header, the paper-expected shape, and a machine-parsable
/// table so EXPERIMENTS.md can quote outputs directly.

#include <cstdio>
#include <string>

#include "data/datasets.hpp"
#include "metrics/error_stats.hpp"
#include "pressio/registry.hpp"
#include "util/cli.hpp"
#include "util/json_writer.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace fraz::bench {

/// Standard banner shared by all benches.
inline void banner(const std::string& id, const std::string& title,
                   const std::string& expectation) {
  std::printf("==================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("paper-expected shape: %s\n", expectation.c_str());
  std::printf("==================================================================\n");
}

/// Parse the --scale flag shared by dataset-driven benches.
inline data::SuiteScale parse_scale(const std::string& name) {
  if (name == "tiny") return data::SuiteScale::kTiny;
  if (name == "medium") return data::SuiteScale::kMedium;
  return data::SuiteScale::kSmall;
}

/// Emit a bench's machine-parsable result line: one JSON object built with
/// the shared JsonWriter (escaping and comma placement handled centrally),
/// printed on its own line after a blank separator so log scrapers can grab
/// the last line of output.
inline void json_line(const JsonWriter& writer) {
  std::printf("\n%s\n", writer.str().c_str());
}

/// Compression ratio at a given error bound (one compress call).  The
/// archive lands in a thread-local grow-only scratch, so bound sweeps reach
/// the same zero-allocation steady state as the tuner's inner loop.
inline double ratio_at(const pressio::Compressor& c, const ArrayView& view, double bound) {
  thread_local Buffer scratch;
  auto clone = c.clone();
  clone->set_error_bound(bound);
  clone->compress_into(view, scratch).throw_if_error();
  return compression_ratio(view.size_bytes(), scratch.size());
}

}  // namespace fraz::bench

#endif  // FRAZ_BENCH_BENCH_COMMON_HPP
