/// Use case 3 from the paper (§II-B): match an instrument's acquisition rate
/// to the storage bandwidth.  LCLS-II produces up to 250 GB/s against
/// 25 GB/s of storage — a hard 10:1 ratio requirement on a *live* stream.
///
/// This example simulates frames arriving one at a time and drives the
/// Engine's in-situ fast path: `compress` tunes each frame (reusing the
/// previous bound, retraining only on drift — Algorithm 3's online
/// behaviour) and writes the archive into ONE reusable Buffer.  On an
/// in-band frame the archive is its own acceptance probe: one compression.
/// The buffer's allocation counter demonstrates the zero-copy steady state:
/// after the first frames establish the high-water mark, no further
/// per-frame output allocation happens — the property a 250 GB/s pipeline
/// lives or dies by.
///
///   ./instrument_stream [--frames 16] [--target 10]

#include <cstdio>
#include <iostream>

#include "data/datasets.hpp"
#include "engine/engine.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace fraz;
  Cli cli("Stream compression at a fixed ratio (LCLS-II style bandwidth matching)");
  cli.add_int("frames", 16, "frames to stream");
  cli.add_double("target", 10.0, "required compression ratio (bandwidth quotient)");
  cli.add_string("compressor", "sz", "backend: sz|zfp|mgard");
  if (!cli.parse(argc, argv)) return 0;

  const auto dataset = data::dataset_by_name("hurricane");
  const auto spec = data::field_by_name(dataset, "TCf");
  const int frames = static_cast<int>(cli.get_int("frames"));
  const double target = cli.get_double("target");

  EngineConfig config;
  config.compressor = cli.get_string("compressor");
  config.tuner.target_ratio = target;
  config.tuner.epsilon = 0.1;
  Engine engine(config);

  Table t({"frame", "ratio", "in_band", "retrained", "latency_ms", "allocs"});
  Buffer archive;  // ONE output buffer for the whole stream
  std::size_t raw_total = 0, compressed_total = 0;
  for (int frame = 0; frame < frames; ++frame) {
    // Frame "arrives" from the instrument.
    const NdArray data = data::generate_field(spec, frame);

    Timer latency;
    CompressOutcome outcome;
    const Status s = engine.compress(spec.name, data.view(), archive, &outcome);
    const double ms = latency.millis();
    if (!s.ok()) {
      std::fprintf(stderr, "frame %d: %s\n", frame, s.to_string().c_str());
      return 1;
    }

    raw_total += data.size_bytes();
    compressed_total += archive.size();
    t.add_row({std::to_string(frame), Table::num(outcome.achieved_ratio, 2),
               outcome.in_band ? "yes" : "no", outcome.retrained ? "yes" : "no",
               Table::num(ms, 1), std::to_string(archive.allocations())});
  }
  t.print(std::cout);

  const double aggregate = static_cast<double>(raw_total) / compressed_total;
  const bool keeps_up = aggregate >= target * 0.9;
  std::printf("\naggregate ratio %.2f:1 over %d frames (%zu retrains, %zu buffer "
              "allocations total) -> stream %s\n",
              aggregate, frames, engine.field_stats().at(spec.name).retrains,
              archive.allocations(),
              keeps_up ? "KEEPS UP with the bandwidth quotient" : "FALLS BEHIND");
  return keeps_up ? 0 : 1;
}
