/// Path builds vs. Buffer builds — throughput and memory of ArchiveWriter's
/// two transports, plus positioned-read latency of ArchiveReader's two file
/// read modes (mmap vs. buffered pread).
///
/// What this measures (no paper figure — the file layer is a scale-out
/// extension in the C-Blosc2 frame tradition):
///
///  - pack throughput of ArchiveWriter into a Buffer (whole archive
///    resident) against a path (chunks streamed to disk as they finish), at
///    several worker counts, asserting the two transports' bytes are
///    identical;
///  - the writer's peak buffered chunk payloads — the streaming memory
///    model says it never exceeds workers + 1;
///  - ranged-read latency through the file reader's mmap path and its
///    portable buffered fallback.
///
/// Expected shape: file packs within a few percent of in-memory packs (the
/// sink append is tiny next to chunk compression), peak buffered chunks
/// pinned at workers + 1, and mmap ranged reads at or below buffered ones.
/// Output ends with one machine-readable JSON line.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "archive/archive.hpp"
#include "bench_common.hpp"
#include "ndarray/io.hpp"

namespace {

using namespace fraz;

archive::ArchiveWriteConfig make_config(const Cli& cli, unsigned threads) {
  archive::ArchiveWriteConfig config;
  config.engine.compressor = cli.get_string("compressor");
  config.engine.tuner.target_ratio = cli.get_double("target");
  config.threads = threads;
  return config;
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return {};
  std::fseek(f, 0, SEEK_END);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  const std::size_t got = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  bytes.resize(got);
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fraz;
  Cli cli("archive file transport: streaming pack + positioned reads");
  cli.add_string("scale", "small", "suite scale: tiny|small|medium");
  cli.add_string("field", "TCf", "hurricane field to pack");
  cli.add_string("compressor", "sz", "backend: sz|zfp|mgard|truncate");
  cli.add_double("target", 10.0, "target aggregate compression ratio");
  cli.add_int("steps", 4, "timed packs per transport (after 1 warm-up)");
  cli.add_string("path", "bench_archive_file.fraza", "scratch archive path");
  if (!cli.parse(argc, argv)) return 0;

  bench::banner("archive-file",
                "streaming file packs vs in-memory packs; mmap vs buffered reads",
                "file pack within a few %% of memory pack; peak buffered chunks "
                "== workers + 1; byte-identical transports");

  const auto ds =
      data::dataset_by_name("hurricane", bench::parse_scale(cli.get_string("scale")));
  const auto spec = data::field_by_name(ds, cli.get_string("field"));
  const int steps = static_cast<int>(cli.get_int("steps"));
  const std::string path = cli.get_string("path");
  const std::vector<NdArray> series =
      data::generate_series(spec, static_cast<std::size_t>(steps) + 1);
  const double raw_mb = static_cast<double>(series[0].size_bytes()) / 1e6;

  std::printf("%-8s %-12s %-10s %-10s %-14s %s\n", "workers", "transport", "MB/s",
              "ratio", "peak_buffered", "identical");
  double mem_mbps = 0, file_mbps = 0;
  std::size_t peak_chunks = 0;
  bool identical = true;
  for (const unsigned threads : {1u, 2u, 4u}) {
    // In-memory transport.
    archive::ArchiveWriter memory_writer(make_config(cli, threads));
    Buffer memory_bytes;
    if (!memory_writer.write(series[0].view(), memory_bytes).ok()) return 1;
    Timer memory_timer;
    double ratio = 0;
    for (int s = 1; s <= steps; ++s) {
      auto written = memory_writer.write(series[static_cast<std::size_t>(s)].view(),
                                         memory_bytes);
      if (!written.ok()) return 1;
      ratio = written.value().achieved_ratio;
    }
    mem_mbps = raw_mb * steps / memory_timer.seconds();
    std::printf("%-8u %-12s %-10.1f %-10.3f %-14s %s\n", threads, "memory", mem_mbps,
                ratio, "-", "-");

    // Streaming file transport (same warm-up discipline, same data).
    archive::ArchiveWriter file_writer(make_config(cli, threads));
    if (!file_writer.write(path, series[0].view()).ok()) return 1;
    Timer file_timer;
    std::size_t peak = 0, window = 0;
    for (int s = 1; s <= steps; ++s) {
      auto written = file_writer.write(path, series[static_cast<std::size_t>(s)].view());
      if (!written.ok()) return 1;
      ratio = written.value().achieved_ratio;
      peak = std::max(peak, written.value().peak_buffered_chunks);
      window = static_cast<std::size_t>(threads) + 1;
    }
    file_mbps = raw_mb * steps / file_timer.seconds();
    peak_chunks = peak;
    // The last file step and the last memory step packed the same array.
    const auto file_bytes = slurp(path);
    const bool same = file_bytes.size() == memory_bytes.size() &&
                      std::memcmp(file_bytes.data(), memory_bytes.data(),
                                  file_bytes.size()) == 0;
    identical = identical && same;
    std::printf("%-8u %-12s %-10.1f %-10.3f %zu <= %-8zu %s\n", threads, "file",
                file_mbps, ratio, peak, window, same ? "yes" : "NO");
  }

  // Ranged reads: mmap vs buffered, one chunk-sized window per probe.
  double mmap_us = 0, buffered_us = 0;
  for (const auto mode : {archive::FileReadMode::kAuto, archive::FileReadMode::kBuffered}) {
    auto reader = archive::ArchiveReader::open(path, mode);
    if (!reader.ok()) return 1;
    const std::size_t n0 = reader.value().info().shape[0];
    const std::size_t extent = reader.value().info().chunk_extent;
    constexpr int kProbes = 32;
    Timer timer;
    for (int p = 0; p < kProbes; ++p) {
      const std::size_t first = (static_cast<std::size_t>(p) * 7) % (n0 - extent + 1);
      if (!reader.value().read_range(archive::kDefaultFieldName, first, extent).ok())
        return 1;
    }
    const double us = timer.seconds() * 1e6 / kProbes;
    (reader.value().mapped() ? mmap_us : buffered_us) = us;
    std::printf("ranged read (%s): %.0f us / chunk-sized window\n",
                reader.value().mapped() ? "mmap" : "buffered", us);
  }

  std::remove(path.c_str());
  std::printf("\n{\"bench\":\"archive_file\",\"memory_mbps\":%.1f,\"file_mbps\":%.1f,"
              "\"peak_buffered_chunks\":%zu,\"mmap_us\":%.0f,\"buffered_us\":%.0f,"
              "\"identical\":%s}\n",
              mem_mbps, file_mbps, peak_chunks, mmap_us, buffered_us,
              identical ? "true" : "false");
  return identical ? 0 : 1;
}
