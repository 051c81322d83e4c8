/// Serving one archive to many readers: the serve subsystem in miniature.
///
/// A climate field is packed to a file once, then a ReaderPool maps it and
/// eight threads slice it concurrently — the access pattern of a dashboard
/// or analysis farm where every client wants windows of the same campaign
/// output.  The pool's shared ChunkCache pays each chunk's decompression
/// once; every later request from any thread is a hash lookup plus a plane
/// copy.  The same serving loop is what `fraz serve` speaks over
/// stdin/stdout or TCP.  Build and run:
///
///   cmake --build build --target concurrent_serving
///   ./build/concurrent_serving

#include <cstdio>
#include <random>
#include <thread>
#include <vector>

#include "archive/archive.hpp"
#include "data/datasets.hpp"
#include "serve/reader_pool.hpp"
#include "util/timer.hpp"

int main() {
  using namespace fraz;

  const auto ds = data::dataset_by_name("hurricane", data::SuiteScale::kSmall);
  const NdArray field = data::generate_field(data::field_by_name(ds, "TCf"), 0);

  // Pack the archive file the pool will serve.
  archive::ArchiveWriteConfig config;
  config.engine.compressor = "sz";
  config.engine.tuner.target_ratio = 8.0;
  archive::ArchiveWriter writer(config);
  const std::string path = "concurrent_serving.fraza";
  const auto written = writer.write(path, field.view());
  if (!written.ok()) {
    std::fprintf(stderr, "pack failed: %s\n", written.status().to_string().c_str());
    return 1;
  }
  std::printf("packed %zu chunks at ratio %.2f -> %s\n\n",
              written.value().chunk_count, written.value().achieved_ratio,
              path.c_str());

  // One pool maps the file; every client thread gets its own cheap handle.
  auto pool = serve::ReaderPool::open(path);
  if (!pool.ok()) {
    std::fprintf(stderr, "open failed: %s\n", pool.status().to_string().c_str());
    return 1;
  }
  const std::size_t n0 = pool.value()->fields()[0].shape[0];
  const std::size_t window = pool.value()->fields()[0].chunk_extent;

  constexpr unsigned kThreads = 8;
  constexpr unsigned kRequests = 400;
  Timer wall;
  std::vector<std::thread> clients;
  for (unsigned t = 0; t < kThreads; ++t)
    clients.emplace_back([&, t] {
      std::mt19937 rng(100 + t);
      serve::ReaderHandle handle = pool.value()->handle();
      for (unsigned q = 0; q < kRequests; ++q) {
        const std::size_t first = rng() % (n0 - window + 1);
        if (!handle.read_range(0, first, window).ok()) return;
      }
    });
  for (std::thread& client : clients) client.join();
  const double elapsed = wall.seconds();

  const serve::ReaderPool::Stats stats = pool.value()->stats();
  std::printf("%u threads x %u requests in %.3f s  (%.0f requests/s)\n", kThreads,
              kRequests, elapsed, kThreads * kRequests / elapsed);
  std::printf("chunk requests: %zu\n", stats.requests);
  std::printf("  served by cache:   %zu\n", stats.cache_hits);
  std::printf("  waited on a peer:  %zu\n", stats.wait_hits);
  std::printf("  decodes paid:      %zu  (archive has %zu chunks)\n",
              stats.decoded_chunks, written.value().chunk_count);
  std::printf("\nevery chunk was decompressed once; all other requests were "
              "lookups + copies.\n");

  std::remove(path.c_str());
  return 0;
}
