/// Random access into a chunked archive: the reason the super-frame format
/// exists.  A cosmology field is packed at a fixed aggregate ratio, then
/// three access patterns run against the same bytes:
///
///   1. full decompression (the baseline every monolithic archive forces),
///   2. a single chunk (one checksum + one chunk decode),
///   3. a slowest-axis plane range straddling two chunks.
///
/// The point to take away is the "compressed bytes touched" column: a range
/// query validates and decodes only the chunks that cover it, so pulling a
/// few planes out of a campaign-sized archive stops costing a full-file
/// decode.  Build and run:
///
///   cmake --build build --target archive_random_access
///   ./build/archive_random_access

#include <cstdio>
#include <cstring>

#include "archive/archive.hpp"
#include "data/datasets.hpp"

int main() {
  using namespace fraz;

  const auto nyx = data::dataset_by_name("nyx", data::SuiteScale::kSmall);
  const NdArray field = data::generate_field(data::field_by_name(nyx, "temperature"), 0);
  std::printf("field: nyx/temperature,");
  for (std::size_t d : field.shape()) std::printf(" %zu", d);
  std::printf(" f32 (%zu bytes raw)\n\n", field.size_bytes());

  // Pack at a fixed aggregate ratio of 10:1.
  archive::ArchiveWriteConfig config;
  config.engine.compressor = "sz";
  config.engine.tuner.target_ratio = 10.0;
  archive::ArchiveWriter writer(config);
  Buffer bytes;
  const auto written = writer.write(field.view(), bytes);
  if (!written.ok()) {
    std::fprintf(stderr, "pack failed: %s\n", written.status().to_string().c_str());
    return 1;
  }
  std::printf("packed: %zu chunks of %zu plane(s), aggregate ratio %.2f (%s band)\n",
              written.value().chunk_count, written.value().chunk_extent,
              written.value().achieved_ratio, written.value().in_band ? "in" : "OUT of");

  auto reader = archive::ArchiveReader::open(bytes.data(), bytes.size());
  if (!reader.ok()) {
    std::fprintf(stderr, "open failed: %s\n", reader.status().to_string().c_str());
    return 1;
  }
  const archive::ArchiveInfo& info = reader.value().info();

  // 1. Full decompression — the baseline.
  auto full = reader.value().read_all(archive::kDefaultFieldName);
  if (!full.ok()) return 1;
  std::printf("\n%-28s %18s %12s\n", "access", "compressed bytes", "planes out");
  std::printf("%-28s %18zu %12zu\n", "read_all()", info.archive_bytes,
              full.value().shape()[0]);

  // 2. One chunk: exactly one index entry's bytes are touched.
  const std::size_t mid = info.chunk_count / 2;
  auto chunk = reader.value().read_chunk(archive::kDefaultFieldName, mid);
  if (!chunk.ok()) return 1;
  std::printf("%-28s %18zu %12zu\n",
              ("read_chunk(" + std::to_string(mid) + ")").c_str(), info.chunks[mid].size,
              chunk.value().shape()[0]);

  // 3. A plane range straddling a chunk boundary.
  const std::size_t first = info.chunk_extent - 1;
  const std::size_t count = 2;  // last plane of chunk 0, first of chunk 1
  auto range = reader.value().read_range(archive::kDefaultFieldName, first, count);
  if (!range.ok()) return 1;
  std::size_t touched = 0;
  for (std::size_t c = first / info.chunk_extent; c <= (first + count - 1) / info.chunk_extent; ++c)
    touched += info.chunks[c].size;
  std::printf("%-28s %18zu %12zu\n",
              ("read_range(" + std::to_string(first) + ", " + std::to_string(count) + ")").c_str(),
              touched, range.value().shape()[0]);

  // Verify the seeks against the full decode: same bytes, fewer touched.
  const std::size_t plane_bytes = full.value().size_bytes() / full.value().shape()[0];
  const auto* base = static_cast<const std::uint8_t*>(full.value().data());
  const bool chunk_matches =
      std::memcmp(chunk.value().data(), base + mid * info.chunk_extent * plane_bytes,
                  chunk.value().size_bytes()) == 0;
  const bool range_matches =
      std::memcmp(range.value().data(), base + first * plane_bytes,
                  range.value().size_bytes()) == 0;
  std::printf("\nseek results match the full decode: chunk %s, range %s\n",
              chunk_matches ? "yes" : "NO", range_matches ? "yes" : "NO");
  return chunk_matches && range_matches ? 0 : 1;
}
