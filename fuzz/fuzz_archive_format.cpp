/// Fuzz the archive open and chunk read paths: footer probe, manifest parse
/// (v1/v2/v3 field tables), chunk-index tiling validation, per-field engine
/// setup, then each chunk's CRC, its frame header against the manifest, and
/// its decode.  The input is the entire archive byte string; the property is
/// that open() and read_chunk() return a Status for every input — no crash,
/// no UB, no unbounded allocation driven by attacker-chosen counts or by a
/// frame's declared shape (tests/corpus/archive_format/
/// archive_wrong_shape.fraz declares 2^33 elements in one chunk).
#include "archive/archive.hpp"
#include "fuzz_driver.hpp"

namespace {

/// A read allocates the chunk shape the manifest holds; manifests larger
/// than this are skipped so the fuzzer explores parsers, not the allocator.
constexpr std::size_t kMaxChunkBytes = std::size_t{1} << 24;

}  // namespace

void fraz_fuzz_one(const std::uint8_t* data, std::size_t size) {
  auto reader = fraz::archive::ArchiveReader::open(data, size);
  if (!reader.ok()) return;
  for (const fraz::archive::FieldInfo& field : reader.value().fields()) {
    // open() checked 1 <= chunk_extent <= shape[0]: this cannot wrap.
    if (field.raw_bytes / field.shape[0] * field.chunk_extent > kMaxChunkBytes) continue;
    for (std::size_t i = 0; i < field.chunk_count; ++i)
      (void)reader.value().read_chunk(field.name, i);
  }
}
