#ifndef FRAZ_ARCHIVE_FORMAT_HPP
#define FRAZ_ARCHIVE_FORMAT_HPP

/// \file format.hpp
/// The archive wire codec shared by every transport: manifest and footer
/// encoding for the written layout (v3) and parsing for all three.
///
/// Writers emit only v3.  v1 and v2 are read-only: every reader still opens
/// them (through the same parse_footer / parse_manifest path), and frozen
/// fixtures under tests/corpus/archive_format/ keep that promise tested.
///
/// **Format v1** (read-only; manifest-first):
///
///   [manifest]   a standard Container frame (magic 'FRaZ', compressor id,
///                dtype, FULL logical shape, CRC-32) whose payload is:
///                  u32     archive magic 'FRzA'
///                  u8      archive format version (1)
///                  f64     target ratio ρt,  f64 epsilon ε
///                  varint  chunk extent,  varint chunk count
///                  per chunk: varint offset, varint size, f64 bound, u32 CRC
///   [chunks]     concatenated chunk payloads
///   [footer]     fixed 40 bytes: u32 magic 'FRzE', u64 manifest size,
///                u64 raw bytes, u64 archive bytes, f64 aggregate ratio,
///                u32 CRC-32 over the preceding 36 bytes
///
/// **Format v2** (read-only; single-field, chunks-first):
///
///   [chunks]     concatenated chunk payloads, starting at offset 0.  A
///                streaming writer appends each chunk as it finishes; nothing
///                upstream of a chunk ever needs rewriting.
///   [manifest]   a self-framed block (no Container wrapper, so the backend
///                no longer needs a built-in CompressorId):
///                  u32     manifest magic 'FRzM'
///                  u8      archive format version (2)
///                  u8      dtype tag (0 = f32, 1 = f64)
///                  varint  ndims, then varint extents (slowest first)
///                  varint  compressor-name length, then the registry name —
///                          user plugins round-trip through archives
///                  f64     target ratio ρt,  f64 epsilon ε
///                  varint  chunk extent,  varint chunk count
///                  per chunk: varint offset, varint size, f64 bound, u32 CRC
///                  u32     CRC-32 over every preceding manifest byte
///   [footer]     fixed 48 bytes at the very end:
///                  u32  footer magic 'FRz2'
///                  u64  manifest offset (= chunk region size)
///                  u64  manifest size
///                  u64  raw bytes of the original array
///                  u64  total archive bytes (self check)
///                  f64  achieved aggregate ratio (raw / archive)
///                  u32  CRC-32 over the 44 footer bytes before it
///
/// **Format v3** (written; multi-field, chunks-first — the streaming layout):
///
///   [chunks]     concatenated chunk payloads of EVERY field, in field write
///                order, starting at offset 0.  Fields are ingested one at a
///                time (push-based sessions), so each field's chunks form a
///                contiguous span and the spans tile the region in manifest
///                order.  Chunk offsets are absolute within the region.
///   [manifest]   a self-framed field table:
///                  u32     manifest magic 'FRzM'
///                  u8      archive format version (3)
///                  varint  field count
///                  per field:
///                    varint  name length, then the field name (unique)
///                    u8      dtype tag (0 = f32, 1 = f64)
///                    varint  ndims, then varint extents (slowest first)
///                    varint  compressor-name length, then the registry name
///                    f64     target ratio ρt,  f64 epsilon ε
///                    f64     per-field aggregate payload ratio (raw/payload)
///                    varint  chunk extent,  varint chunk count
///                    per chunk: varint offset, varint size, f64 bound, u32 CRC
///                  u32     CRC-32 over every preceding manifest byte
///   [footer]     the same 48-byte 'FRz2' trailer as v2 (raw/archive bytes
///                are totals across fields); the manifest's version byte is
///                what distinguishes a v3 archive from a v2 one.
///
/// A reader locates the footer from the end of the byte stream (v2/v3 trailer
/// tried first, then v1), so all layouts stay readable through one parse path.

#include <cstdint>
#include <string>
#include <vector>

#include "compressors/container.hpp"
#include "ndarray/ndarray.hpp"
#include "util/buffer.hpp"

namespace fraz::archive {

/// Format version every writer emits (the multi-field field-table manifest).
inline constexpr std::uint8_t kFormatVersionMultiField = 3;

/// Field name single-field (v1/v2) archives are presented under, and the
/// name the single-array write() ingests as.
inline constexpr const char* kDefaultFieldName = "data";

/// Maximum fields a v3 archive may hold — enforced symmetrically by the
/// writer (open_field) and the parser, so a build that succeeds always
/// produces an archive its own readers open.
inline constexpr std::size_t kMaxFields = 4096;

/// Size of the fixed trailer of the current (v2/v3) formats.
inline constexpr std::size_t kFooterBytes = 48;

/// Size of the v1 trailer (still readable).
inline constexpr std::size_t kFooterBytesV1 = 40;

/// One chunk's entry as recorded in (or parsed from) the manifest.
struct ChunkEntry {
  std::size_t offset = 0;     ///< from the start of the chunk region
  std::size_t size = 0;       ///< compressed bytes
  /// Pointwise error bound the chunk was compressed at; 0 when the payload
  /// honours no pointwise bound (a ZFP rate-mode fallback chunk).
  double error_bound = 0;
  std::uint32_t crc = 0;      ///< CRC-32 of the chunk's bytes
};

/// One named field of an archive: its geometry, backend, tuning band, and
/// chunk index.  v1/v2 archives present their single array as a field named
/// kDefaultFieldName so every reader API is uniform across versions.
struct FieldInfo {
  std::string name;
  std::string compressor;       ///< registry name of the backend
  DType dtype{};
  Shape shape;                  ///< full logical shape of this field
  std::size_t chunk_extent = 0;
  std::size_t chunk_count = 0;
  double target_ratio = 0;
  double epsilon = 0;
  std::size_t raw_bytes = 0;    ///< uncompressed bytes of this field
  std::size_t payload_bytes = 0;///< sum of this field's chunk sizes
  double payload_ratio = 0;     ///< per-field aggregate: raw / payload bytes
  std::vector<ChunkEntry> chunks;  ///< offsets absolute within the chunk region
};

/// Parsed archive metadata (manifest + footer; chunk payloads untouched).
/// The flat members mirror fields[0] (every archive has at least one field),
/// so single-field consumers keep working; totals (raw_bytes, archive_bytes,
/// achieved_ratio) always come from the footer and cover every field.
struct ArchiveInfo {
  std::uint8_t version = 0;     ///< on-disk format version (1, 2, or 3)
  std::string compressor;       ///< registry name of fields[0]'s backend
  DType dtype{};
  Shape shape;                  ///< full logical shape of fields[0]
  std::size_t chunk_region = 0; ///< byte offset where the chunk region starts
  std::size_t chunk_extent = 0;
  std::size_t chunk_count = 0;
  double target_ratio = 0;
  double epsilon = 0;
  std::size_t raw_bytes = 0;    ///< total raw bytes across every field
  std::size_t archive_bytes = 0;
  double achieved_ratio = 0;    ///< aggregate ratio recorded in the footer
  std::vector<ChunkEntry> chunks;  ///< fields[0]'s chunk index
  std::vector<FieldInfo> fields;   ///< every field (size 1 for v1/v2)
};

/// Parsed footer: the trust anchor that locates the other two regions.
struct Footer {
  /// Trailer layout (1 or 2).  v3 archives share the v2 trailer — the
  /// manifest's own version byte is what distinguishes them.
  std::uint8_t version = 0;
  std::size_t footer_bytes = 0;    ///< 40 (v1) or 48 (v2)
  std::size_t manifest_offset = 0;
  std::size_t manifest_size = 0;
  std::size_t chunk_region = 0;    ///< where chunk payloads start
  std::size_t region_bytes = 0;    ///< total chunk payload bytes
  std::uint64_t raw_bytes = 0;
  std::uint64_t archive_bytes = 0;
  double achieved_ratio = 0;
};

/// Registry name of a container CompressorId ("sz", "zfp", ...) — how a v1
/// manifest names its backend.
std::string backend_name(CompressorId id);

/// Encode the v3 multi-field manifest (field table) into \p out (cleared
/// first).  Field names must be unique, 1..256 bytes; chunk offsets must be
/// absolute within the chunk region and tile it in field order.
void encode_manifest_fields(const std::vector<FieldInfo>& fields, Buffer& out);

/// Field named \p name in \p info, or nullptr when absent.
const FieldInfo* find_field(const ArchiveInfo& info, const std::string& name) noexcept;

/// Append the fixed 48-byte 'FRz2' trailer to \p out.
void encode_footer(std::size_t manifest_offset, std::size_t manifest_size,
                   std::uint64_t raw_bytes, std::uint64_t archive_bytes,
                   double achieved_ratio, Buffer& out);

/// Parse and validate the trailer from the archive's final bytes.  \p tail
/// must hold the last min(kFooterBytes, total_size) bytes of the stream and
/// \p total_size the full archive size.  Tries the v2 trailer first, then
/// v1; throws CorruptStream when neither validates or the recorded geometry
/// is inconsistent with \p total_size.
Footer parse_footer(const std::uint8_t* tail, std::size_t tail_size,
                    std::uint64_t total_size);

/// Parse and validate the manifest block located by \p footer (both
/// layouts), returning the fully populated ArchiveInfo.  Throws
/// CorruptStream on any checksum, framing, or consistency failure.
ArchiveInfo parse_manifest(const std::uint8_t* manifest, std::size_t size,
                           const Footer& footer);

}  // namespace fraz::archive

#endif  // FRAZ_ARCHIVE_FORMAT_HPP
