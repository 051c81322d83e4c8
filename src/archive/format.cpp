#include "archive/format.hpp"

#include <limits>

#include "codec/checksum.hpp"
#include "codec/varint.hpp"
#include "util/error.hpp"

namespace fraz::archive {

namespace {

constexpr std::uint32_t kArchiveMagic = 0x417a5246u;   // "FRzA" little-endian
constexpr std::uint32_t kManifestMagic = 0x4d7a5246u;  // "FRzM" little-endian
constexpr std::uint32_t kFooterMagicV1 = 0x457a5246u;  // "FRzE" little-endian
constexpr std::uint32_t kFooterMagicV2 = 0x327a5246u;  // "FRz2" little-endian

void encode_chunk_index(const std::vector<ChunkEntry>& chunks, Buffer& out) {
  put_varint(out, chunks.size());
  for (const ChunkEntry& entry : chunks) {
    put_varint(out, entry.offset);
    put_varint(out, entry.size);
    put_f64(out, entry.error_bound);
    put_u32(out, entry.crc);
  }
}

/// Overflow-checked shape-elements × element-size.  A corrupt manifest may
/// carry extents whose product wraps 64 bits — a wrapped raw_bytes would
/// defeat the footer's raw-size cross-check and undersize reader buffers.
std::size_t checked_raw_bytes(const Shape& shape, DType dtype) {
  std::uint64_t bytes = dtype_size(dtype);
  for (const std::size_t d : shape) {
    if (d == 0) throw CorruptStream("archive: zero extent");
    if (bytes > std::numeric_limits<std::uint64_t>::max() / d)
      throw CorruptStream("archive: field shape overflows");
    bytes *= d;
  }
  if (bytes > std::numeric_limits<std::size_t>::max())
    throw CorruptStream("archive: field shape overflows");
  return static_cast<std::size_t>(bytes);
}

/// Parse one field's chunk index (shared by every manifest layout),
/// validating contiguity from \p running — absolute within the chunk region,
/// so multi-field spans chain through it — geometry against the field, and
/// every entry against \p region_bytes so no chunk can point past the file's
/// chunk region (the tiling invariant holds entry by entry, not just in the
/// final total).
void parse_field_chunk_index(ByteReader& in, FieldInfo& field, std::size_t& running,
                             std::size_t region_bytes) {
  field.chunk_count = in.varint();
  const std::size_t n0 = field.shape[0];
  if (field.chunk_extent == 0 || field.chunk_extent > n0)
    throw CorruptStream("archive: bad chunk extent");
  if (field.chunk_count != (n0 + field.chunk_extent - 1) / field.chunk_extent)
    throw CorruptStream("archive: chunk count does not match shape");
  field.raw_bytes = checked_raw_bytes(field.shape, field.dtype);
  field.payload_bytes = 0;
  // A chunk entry is at least 14 encoded bytes (two 1-byte varints, an f64,
  // a u32): a count the remaining manifest cannot possibly hold is corrupt,
  // and rejecting it here keeps the reserve below proportional to the input
  // instead of attacker-chosen.
  if (field.chunk_count > in.remaining() / 14)
    throw CorruptStream("archive: chunk count exceeds manifest size");
  field.chunks.reserve(field.chunk_count);
  for (std::size_t i = 0; i < field.chunk_count; ++i) {
    ChunkEntry entry;
    entry.offset = in.varint();
    entry.size = in.varint();
    entry.error_bound = in.f64();
    entry.crc = in.u32();
    if (entry.offset != running || entry.size == 0)
      throw CorruptStream("archive: chunk index is not contiguous");
    if (entry.size > region_bytes - running)
      throw CorruptStream("archive: chunk entry past end of chunk region");
    running += entry.size;
    field.payload_bytes += entry.size;
    field.chunks.push_back(entry);
  }
}

/// Mirror fields[0] into the flat single-field members and sanity-check the
/// totals the footer recorded against what the field table implies.
void finalize_fields(ArchiveInfo& info, const Footer& footer, std::size_t running) {
  if (running != footer.region_bytes)
    throw CorruptStream("archive: chunk region size mismatch");
  std::size_t raw_total = 0;
  for (const FieldInfo& field : info.fields) raw_total += field.raw_bytes;
  if (raw_total != footer.raw_bytes)
    throw CorruptStream("archive: raw size does not match the field shapes");
  const FieldInfo& first = info.fields.front();
  info.compressor = first.compressor;
  info.dtype = first.dtype;
  info.shape = first.shape;
  info.chunk_extent = first.chunk_extent;
  info.chunk_count = first.chunk_count;
  info.target_ratio = first.target_ratio;
  info.epsilon = first.epsilon;
  info.chunks = first.chunks;
}

bool try_parse_footer_v2(const std::uint8_t* tail, std::size_t tail_size,
                         std::uint64_t total_size, Footer& footer) {
  if (tail_size < kFooterBytes) return false;
  const std::uint8_t* base = tail + tail_size - kFooterBytes;
  ByteReader in(base, kFooterBytes, "archive");
  if (in.u32() != kFooterMagicV2) return false;
  const std::uint64_t manifest_offset = in.u64();
  const std::uint64_t manifest_size = in.u64();
  const std::uint64_t raw_bytes = in.u64();
  const std::uint64_t archive_bytes = in.u64();
  const double achieved_ratio = in.f64();
  if (crc32(base, kFooterBytes - 4) != in.u32()) return false;
  if (archive_bytes != total_size) throw CorruptStream("archive: size mismatch");
  if (manifest_offset > total_size || manifest_size > total_size - manifest_offset ||
      manifest_offset + manifest_size != total_size - kFooterBytes)
    throw CorruptStream("archive: manifest location out of range");
  footer.version = 2;
  footer.footer_bytes = kFooterBytes;
  footer.manifest_offset = static_cast<std::size_t>(manifest_offset);
  footer.manifest_size = static_cast<std::size_t>(manifest_size);
  footer.chunk_region = 0;
  footer.region_bytes = static_cast<std::size_t>(manifest_offset);
  footer.raw_bytes = raw_bytes;
  footer.archive_bytes = archive_bytes;
  footer.achieved_ratio = achieved_ratio;
  return true;
}

bool try_parse_footer_v1(const std::uint8_t* tail, std::size_t tail_size,
                         std::uint64_t total_size, Footer& footer) {
  if (tail_size < kFooterBytesV1) return false;
  const std::uint8_t* base = tail + tail_size - kFooterBytesV1;
  ByteReader in(base, kFooterBytesV1, "archive");
  if (in.u32() != kFooterMagicV1) return false;
  const std::uint64_t manifest_size = in.u64();
  const std::uint64_t raw_bytes = in.u64();
  const std::uint64_t archive_bytes = in.u64();
  const double achieved_ratio = in.f64();
  if (crc32(base, kFooterBytesV1 - 4) != in.u32()) return false;
  if (archive_bytes != total_size) throw CorruptStream("archive: size mismatch");
  if (manifest_size < 12 || manifest_size > total_size - kFooterBytesV1)
    throw CorruptStream("archive: manifest size out of range");
  footer.version = 1;
  footer.footer_bytes = kFooterBytesV1;
  footer.manifest_offset = 0;
  footer.manifest_size = static_cast<std::size_t>(manifest_size);
  footer.chunk_region = static_cast<std::size_t>(manifest_size);
  footer.region_bytes =
      static_cast<std::size_t>(total_size - manifest_size - kFooterBytesV1);
  footer.raw_bytes = raw_bytes;
  footer.archive_bytes = archive_bytes;
  footer.achieved_ratio = achieved_ratio;
  return true;
}

}  // namespace

std::string backend_name(CompressorId id) {
  switch (id) {
    case CompressorId::kSz: return "sz";
    case CompressorId::kZfp: return "zfp";
    case CompressorId::kMgard: return "mgard";
    case CompressorId::kTruncate: return "truncate";
    case CompressorId::kSzx: return "szx";
    case CompressorId::kFpc: return "fpc";
  }
  throw Unsupported("archive: unknown compressor id");
}

void encode_footer(std::size_t manifest_offset, std::size_t manifest_size,
                   std::uint64_t raw_bytes, std::uint64_t archive_bytes,
                   double achieved_ratio, Buffer& out) {
  const std::size_t base = out.size();
  put_u32(out, kFooterMagicV2);
  put_u64(out, manifest_offset);
  put_u64(out, manifest_size);
  put_u64(out, raw_bytes);
  put_u64(out, archive_bytes);
  put_f64(out, achieved_ratio);
  put_u32(out, crc32(out.data() + base, out.size() - base));
}

Footer parse_footer(const std::uint8_t* tail, std::size_t tail_size,
                    std::uint64_t total_size) {
  if (total_size < kFooterBytesV1 + 12 || tail_size > total_size)
    throw CorruptStream("archive: too small");
  Footer footer;
  if (try_parse_footer_v2(tail, tail_size, total_size, footer)) return footer;
  if (try_parse_footer_v1(tail, tail_size, total_size, footer)) return footer;
  throw CorruptStream("archive: bad or corrupt footer");
}

namespace {

/// Read a length-prefixed string (shared by the v2 compressor name and the
/// v3 name fields).
std::string parse_short_string(ByteReader& in, const char* what) {
  const std::uint64_t length = in.varint();
  if (length == 0 || length > 256) throw CorruptStream(std::string("archive: bad ") + what);
  return {reinterpret_cast<const char*>(in.take(length)), static_cast<std::size_t>(length)};
}

DType parse_dtype_tag(std::uint8_t tag) {
  if (tag > 1) throw CorruptStream("archive: bad dtype tag");
  return tag == 0 ? DType::kFloat32 : DType::kFloat64;
}

Shape parse_shape(ByteReader& in) {
  const std::uint64_t ndims = in.varint();
  if (ndims == 0 || ndims > 8) in.fail("bad rank");
  Shape shape(ndims);
  for (auto& d : shape) {
    d = in.varint();
    if (d == 0) in.fail("zero extent");
  }
  return shape;
}

}  // namespace

void encode_manifest_fields(const std::vector<FieldInfo>& fields, Buffer& out) {
  require(!fields.empty(), "archive: a v3 manifest needs at least one field");
  out.clear();
  put_u32(out, kManifestMagic);
  out.push_back(3);
  put_varint(out, fields.size());
  for (const FieldInfo& field : fields) {
    require(!field.name.empty() && field.name.size() <= 256,
            "archive: field name must be 1..256 bytes");
    put_varint(out, field.name.size());
    out.append(field.name.data(), field.name.size());
    out.push_back(field.dtype == DType::kFloat32 ? 0 : 1);
    put_varint(out, field.shape.size());
    for (std::size_t d : field.shape) put_varint(out, d);
    put_varint(out, field.compressor.size());
    out.append(field.compressor.data(), field.compressor.size());
    put_f64(out, field.target_ratio);
    put_f64(out, field.epsilon);
    put_f64(out, field.payload_ratio);
    put_varint(out, field.chunk_extent);
    encode_chunk_index(field.chunks, out);
  }
  put_u32(out, crc32(out.data(), out.size()));
}

const FieldInfo* find_field(const ArchiveInfo& info, const std::string& name) noexcept {
  for (const FieldInfo& field : info.fields)
    if (field.name == name) return &field;
  return nullptr;
}

ArchiveInfo parse_manifest(const std::uint8_t* manifest, std::size_t size,
                           const Footer& footer) {
  ArchiveInfo info;
  info.raw_bytes = static_cast<std::size_t>(footer.raw_bytes);
  info.archive_bytes = static_cast<std::size_t>(footer.archive_bytes);
  info.achieved_ratio = footer.achieved_ratio;
  info.chunk_region = footer.chunk_region;

  if (footer.version == 1) {
    const Container frame = open_container(manifest, size);
    info.version = 1;
    FieldInfo field;
    field.name = kDefaultFieldName;
    field.compressor = backend_name(frame.id);
    field.dtype = frame.dtype;
    field.shape = frame.shape;
    ByteReader in(frame.payload, frame.payload_size, "archive");
    if (in.u32() != kArchiveMagic) in.fail("bad manifest magic");
    if (in.u8() != 1) in.fail("unsupported format version");
    field.target_ratio = in.f64();
    field.epsilon = in.f64();
    field.chunk_extent = in.varint();
    std::size_t running = 0;
    parse_field_chunk_index(in, field, running, footer.region_bytes);
    in.expect_end("trailing manifest bytes");
    field.payload_ratio = static_cast<double>(field.raw_bytes) /
                          static_cast<double>(field.payload_bytes);
    info.fields.push_back(std::move(field));
    finalize_fields(info, footer, running);
    return info;
  }

  // v2/v3: self-framed manifest block with its own trailing CRC; the version
  // byte after the magic selects the single-field or field-table body.
  ByteReader in(manifest, size, "archive");
  if (size < 16) in.fail("truncated manifest");
  if (in.u32() != kManifestMagic) in.fail("bad manifest magic");
  const std::uint32_t stored_crc = in.trailer(4).u32();
  if (crc32(manifest, size - 4) != stored_crc) in.fail("manifest checksum mismatch");
  info.version = in.u8();

  if (info.version == 2) {
    FieldInfo field;
    field.name = kDefaultFieldName;
    field.dtype = parse_dtype_tag(in.u8());
    field.shape = parse_shape(in);
    field.compressor = parse_short_string(in, "compressor name");
    field.target_ratio = in.f64();
    field.epsilon = in.f64();
    field.chunk_extent = in.varint();
    std::size_t running = 0;
    parse_field_chunk_index(in, field, running, footer.region_bytes);
    in.expect_end("trailing manifest bytes");
    field.payload_ratio = static_cast<double>(field.raw_bytes) /
                          static_cast<double>(field.payload_bytes);
    info.fields.push_back(std::move(field));
    finalize_fields(info, footer, running);
    return info;
  }

  if (info.version != 3) throw CorruptStream("archive: unsupported format version");
  const std::uint64_t field_count = in.varint();
  if (field_count == 0 || field_count > kMaxFields)
    throw CorruptStream("archive: bad field count");
  std::size_t running = 0;
  info.fields.reserve(static_cast<std::size_t>(field_count));
  for (std::uint64_t i = 0; i < field_count; ++i) {
    FieldInfo field;
    field.name = parse_short_string(in, "field name");
    if (find_field(info, field.name))
      throw CorruptStream("archive: duplicate field name '" + field.name + "'");
    field.dtype = parse_dtype_tag(in.u8());
    field.shape = parse_shape(in);
    field.compressor = parse_short_string(in, "compressor name");
    field.target_ratio = in.f64();
    field.epsilon = in.f64();
    field.payload_ratio = in.f64();
    field.chunk_extent = in.varint();
    parse_field_chunk_index(in, field, running, footer.region_bytes);
    info.fields.push_back(std::move(field));
  }
  in.expect_end("trailing manifest bytes");
  finalize_fields(info, footer, running);
  return info;
}

}  // namespace fraz::archive
