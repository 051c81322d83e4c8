#include "compressors/container.hpp"

#include <limits>

#include "codec/checksum.hpp"
#include "codec/varint.hpp"
#include "util/error.hpp"

namespace fraz {

namespace {
constexpr std::uint32_t kMagic = 0x5a615246u;  // "FRaZ" little-endian
constexpr std::uint8_t kVersion = 1;
}  // namespace

void seal_container_into(CompressorId id, DType dtype, const Shape& shape,
                         const std::uint8_t* payload, std::size_t payload_size, Buffer& out,
                         std::uint8_t version) {
  out.clear();
  out.reserve(payload_size + 32);
  put_u32(out, kMagic);
  out.push_back(version);
  out.push_back(static_cast<std::uint8_t>(id));
  out.push_back(dtype == DType::kFloat32 ? 0 : 1);
  put_varint(out, shape.size());
  for (std::size_t d : shape) put_varint(out, d);
  put_varint(out, payload_size);
  out.append(payload, payload_size);
  put_u32(out, crc32(out.data(), out.size()));
}

void seal_container_into(CompressorId id, DType dtype, const Shape& shape,
                         const std::vector<std::uint8_t>& payload, Buffer& out) {
  seal_container_into(id, dtype, shape, payload.data(), payload.size(), out);
}

namespace {

/// Check the size floor and the magic; leaves \p in after the magic.
void check_magic(ByteReader& in, std::size_t size) {
  if (size < 12) in.fail("too small");
  if (in.u32() != kMagic) in.fail("bad magic");
}

/// The header fields after the magic, up to (not including) the payload
/// size.
FrameHeader read_header_fields(ByteReader& in) {
  const std::uint8_t version = in.u8();
  const std::uint8_t id_tag = in.u8();
  const std::uint8_t dtype_tag = in.u8();
  // Version 2 exists only for sz blocked payloads; every other backend is
  // pinned to version 1 so an unknown (version, id) pair fails loudly here
  // instead of misparsing downstream.
  if (version != kVersion &&
      !(version == 2 && id_tag == static_cast<std::uint8_t>(CompressorId::kSz)))
    in.fail("unsupported version");
  if (dtype_tag > 1) in.fail("bad dtype tag");
  if (id_tag < static_cast<std::uint8_t>(CompressorId::kSz) ||
      id_tag > static_cast<std::uint8_t>(CompressorId::kFpc))
    in.fail("unknown compressor id");

  FrameHeader h;
  h.id = static_cast<CompressorId>(id_tag);
  h.dtype = dtype_tag == 0 ? DType::kFloat32 : DType::kFloat64;
  h.version = version;
  const std::uint64_t ndims = in.varint();
  if (ndims == 0 || ndims > 8) in.fail("bad rank");
  h.shape.resize(ndims);
  std::size_t elements = 1;
  for (auto& d : h.shape) {
    d = in.varint();
    if (d == 0) in.fail("zero extent");
    // Decoders size their output from the shape: its f64 byte count must
    // not wrap.
    if (d > std::numeric_limits<std::size_t>::max() / 8 / elements) in.fail("shape overflows");
    elements *= d;
  }
  return h;
}

Container open_container_impl(const std::uint8_t* data, std::size_t size,
                              const CompressorId* expected) {
  ByteReader in(data, size, "container");
  check_magic(in, size);
  const std::uint32_t stored_crc = in.trailer(4).u32();
  if (crc32(data, size - 4) != stored_crc) in.fail("checksum mismatch");

  Container c;
  static_cast<FrameHeader&>(c) = read_header_fields(in);
  c.payload_size = in.varint();
  c.payload = in.take(c.payload_size, "payload size mismatch");
  in.expect_end("payload size mismatch");
  // A frame is corrupt before it is foreign: the producer check comes last.
  if (expected && c.id != *expected)
    throw Unsupported("container: produced by a different compressor");
  return c;
}

}  // namespace

Container open_container(const std::uint8_t* data, std::size_t size, CompressorId expected) {
  return open_container_impl(data, size, &expected);
}

Container open_container(const std::uint8_t* data, std::size_t size) {
  return open_container_impl(data, size, nullptr);
}

FrameHeader read_frame_header(const std::uint8_t* data, std::size_t size) {
  ByteReader in(data, size, "container");
  check_magic(in, size);
  return read_header_fields(in);
}

}  // namespace fraz
