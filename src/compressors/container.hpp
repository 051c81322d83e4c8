#ifndef FRAZ_COMPRESSORS_CONTAINER_HPP
#define FRAZ_COMPRESSORS_CONTAINER_HPP

/// \file container.hpp
/// Shared on-disk framing for every compressor's output.
///
/// Layout:
///   u32     magic 'FRaZ'
///   u8      format version
///   u8      compressor id
///   u8      dtype (0 = f32, 1 = f64)
///   varint  ndims, then varint extents (slowest first)
///   varint  payload size
///   payload (compressor specific)
///   u32     CRC-32 over everything before it
///
/// The trailer checksum means a corrupted archive raises CorruptStream during
/// decompression instead of silently reconstructing garbage.

#include <cstdint>
#include <vector>

#include "ndarray/ndarray.hpp"
#include "util/buffer.hpp"

namespace fraz {

/// Identifies which compressor produced a container.
enum class CompressorId : std::uint8_t {
  kSz = 1,
  kZfp = 2,
  kMgard = 3,
  kTruncate = 4,
  kSzx = 5,
  kFpc = 6,
};

/// A frame's header fields: what the frame says it holds.
struct FrameHeader {
  CompressorId id;
  DType dtype;
  Shape shape;
  /// Format version of the frame.  1 for every backend's classic payload;
  /// 2 only for sz blocked payloads (the payload grammar changes with it,
  /// so the decoder routes on this field).  v1 stays decodable forever.
  std::uint8_t version = 1;
};

/// Parsed container: header fields plus a span of the payload.
struct Container : FrameHeader {
  const std::uint8_t* payload;
  std::size_t payload_size;
};

/// Serialize header + payload + checksum into a caller-owned, reusable
/// Buffer.  \p out is cleared first; its capacity is retained across calls,
/// so steady-state sealing performs no heap allocation.  \p version is the frame format
/// version to stamp; only sz may seal version 2 (see Container::version).
void seal_container_into(CompressorId id, DType dtype, const Shape& shape,
                         const std::uint8_t* payload, std::size_t payload_size, Buffer& out,
                         std::uint8_t version = 1);

/// Convenience over the pointer form for payloads already in a std::vector.
void seal_container_into(CompressorId id, DType dtype, const Shape& shape,
                         const std::vector<std::uint8_t>& payload, Buffer& out);

/// Validate and parse.  Throws CorruptStream on bad magic/version/checksum or
/// truncation, and Unsupported when \p expected does not match the stored id.
Container open_container(const std::uint8_t* data, std::size_t size, CompressorId expected);

/// Same validation without an expected-producer check: accepts any known
/// CompressorId (the archive reader learns the backend from the frame itself).
Container open_container(const std::uint8_t* data, std::size_t size);

/// Parse only the header, with the same checks as open_container but
/// without the CRC pass over the frame or any look at the payload.  A
/// caller that knows what the frame must hold (an archive reader, from its
/// manifest) compares it before any decoder sizes memory from the frame.
/// Throws CorruptStream.
FrameHeader read_frame_header(const std::uint8_t* data, std::size_t size);

}  // namespace fraz

#endif  // FRAZ_COMPRESSORS_CONTAINER_HPP
