#ifndef FRAZ_COMPRESSORS_SZ_SZ_BLOCKED_HPP
#define FRAZ_COMPRESSORS_SZ_SZ_BLOCKED_HPP

/// \file sz_blocked.hpp
/// The sz blocked pipeline (payload format v2, container version 2).
///
/// Where the v1 pipeline threads one Lorenzo feedback chain and one rANS
/// state through the whole field, v2 makes both block-local so the field
/// splits into independently codable pieces:
///
///  * prediction blocks — 16^3 (3D), 32^2 (2D), 1024 (1D) — whose Lorenzo /
///    regression state never crosses a block boundary (out-of-block
///    neighbours predict as zero, so only each block's first corner starts
///    cold);
///  * block groups — greedy runs of consecutive row-major blocks totalling
///    >= kGroupTargetElems elements — each carrying its own flag/coefficient
///    /entropy/raw sections, with the quantization codes in an 8-way
///    interleaved rANS stream (codec/rans_interleaved.hpp);
///  * predict -> quantize -> entropy fused per group: codes go straight from
///    the block loops into the group's coder without a field-sized
///    intermediate pass, and there is no LZ stage.
///
/// Grouping is a pure function of the shape, so the payload is byte-identical
/// at every thread count; groups touch disjoint output elements, so encode
/// and decode parallelize freely over the caller's pool (parallel_for_shared).
///
/// v2 payload grammar (inside the standard container frame, version byte 2):
///   f64     error bound (IEEE bits, little endian)
///   u8      regression enabled (informational, like v1)
///   varint  group count (must equal the shape-derived grouping)
///   per group:
///     varint blob size, blob:
///       varint flags size,   flag bytes (bit per block, 1 = regression)
///       varint coeffs size,  zigzag varint quadruples per regression block
///       varint entropy size, interleaved-rANS stream of the group's codes
///       varint raws size,    escaped scalars verbatim in visit order
///
/// Internal to the sz backend — callers go through sz_compress_into /
/// sz_decompress, which validate and dispatch on SzOptions::mode / the frame
/// version.

#include <cstddef>

#include "compressors/container.hpp"
#include "compressors/sz/sz.hpp"

namespace fraz {

namespace szb {

/// Prediction-block edge of the v2 format.  Larger than v1's (6/12/256):
/// block-local prediction pays a cold boundary per block, so bigger blocks
/// amortize it; the inner-axis edge stays <= 32 (2D/3D) to fit the
/// 32-lane escape masks of the sz kernels.
constexpr std::size_t blocked_edge(unsigned dims) noexcept {
  return dims == 3 ? 16 : dims == 2 ? 32 : 1024;
}

/// Minimum elements per block group.  Big enough that each group's
/// interleaved-rANS table cost (alphabet + 32 flush bytes) is noise, small
/// enough that typical chunks split into many parallel units.
constexpr std::size_t kGroupTargetElems = 32768;

}  // namespace szb

/// Encode \p input as a v2 frame.  Pre-validated by sz_compress_into.
void sz_blocked_compress_into(const ArrayView& input, const SzOptions& options, Buffer& out);

/// Decode a v2 frame (container version 2, id kSz) opened by the caller.
/// \p threads caps intra-chunk parallelism; output is identical at any value.
NdArray sz_blocked_decompress(const Container& c, unsigned threads);

}  // namespace fraz

#endif  // FRAZ_COMPRESSORS_SZ_SZ_BLOCKED_HPP
