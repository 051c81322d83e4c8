#ifndef FRAZ_COMPRESSORS_SZX_SZX_HPP
#define FRAZ_COMPRESSORS_SZX_SZX_HPP

/// \file szx.hpp
/// SZx-style ultra-fast error-bounded compressor (Yu et al., see PAPERS.md).
///
/// The design trades ratio for speed: data is cut into fixed blocks of 128
/// scalars, each classified in one pass as *constant* (the whole block fits
/// inside the error bound around its midpoint — stored as a single scalar),
/// *packed* (uniform quantization against the block minimum, codes stored
/// with exactly the required bit width), or *raw* (non-finite values or
/// blocks whose code range exceeds 30 bits — scalars stored verbatim, so
/// NaN/Inf round-trip bit-exactly).  There is no prediction and no entropy
/// stage, which is precisely why a probe costs an order of magnitude less
/// than sz: one streaming pass with four-wide SIMD min/max and quantize
/// kernels (szx_kernels.hpp).
///
/// Error bound: absolute; every reconstructed finite value differs from the
/// input by at most `error_bound` (validated per element at encode time —
/// blocks that fail validation demote to raw storage, so the guarantee holds
/// unconditionally).

#include <cstdint>

#include "ndarray/ndarray.hpp"
#include "util/buffer.hpp"

namespace fraz {

/// Tuning knob of the szx coder.
struct SzxOptions {
  /// Absolute error bound (> 0, finite).
  double error_bound = 1e-3;
};

/// Compress into a sealed container in the caller's reusable \p out.
void szx_compress_into(const ArrayView& input, const SzxOptions& options, Buffer& out);

/// Validate and reconstruct.  Throws CorruptStream on malformed frames.
NdArray szx_decompress(const std::uint8_t* data, std::size_t size);

}  // namespace fraz

#endif  // FRAZ_COMPRESSORS_SZX_SZX_HPP
