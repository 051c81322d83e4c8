#ifndef FRAZ_COMPRESSORS_SZ_SZ_HPP
#define FRAZ_COMPRESSORS_SZ_SZ_HPP

/// \file sz.hpp
/// Prediction-based error-bounded lossy compressor in the style of SZ 2.x
/// (Di & Cappello IPDPS'16; Tao et al. IPDPS'17; Liang et al. Big Data'18).
///
/// The four-stage pipeline matches the paper's description of SZ:
///  1. blockwise hybrid prediction — a 1-layer Lorenzo predictor on
///     *reconstructed* neighbours, or a per-block linear regression plane
///     (2D/3D), whichever fits the block better;
///  2. linear-scaling quantization of the prediction residual into
///     `2^16`-entry integer codes with an "unpredictable" escape that stores
///     the exact scalar;
///  3. custom Huffman coding of the quantization codes;
///  4. an LZ77 dictionary-coder pass over the whole payload (the Gzip/Zstd
///     stage).
///
/// Because prediction runs on reconstructed values and stages 3-4 interact,
/// the compression ratio is *not* monotonic in the error bound — exactly the
/// property (paper Fig. 3) that motivates FRaZ's global search instead of
/// binary search.
///
/// Guarantee: for every element, |original - decompressed| <= error_bound
/// (verified at encode time after float rounding; violators are escaped).

#include <cstdint>

#include "ndarray/ndarray.hpp"
#include "util/buffer.hpp"

namespace fraz {

/// Execution mode of the sz pipeline.
enum class SzMode : std::uint8_t {
  /// The classic four-stage pipeline above (payload format v1): global
  /// Lorenzo feedback, single-state rANS, LZ stage.
  kSerial = 0,
  /// Blocked fused pipeline (payload format v2): prediction state never
  /// crosses a fixed-size block boundary, predict->quantize->entropy fuse
  /// per block group, and each group carries an independent 8-way
  /// interleaved rANS stream — so groups encode and decode in parallel with
  /// byte-identical output at any thread count.  No LZ stage (the
  /// interleaved coder reaches order-0 entropy on its own; the small
  /// dictionary gain is traded for the parallel/fused speedup).
  kBlocked = 1,
};

/// Tuning knobs for the SZ-like compressor.
struct SzOptions {
  /// Absolute error bound; must be > 0 and finite.
  double error_bound = 1e-3;
  /// Enable the per-block regression predictor (2D/3D only).
  bool regression = true;
  /// Pipeline selection; affects *encode* only (decode routes on the frame
  /// version, so either instance decodes both formats).
  SzMode mode = SzMode::kSerial;
  /// Intra-chunk worker cap for blocked encode/decode (workers drawn from
  /// the caller's pool via parallel_for_shared, caller included).  0 or 1
  /// runs inline.  Output bytes are identical at every setting.
  unsigned threads = 0;
};

/// Compress \p input (1D/2D/3D, f32/f64) into a sealed container in the
/// caller's reusable \p out (cleared first, capacity retained across calls).
void sz_compress_into(const ArrayView& input, const SzOptions& options, Buffer& out);

/// Decompress a container produced by sz_compress_into (either format
/// version; the frame says which).  \p threads caps intra-chunk decode parallelism
/// for v2 frames (0 or 1 = inline; v1 frames always decode serially).
NdArray sz_decompress(const std::uint8_t* data, std::size_t size, unsigned threads = 0);

}  // namespace fraz

#endif  // FRAZ_COMPRESSORS_SZ_SZ_HPP
