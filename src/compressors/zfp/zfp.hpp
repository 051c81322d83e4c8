#ifndef FRAZ_COMPRESSORS_ZFP_ZFP_HPP
#define FRAZ_COMPRESSORS_ZFP_ZFP_HPP

/// \file zfp.hpp
/// Transform-based error-bounded lossy compressor in the style of ZFP
/// (Lindstrom, TVCG 2014), reproducing the two modes the FRaZ paper
/// exercises:
///
/// - **fixed-accuracy**: absolute error tolerance.  The minimum coded
///   bit-plane exponent is `emin = floor(log2(tolerance))` — the flooring the
///   paper calls out as the reason ZFP expresses only a step function of
///   compression ratios over the tolerance axis.
/// - **fixed-rate**: every 4^d block gets exactly `rate * 4^d` bits, enabling
///   random access but with markedly worse rate-distortion (the paper's
///   Figs. 1, 9, 10 baseline).
///
/// Pipeline per 4^d block: block-floating-point alignment to the block's
/// largest exponent, integer lifting transform, total-sequency ordering,
/// negabinary mapping, and embedded bit-plane coding with group testing.
/// Supports 1D/2D/3D, f32/f64.

#include <cstdint>

#include "ndarray/ndarray.hpp"
#include "util/buffer.hpp"

namespace fraz {

/// Compression mode, mirroring zfp_stream's accuracy/rate policies.
enum class ZfpMode : std::uint8_t {
  kAccuracy = 0,
  kFixedRate = 1,
};

/// Tuning knobs for the ZFP-like compressor.
struct ZfpOptions {
  ZfpMode mode = ZfpMode::kAccuracy;
  /// Absolute error tolerance (accuracy mode).  Must be > 0.
  double tolerance = 1e-3;
  /// Bits per value (fixed-rate mode).  Must be > 0; fractional rates allowed.
  double rate = 8.0;
};

/// Compress \p input (1D/2D/3D) into a sealed container in the caller's
/// reusable \p out (cleared first, capacity retained across calls).
void zfp_compress_into(const ArrayView& input, const ZfpOptions& options, Buffer& out);

/// Decompress a container produced by zfp_compress_into.
NdArray zfp_decompress(const std::uint8_t* data, std::size_t size);

}  // namespace fraz

#endif  // FRAZ_COMPRESSORS_ZFP_ZFP_HPP
