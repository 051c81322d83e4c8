#ifndef FRAZ_PRESSIO_EVALUATE_HPP
#define FRAZ_PRESSIO_EVALUATE_HPP

/// \file evaluate.hpp
/// A full fidelity evaluation (ratio + distortion metrics) layered on the
/// compressor interface, used by Engine::evaluate, the benches and examples.
/// The tuner measures ratios through core/probe.hpp's ProbeExecutor.

#include "pressio/compressor.hpp"

namespace fraz::pressio {

/// The compression half of a fidelity evaluation.
struct RatioProbe {
  std::size_t input_bytes = 0;
  std::size_t compressed_bytes = 0;
  double ratio = 0;        ///< input/compressed
  double bit_rate = 0;     ///< bits per scalar
  double seconds = 0;      ///< wall time of the compress call
};

/// Full quality evaluation (compress + decompress + metrics).
struct FidelityReport {
  RatioProbe probe;
  double psnr_db = 0;
  double rmse = 0;
  double max_abs_error = 0;
  double ssim = 0;        ///< NaN for 1D inputs (SSIM needs 2D structure)
  double acf_error = 0;   ///< lag-1 autocorrelation of the error field
  double seconds_decompress = 0;
};

/// Compress and decompress once at the compressor's current settings and
/// compute every paper metric.  A failing codec comes back as its Status.
Result<FidelityReport> evaluate_fidelity(const Compressor& compressor,
                                         const ArrayView& input) noexcept;

}  // namespace fraz::pressio

#endif  // FRAZ_PRESSIO_EVALUATE_HPP
