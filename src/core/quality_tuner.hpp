#ifndef FRAZ_CORE_QUALITY_TUNER_HPP
#define FRAZ_CORE_QUALITY_TUNER_HPP

/// \file quality_tuner.hpp
/// The paper's first future-work item (§VII): tuning to *analysis-quality*
/// targets instead of a compression ratio — "error bounds that correspond
/// with the quality of a scientist's analysis result ... such as a
/// particular SSIM in lossy compressed data required for valid results".
///
/// The machinery is FRaZ's: a black-box objective over the error bound,
/// driven through the shared tuning stack — an ask/tell `opt::SearchState`
/// whose quality probes (compress + decompress + metric) run through the
/// same `ProbeExecutor` and per-search `ProbeMemo` the ratio tuner uses.
/// The tuner finds the *largest* bound (best ratio) whose quality still
/// clears the floor.  (`QualityMetric` now lives in core/probe.hpp, next to
/// the probe that measures it.)

#include <cstdint>

#include "core/probe.hpp"
#include "ndarray/ndarray.hpp"
#include "pressio/compressor.hpp"

namespace fraz {

/// Configuration of a quality-floor search.
struct QualityTunerConfig {
  QualityMetric metric = QualityMetric::kPsnrDb;
  /// Minimum acceptable quality (e.g. 60 dB, or SSIM 0.95).
  double quality_floor = 60.0;
  /// Relative slack: quality in [floor, floor * (1 + slack)] stops the
  /// search early (close enough to the floor = near-optimal ratio).
  double slack = 0.05;
  /// Search range for the bound; 0 = auto (data value range, floor*1e-9).
  double max_error_bound = 0;
  double min_error_bound = 0;
  /// Evaluation cap: each evaluation is a compress+decompress+metric pass.
  int max_evals = 32;
  std::uint64_t seed = 0x514c4954;  // "QLIT"
};

/// Result of a quality-floor search.
struct QualityTuneResult {
  double error_bound = 0;     ///< largest bound found meeting the floor
  double quality = 0;         ///< metric value at that bound
  double achieved_ratio = 0;  ///< compression ratio at that bound
  bool met_floor = false;     ///< true when quality >= floor
  int evaluations = 0;        ///< compress+decompress passes spent
};

/// Find the most aggressive error bound whose reconstruction quality still
/// meets the floor.  Throws InvalidArgument for unsupported metric/rank
/// combinations (SSIM on 1D data) and nonsensical configs.
QualityTuneResult tune_for_quality(const pressio::Compressor& compressor,
                                   const ArrayView& data, const QualityTunerConfig& config);

}  // namespace fraz

#endif  // FRAZ_CORE_QUALITY_TUNER_HPP
