#include "core/quality_tuner.hpp"

#include <cmath>

#include "opt/global_search.hpp"
#include "util/error.hpp"

namespace fraz {

QualityTuneResult tune_for_quality(const pressio::Compressor& compressor,
                                   const ArrayView& data, const QualityTunerConfig& config) {
  require(config.quality_floor > 0, "tune_for_quality: quality_floor must be positive");
  require(config.slack >= 0, "tune_for_quality: slack must be >= 0");
  require(config.max_evals >= 2, "tune_for_quality: max_evals must be >= 2");
  if (config.metric == QualityMetric::kSsim)
    require(data.dims() >= 2, "tune_for_quality: SSIM requires 2D/3D data");
  require(compressor.supports_dims(data.dims()),
          "tune_for_quality: compressor does not support this rank");

  double hi = config.max_error_bound;
  if (hi <= 0) {
    hi = value_range(data);
    if (hi <= 0) hi = 1.0;
  }
  double lo = config.min_error_bound;
  if (lo <= 0) lo = hi * 1e-9;
  require(lo < hi, "tune_for_quality: empty search range");

  QualityTuneResult result;
  // The executor owns worker clone + scratch + decode reuse; quality probes
  // are serial (each feeds the next proposal) so one context suffices.  The
  // memo answers a bound the search proposes twice.
  ProbeExecutor executor(compressor, 1);
  ProbeMemo memo;

  // Quality falls as the bound grows, so the largest acceptable bound sits
  // at the quality ~= floor crossing.  Search log-space for the bound that
  // minimizes the one-sided distance: bounds with quality below the floor
  // are penalized by how far they miss; acceptable bounds are scored by the
  // bound itself (negated) so the optimizer prefers the most aggressive one.
  double best_bound = 0, best_quality = 0, best_ratio = 0;

  opt::SearchOptions search;
  search.max_calls = config.max_evals;
  search.cutoff = -0.5;  // hit when quality within slack of the floor
  search.seed = config.seed;
  opt::SearchState state(std::log(lo), std::log(hi), search);
  double x;
  while (state.ask(x)) {
    const double bound = std::exp(x);
    const ProbeOutcome probe = executor.probe_quality(data, memo, bound, config.metric);
    const double quality = probe.record.quality;
    ++result.evaluations;
    if (quality >= config.quality_floor && bound > best_bound) {
      best_bound = bound;
      best_quality = quality;
      // The quality pass measured its own archive; its ratio IS the
      // confirmation (no extra compress pass needed).
      best_ratio = probe.record.ratio;
    }
    double loss;
    if (quality < config.quality_floor) {
      loss = (config.quality_floor - quality) / config.quality_floor;  // miss distance
    } else {
      // Acceptable: prefer larger bounds; stop once quality is close to the
      // floor (within the slack) — further refinement cannot help much.
      const double closeness = (quality - config.quality_floor) /
                               (config.quality_floor * std::max(config.slack, 1e-9));
      loss = -1.0 / (1.0 + closeness);
    }
    state.tell(x, loss);
  }

  result.error_bound = best_bound;
  result.quality = best_quality;
  result.achieved_ratio = best_ratio;
  result.met_floor = best_bound > 0;
  return result;
}

}  // namespace fraz
