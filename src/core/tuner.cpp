#include "core/tuner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "opt/global_search.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace fraz {

namespace {

/// Mix a stream index into the base seed (splitmix-style) so every region
/// gets an independent but reproducible random stream.
std::uint64_t substream(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// The secant of Tuner::retrain: its first step's slope of ln ρ over ln e
/// (later steps use their last two points), its probe budget, and its stop
/// distance from ρt as a fraction of the band's half-width ρt·ε.
constexpr double kSecantFirstSlope = 0.5;
constexpr int kSecantProbes = 8;
constexpr double kSecantStop = 0.25;

bool all_bytes_zero(const ArrayView& data) {
  const auto* bytes = static_cast<const std::uint8_t*>(data.data());
  return std::all_of(bytes, bytes + data.size_bytes(), [](std::uint8_t b) { return b == 0; });
}

}  // namespace

Tuner::Tuner(const pressio::Compressor& prototype, TunerConfig config)
    : prototype_(prototype.clone()), config_(config), executor_(prototype, config_.threads) {
  validate(config_);
}

void Tuner::validate(const TunerConfig& config) {
  require(config.target_ratio > 1.0, "Tuner: target_ratio must exceed 1");
  require(config.epsilon > 0 && config.epsilon < 1, "Tuner: epsilon in (0, 1)");
  require(config.regions >= 1, "Tuner: regions must be >= 1");
  require(config.overlap >= 0 && config.overlap < 1, "Tuner: overlap in [0, 1)");
  require(config.max_evals_per_region >= 1, "Tuner: max_evals_per_region >= 1");
}

Region Tuner::search_range(const ArrayView& data) const {
  double hi = config_.max_error_bound;
  if (hi <= 0) {
    hi = value_range(data);
    if (hi <= 0) hi = 1.0;  // constant field: any bound behaves the same
  }
  double lo = config_.min_error_bound;
  if (lo <= 0) lo = hi * 1e-9;
  require(lo < hi, "Tuner: min_error_bound must be below max_error_bound");
  return Region{lo, hi};
}

TuneResult Tuner::tune(const ArrayView& data, ProbeMemo memo) const {
  require(prototype_->supports_dims(data.dims()),
          "Tuner: compressor '" + prototype_->name() + "' does not support this rank");
  Timer timer;
  // A flat ratio curve: the bound never changes the size, so one probe
  // reveals the only achievable ratio and a region search would spend its
  // whole budget learning nothing.
  const auto single_probe = [&](double bound) {
    const ProbeOutcome probe = executor_.probe_ratio(data, memo, bound);
    TuneResult result;
    result.error_bound = bound;
    result.achieved_ratio = probe.record.ratio;
    result.feasible =
        ratio_acceptable(probe.record.ratio, config_.target_ratio, config_.epsilon);
    result.compress_calls = 1;
    result.probe_cache_hits = probe.from_memo ? 1 : 0;
    result.seconds = timer.seconds();
    return result;
  };
  const Region range = search_range(data);
  // A lossless backend (fpc) never changes its bytes with the bound.
  if (prototype_->capabilities().lossless) return single_probe(range.hi);
  // Optionally work in log(bound) space: the region split and the global
  // search then resolve every decade of the bound axis equally well.
  const bool log_scale = config_.log_scale_search;
  const double search_lo = log_scale ? std::log(range.lo) : range.lo;
  const double search_hi = log_scale ? std::log(range.hi) : range.hi;
  auto to_bound = [log_scale](double x) { return log_scale ? std::exp(x) : x; };
  const auto regions =
      make_error_bound_regions(search_lo, search_hi, config_.regions, config_.overlap);
  const double cutoff = loss_cutoff(config_.target_ratio, config_.epsilon);

  // One ask/tell stepper per region (paper Alg. 2), all advancing in
  // lockstep: each round collects one proposal from every live region,
  // evaluates the batch through the probe executor (the search's memo,
  // fan-out on the caller's pool), and feeds the observations back.  The
  // round structure replaces the seed's one-blocked-thread-per-region layout
  // and its racy cancellation: the winner's round is the last round,
  // deterministically, so losing regions no longer drain their full budgets.
  std::vector<opt::SearchState> states;
  states.reserve(regions.size());
  std::vector<RegionOutcome> outcomes(regions.size());
  std::vector<double> best_dist(regions.size(), std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < regions.size(); ++i) {
    opt::SearchOptions search;
    search.max_calls = config_.max_evals_per_region;
    search.cutoff = cutoff;
    search.seed = substream(config_.seed, i);
    states.emplace_back(regions[i].lo, regions[i].hi, search);
    // Report the region in bound units even when searching in log space.
    outcomes[i].region = Region{to_bound(regions[i].lo), to_bound(regions[i].hi)};
  }
  // All-zero bytes compress to one size at every bound on a zero_size_flat
  // backend, so a full search would settle on region 0's first proposal: the
  // first of its equally close ratios.  On another backend (mgard) a bound
  // may code a byte shorter; only below the band would a search prefer that,
  // so there the top of the range gets one more probe, kept only when its
  // ratio is strictly closer to the target.
  if (all_bytes_zero(data)) {
    double x;
    states.front().ask(x);
    TuneResult first = single_probe(to_bound(x));
    if (prototype_->capabilities().zero_size_flat || first.feasible ||
        ratio_above_band(first.achieved_ratio, config_.target_ratio, config_.epsilon))
      return first;
    TuneResult top = single_probe(range.hi);
    TuneResult& result = std::abs(top.achieved_ratio - config_.target_ratio) <
                                 std::abs(first.achieved_ratio - config_.target_ratio)
                             ? top
                             : first;
    result.compress_calls = 2;
    result.probe_cache_hits = first.probe_cache_hits + top.probe_cache_hits;
    result.seconds = timer.seconds();
    return result;
  }

  std::vector<std::size_t> round_region;
  std::vector<double> round_x, round_bounds;
  // The sides of the band the probes so far fell on: a search whose probes
  // all miss on one side narrows to the regions around its closest probe.
  bool seen_above = false, seen_below = false, seen_in_band = false, narrowed = false;
  bool any_hit = false;
  while (!any_hit) {
    round_region.clear();
    round_x.clear();
    round_bounds.clear();
    for (std::size_t i = 0; i < states.size(); ++i) {
      double x;
      if (!outcomes[i].cancelled && !states[i].done() && states[i].ask(x)) {
        round_region.push_back(i);
        round_x.push_back(x);
        round_bounds.push_back(to_bound(x));
      }
    }
    if (round_region.empty()) break;  // every region exhausted its budget

    const std::vector<ProbeOutcome> probes =
        executor_.probe_ratios(data, memo, round_bounds);
    for (std::size_t k = 0; k < round_region.size(); ++k) {
      const std::size_t i = round_region[k];
      const double ratio = probes[k].record.ratio;
      states[i].tell(round_x[k], ratio_loss(ratio, config_.target_ratio));
      RegionOutcome& outcome = outcomes[i];
      ++outcome.compress_calls;
      outcome.cache_hits += probes[k].from_memo;
      if (ratio_acceptable(ratio, config_.target_ratio, config_.epsilon))
        seen_in_band = true;
      else if (ratio_above_band(ratio, config_.target_ratio, config_.epsilon))
        seen_above = true;
      else
        seen_below = true;
      const double dist = std::abs(ratio - config_.target_ratio);
      if (dist < best_dist[i]) {
        best_dist[i] = dist;
        outcome.best_bound = round_bounds[k];
        outcome.best_ratio = ratio;
      }
      if (states[i].done() && states[i].result().hit_cutoff) {
        outcome.hit_cutoff = true;
        any_hit = true;
      }
    }
    // Every probe so far missed the band on one side: the target is not
    // bracketed, and the closest ratio is most likely near the closest probe.
    // Its region and the two overlapping it run on as Algorithm 2; the
    // others stop.  A bracketed search keeps every region.
    if (!narrowed && !seen_in_band && seen_above != seen_below) {
      const std::size_t keep = static_cast<std::size_t>(
          std::min_element(best_dist.begin(), best_dist.end()) - best_dist.begin());
      for (std::size_t i = 0; i < states.size(); ++i)
        if ((i + 1 < keep || i > keep + 1) && !states[i].done()) outcomes[i].cancelled = true;
      narrowed = true;
    }
  }
  if (any_hit)
    for (std::size_t i = 0; i < states.size(); ++i)
      if (!states[i].done()) outcomes[i].cancelled = true;

  // Result selection: prefer in-band outcomes; otherwise the observation
  // closest to the target ratio across every region (paper Alg. 2 tail).
  TuneResult result;
  result.regions = std::move(outcomes);
  double select_dist = std::numeric_limits<double>::infinity();
  for (const RegionOutcome& o : result.regions) {
    result.compress_calls += o.compress_calls;
    result.probe_cache_hits += o.cache_hits;
    if (o.compress_calls == 0) continue;
    const double dist = std::abs(o.best_ratio - config_.target_ratio);
    const bool better =
        (o.hit_cutoff && !result.feasible) || (o.hit_cutoff == result.feasible && dist < select_dist);
    if (better) {
      result.feasible = result.feasible || o.hit_cutoff;
      select_dist = dist;
      result.error_bound = o.best_bound;
      result.achieved_ratio = o.best_ratio;
    }
  }
  result.feasible =
      ratio_acceptable(result.achieved_ratio, config_.target_ratio, config_.epsilon);
  result.seconds = timer.seconds();
  return result;
}

TuneResult Tuner::retrain(const ArrayView& data, double bound, double ratio,
                         ProbeMemo memo) const {
  if (prototype_->capabilities().lossless || all_bytes_zero(data))
    return tune(data, std::move(memo));
  require(prototype_->supports_dims(data.dims()),
          "Tuner: compressor '" + prototype_->name() + "' does not support this rank");
  require(bound > 0 && ratio > 0, "Tuner: a retrain's landing needs a positive bound and ratio");
  Timer timer;
  const double target = config_.target_ratio;
  const Region range = search_range(data);
  const double x_lo = std::log(range.lo);
  const double x_hi = std::log(range.hi);
  const double y_target = std::log(target);
  memo.emplace(memo_key(bound), ProbeRecord{ratio, 0});

  TuneResult result;
  double best_dist = std::numeric_limits<double>::infinity();
  double x = std::log(bound);
  double y = std::log(ratio);
  double slope = kSecantFirstSlope;
  while (result.compress_calls < kSecantProbes && slope > 0 && std::isfinite(slope)) {
    const double next = std::clamp(x + (y_target - y) / slope, x_lo, x_hi);
    if (next == x) break;  // clamped onto the point it stands on
    const double next_bound = std::exp(next);
    const ProbeOutcome probe = executor_.probe_ratio(data, memo, next_bound);
    ++result.compress_calls;
    result.probe_cache_hits += probe.from_memo;
    const double next_ratio = probe.record.ratio;
    const double dist = std::abs(next_ratio - target);
    if (ratio_acceptable(next_ratio, target, config_.epsilon) && dist < best_dist) {
      best_dist = dist;
      result.error_bound = next_bound;
      result.achieved_ratio = next_ratio;
      result.feasible = true;
    }
    if (dist <= kSecantStop * config_.epsilon * target) break;
    const double next_y = std::log(next_ratio);
    slope = (next_y - y) / (next - x);
    x = next;
    y = next_y;
  }
  if (!result.feasible) {
    // No secant probe reached the band: the curve is not monotone here or
    // the target is infeasible, and Algorithm 2 decides.
    const int calls = result.compress_calls;
    const int hits = result.probe_cache_hits;
    result = tune(data, std::move(memo));
    result.compress_calls += calls;
    result.probe_cache_hits += hits;
  }
  result.seconds = timer.seconds();
  return result;
}

}  // namespace fraz
