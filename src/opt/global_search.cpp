#include "opt/global_search.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace fraz::opt {

namespace {

/// Estimated Lipschitz constant from all sample pairs, inflated slightly so
/// the bound stays admissible between samples (Malherbe & Vayatis use a grid
/// of constants; a max-slope estimate with headroom behaves equivalently for
/// our 1D objectives).
template <typename Samples>
double estimate_lipschitz(const Samples& samples, double span) {
  double k = 0;
  for (std::size_t i = 0; i < samples.size(); ++i)
    for (std::size_t j = i + 1; j < samples.size(); ++j) {
      const double dx = std::abs(samples[i].x - samples[j].x);
      if (dx > 1e-15 * span)
        k = std::max(k, std::abs(samples[i].f - samples[j].f) / dx);
    }
  return k * 1.2 + 1e-12;
}

/// LIPO lower bound at x: the tightest Lipschitz cone over all samples.
template <typename Samples>
double lower_bound_at(const Samples& samples, double k, double x) {
  double bound = -std::numeric_limits<double>::infinity();
  for (const auto& s : samples) bound = std::max(bound, s.f - k * std::abs(x - s.x));
  return bound;
}

/// Quadratic fit through three points; returns the abscissa of the vertex or
/// NaN when the points are collinear / the parabola opens downward.
template <typename Sample>
double quadratic_vertex(const Sample& a, const Sample& b, const Sample& c) {
  const double d1 = (b.f - a.f) / (b.x - a.x);
  const double d2 = (c.f - b.f) / (c.x - b.x);
  const double curvature = (d2 - d1) / (c.x - a.x);
  if (!(curvature > 0)) return std::numeric_limits<double>::quiet_NaN();
  // Vertex of the interpolating parabola.
  return 0.5 * (a.x + b.x - d1 / curvature);
}

}  // namespace

SearchState::SearchState(double lo, double hi, SearchOptions options)
    : lo_(lo),
      hi_(hi),
      span_(hi - lo),
      min_gap_((hi - lo) * 1e-9),
      options_(options),
      rng_(options.seed) {
  require(lo < hi, "find_min_global: requires lo < hi");
  require(options_.max_calls >= 1, "find_min_global: max_calls must be >= 1");
  samples_.reserve(static_cast<std::size_t>(options_.max_calls));
}

double SearchState::next_proposal() {
  // Seed phase: bracket ends plus one random interior point (Dlib similarly
  // begins from random initial samples before alternating).
  switch (result_.calls) {
    case 0:
      return lo_ + 0.5 * span_ * rng_.uniform();
    case 1:
      return lo_;
    case 2:
      return hi_;
    default:
      break;
  }

  double proposal = std::numeric_limits<double>::quiet_NaN();
  if (global_step_) {
    // ---- LIPO global step ----
    const double k = estimate_lipschitz(samples_, span_);
    double best_bound = std::numeric_limits<double>::infinity();
    for (int c = 0; c < options_.lipo_candidates; ++c) {
      const double x = lo_ + span_ * rng_.uniform();
      const double bound = lower_bound_at(samples_, k, x);
      if (bound < best_bound) {
        best_bound = bound;
        proposal = x;
      }
    }
  } else {
    // ---- quadratic refinement of the lowest valley ----
    std::sort(samples_.begin(), samples_.end(),
              [](const Sample& a, const Sample& b) { return a.x < b.x; });
    std::size_t bi = 0;
    for (std::size_t i = 0; i < samples_.size(); ++i)
      if (samples_[i].f < samples_[bi].f) bi = i;
    if (bi > 0 && bi + 1 < samples_.size()) {
      proposal = quadratic_vertex(samples_[bi - 1], samples_[bi], samples_[bi + 1]);
      // Keep the step inside the bracket around the incumbent.
      if (std::isfinite(proposal))
        proposal = std::clamp(proposal, samples_[bi - 1].x, samples_[bi + 1].x);
    }
    if (!std::isfinite(proposal)) {
      // Incumbent sits on the boundary or the valley is flat: probe a
      // shrinking neighbourhood instead (trust-region flavoured).
      const double radius = span_ * 0.05;
      proposal = result_.best_x + radius * (rng_.uniform() * 2.0 - 1.0);
    }
  }
  global_step_ = !global_step_;

  // Reject proposals that collide with an existing sample; substitute a
  // random probe so a call is never wasted on a duplicate.
  bool collides = false;
  for (const Sample& s : samples_)
    if (std::abs(s.x - proposal) < min_gap_) {
      collides = true;
      break;
    }
  if (collides || !std::isfinite(proposal)) proposal = lo_ + span_ * rng_.uniform();
  return proposal;
}

bool SearchState::ask(double& x) {
  if (done_) return false;
  if (pending_) {
    x = pending_x_;
    return true;
  }
  pending_x_ = std::clamp(next_proposal(), lo_, hi_);
  pending_ = true;
  x = pending_x_;
  return true;
}

void SearchState::tell(double x, double f) {
  require(pending_, "SearchState::tell without a pending ask");
  require(x == pending_x_, "SearchState::tell: x is not the pending proposal");
  pending_ = false;
  samples_.push_back({x, f});
  result_.history.emplace_back(x, f);
  ++result_.calls;
  if (result_.calls == 1 || f < result_.best_f) {
    result_.best_f = f;
    result_.best_x = x;
  }
  if (result_.best_f <= options_.cutoff) {
    result_.hit_cutoff = true;
    done_ = true;
  } else if (result_.calls >= options_.max_calls) {
    done_ = true;
  }
}

SearchResult find_min_global(const std::function<double(double)>& f, double lo, double hi,
                             const SearchOptions& options) {
  SearchState state(lo, hi, options);
  double x;
  while (state.ask(x)) state.tell(x, f(x));
  return state.result();
}

SearchResult climbing_search(const std::function<double(double)>& g, double lo, double hi,
                             double target, double epsilon, int max_calls, double growth) {
  require(lo < hi && lo > 0, "climbing_search: requires 0 < lo < hi");
  require(growth > 1, "climbing_search: growth must exceed 1");
  SearchResult result;
  result.best_f = std::numeric_limits<double>::infinity();
  double x = lo;
  while (result.calls < max_calls) {
    const double gx = g(x);
    result.history.emplace_back(x, gx);
    ++result.calls;
    const double dist = std::abs(gx - target);
    if (dist < result.best_f) {
      result.best_f = dist;
      result.best_x = x;
    }
    if (gx >= target * (1 - epsilon) && gx <= target * (1 + epsilon)) {
      result.hit_cutoff = true;
      return result;
    }
    if (x >= hi) break;
    x = std::min(x * growth, hi);
  }
  return result;
}

SearchResult binary_search_monotone(const std::function<double(double)>& g, double lo, double hi,
                                    double target, double epsilon, int max_calls) {
  require(lo < hi, "binary_search_monotone: requires lo < hi");
  SearchResult result;
  result.best_f = std::numeric_limits<double>::infinity();

  auto evaluate = [&](double x) -> double {
    const double gx = g(x);
    result.history.emplace_back(x, gx);
    ++result.calls;
    const double dist = std::abs(gx - target);
    if (dist < result.best_f) {
      result.best_f = dist;
      result.best_x = x;
    }
    return gx;
  };

  double a = lo, b = hi;
  while (result.calls < max_calls) {
    const double mid = 0.5 * (a + b);
    const double v = evaluate(mid);
    if (v >= target * (1 - epsilon) && v <= target * (1 + epsilon)) {
      result.hit_cutoff = true;
      return result;
    }
    // Ratio grows with the error bound under the monotone assumption: probe
    // larger bounds when the ratio is still too small.
    if (v < target)
      a = mid;
    else
      b = mid;
    if (b - a < 1e-15 * (hi - lo)) break;
  }
  return result;
}

}  // namespace fraz::opt
