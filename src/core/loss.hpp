#ifndef FRAZ_CORE_LOSS_HPP
#define FRAZ_CORE_LOSS_HPP

/// \file loss.hpp
/// FRaZ's optimization objective (paper §V-B.2).
///
/// The raw objective is the distance between the achieved and target
/// compression ratios, ρr(e) − ρt.  FRaZ transforms it with a *clamped
/// square*: l(e) = min((ρr(e) − ρt)², γ) with γ = 80% of the largest finite
/// double.  The clamp gives the function a finite ceiling (the paper notes an
/// unbounded objective triggered a crash in Dlib) and the square converges
/// faster than |·| under quadratic refinement.

#include <limits>

namespace fraz {

/// γ: the loss ceiling, 80% of the maximum representable double (paper's
/// exact choice).
inline constexpr double kLossClamp = 0.8 * std::numeric_limits<double>::max();

/// l(e) = min((achieved − target)², clamp).
inline double ratio_loss(double achieved_ratio, double target_ratio,
                         double clamp = kLossClamp) noexcept {
  const double d = achieved_ratio - target_ratio;
  const double sq = d * d;
  return sq < clamp ? sq : clamp;
}

/// The early-termination cutoff: a loss inside [0, (ε·ρt)²] means the
/// achieved ratio is within the acceptance band.
inline double loss_cutoff(double target_ratio, double epsilon) noexcept {
  const double band = epsilon * target_ratio;
  return band * band;
}

/// Acceptance test ρt(1−ε) <= ρr <= ρt(1+ε) (paper Eq. 1).
inline bool ratio_acceptable(double achieved_ratio, double target_ratio,
                             double epsilon) noexcept {
  return achieved_ratio >= target_ratio * (1.0 - epsilon) &&
         achieved_ratio <= target_ratio * (1.0 + epsilon);
}

/// ρr > ρt(1+ε): the bound compresses more than the band allows.
inline bool ratio_above_band(double achieved_ratio, double target_ratio,
                             double epsilon) noexcept {
  return achieved_ratio > target_ratio * (1.0 + epsilon);
}

}  // namespace fraz

#endif  // FRAZ_CORE_LOSS_HPP
