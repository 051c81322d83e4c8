#ifndef FRAZ_OPT_GLOBAL_SEARCH_HPP
#define FRAZ_OPT_GLOBAL_SEARCH_HPP

/// \file global_search.hpp
/// Derivative-free 1D global minimization in the style of Dlib's
/// find_min_global — the optimizer the paper adopts and modifies.
///
/// The algorithm alternates two kinds of proposals, exactly as Dlib's
/// global_function_search does:
///  - a **global step** following Malherbe & Vayatis' LIPO: an estimated
///    Lipschitz constant turns the evaluated samples into a piecewise-linear
///    lower bound on the objective; the next probe minimizes that bound over
///    random candidates, which systematically explores unproven valleys;
///  - a **local step** in the spirit of Powell's NEWUOA: a quadratic fit
///    through the incumbent and its neighbours is minimized inside the
///    bracket (the "quadratic refinement of the lowest valley").
///
/// FRaZ's modification is the early-termination cutoff: the search stops as
/// soon as the objective drops to `cutoff` (paper §V-B.3), because an error
/// bound whose achieved ratio is inside the acceptance band is good enough.
///
/// The search core is an explicit-state **ask/tell stepper** (`SearchState`):
/// `ask()` proposes the next x, `tell(x, f)` observes the evaluation.  This
/// inversion is what lets an orchestrator drive K region searches in
/// lockstep and evaluate one batch of proposals per round on a thread pool
/// (the tuner's ProbeExecutor), instead of dedicating one blocked thread per
/// region.  `find_min_global` remains as the thin ask-evaluate-tell wrapper
/// and is bit-identical to the historical callback-driven loop for any seed.
///
/// Every random draw comes from a seeded xoshiro generator, so results are
/// bit-reproducible for a given seed.

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/seed.hpp"

namespace fraz::opt {

/// Search configuration.
struct SearchOptions {
  /// Maximum number of objective evaluations (the paper caps iterations to
  /// bound worst-case search time, §V-C).
  int max_calls = 48;
  /// Stop as soon as f(x) <= cutoff (FRaZ's early-termination modification).
  /// Default never triggers.
  double cutoff = -1e300;
  /// Deterministic seed.
  std::uint64_t seed = kDefaultSearchSeed;
  /// Candidate pool size per global step.
  int lipo_candidates = 128;
};

/// Search outcome.
struct SearchResult {
  double best_x = 0;
  double best_f = 0;
  int calls = 0;          ///< objective evaluations actually spent
  bool hit_cutoff = false;
  /// Full evaluation history in call order: (x, f(x)).
  std::vector<std::pair<double, double>> history;
};

/// Explicit-state search over [lo, hi]: the caller owns the evaluation loop.
///
///   SearchState state(lo, hi, options);
///   double x;
///   while (state.ask(x)) state.tell(x, f(x));
///   use(state.result());
///
/// `ask` is idempotent until the pending proposal is answered by `tell`, so
/// an orchestrator may hold one outstanding proposal per region while a
/// batch evaluates elsewhere.  Requires lo < hi and max_calls >= 1 (throws
/// InvalidArgument otherwise).
class SearchState {
public:
  SearchState(double lo, double hi, SearchOptions options = {});

  /// Propose the next x to evaluate.  Returns false — and leaves \p x
  /// untouched — once the search is finished: the evaluation budget is
  /// spent or the cutoff was hit.
  bool ask(double& x);

  /// Observe f(x) for the proposal most recently returned by ask().
  /// \p x must be that proposal (InvalidArgument otherwise).
  void tell(double x, double f);

  /// True once no further proposals will be issued.
  bool done() const noexcept { return done_; }

  /// Running best/history; final once done().
  const SearchResult& result() const noexcept { return result_; }

private:
  /// Evaluated sample.
  struct Sample {
    double x;
    double f;
  };

  /// The proposal policy: seed phase (interior point, lo, hi), then
  /// alternating LIPO global and quadratic local steps with collision
  /// substitution — the exact sequence of the historical loop.
  double next_proposal();

  double lo_;
  double hi_;
  double span_;
  double min_gap_;
  SearchOptions options_;
  Rng rng_;
  std::vector<Sample> samples_;
  SearchResult result_;
  bool global_step_ = true;
  bool done_ = false;
  bool pending_ = false;
  double pending_x_ = 0;
};

/// Minimize \p f over [lo, hi].  Requires lo < hi and max_calls >= 1.
/// Thin wrapper over SearchState; results are bit-identical to driving the
/// stepper by hand.
SearchResult find_min_global(const std::function<double(double)>& f, double lo, double hi,
                             const SearchOptions& options = {});

/// Bisection baseline: assumes \p g is monotone non-decreasing and looks for
/// g(x) within [target*(1-epsilon), target*(1+epsilon)].  Returns the same
/// SearchResult shape (best_f is |g(x) - target|) so the ablation bench can
/// compare call counts directly.  Unsound on non-monotonic curves (paper
/// Fig. 3): it can converge away from an achievable band.
SearchResult binary_search_monotone(const std::function<double(double)>& g, double lo, double hi,
                                    double target, double epsilon, int max_calls = 64);

/// The baseline the paper actually describes in §V-B.1: a search that
/// "climbs from the minimum possible error bound to the user-specified upper
/// limit", probing geometrically increasing bounds until the ratio enters
/// the band (the paper observed ~39 iterations where FRaZ needed ~6).
/// \param growth per-step multiplier on the bound (> 1).
SearchResult climbing_search(const std::function<double(double)>& g, double lo, double hi,
                             double target, double epsilon, int max_calls = 80,
                             double growth = 1.3);

}  // namespace fraz::opt

#endif  // FRAZ_OPT_GLOBAL_SEARCH_HPP
