#ifndef FRAZ_CORE_TUNER_HPP
#define FRAZ_CORE_TUNER_HPP

/// \file tuner.hpp
/// The FRaZ tuner: the paper's primary contribution.
///
/// Given a black-box error-bounded compressor (any pressio::Compressor), a
/// dataset, and a target compression ratio ρt with acceptance band ε, the
/// tuner finds an error bound e whose achieved ratio ρr(e) satisfies
/// ρt(1−ε) <= ρr(e) <= ρt(1+ε), subject to an optional maximum allowed error
/// bound U.  It implements:
///
/// **Algorithm 2 (training)**: split [lo, U] into K overlapping regions,
/// run the cutoff-modified global search on each, cancel outstanding work as
/// soon as any region lands in the acceptance band, and fall back to the
/// closest observed ratio when the target is infeasible.  A search whose
/// probes all miss on one side of the band (none in it) runs on in the
/// region of its closest probe and that region's two neighbours only.
///
/// A retrain that starts from a known landing (a carried bound that missed
/// the band) first steps a secant toward ρt from it, and runs Algorithm 2
/// only when no secant probe lands in band.
///
/// Algorithm 1's prediction (probe a carried bound first and stop when it is
/// acceptable) and Algorithm 3's carry rule (warm-start each field's time
/// steps) live in engine/engine.hpp: the Engine is their one home.
///
/// All randomness is seeded; identical inputs and configuration produce
/// identical tuned bounds.

#include <cstdint>
#include <vector>

#include "core/loss.hpp"
#include "core/probe.hpp"
#include "core/regions.hpp"
#include "ndarray/ndarray.hpp"
#include "pressio/compressor.hpp"
#include "util/seed.hpp"

namespace fraz {

/// Tuning configuration (defaults follow the paper where it states one).
struct TunerConfig {
  /// ρt — requested compression ratio.
  double target_ratio = 10.0;
  /// ε — acceptable relative deviation of the achieved ratio (paper uses 0.1
  /// in its convergence studies).
  double epsilon = 0.1;
  /// U — maximum allowed error bound.  0 selects the data's value range
  /// (the largest bound that can still matter).
  double max_error_bound = 0.0;
  /// Lower end of the search range.  0 selects U * 1e-9.
  double min_error_bound = 0.0;
  /// K — regions per dataset; the paper found 12 tasks a good tradeoff.
  int regions = 12;
  /// α — fractional overlap between adjacent regions (paper: 10%).
  double overlap = 0.1;
  /// Iteration cap per region (the paper bounds iterations, not time).
  int max_evals_per_region = 24;
  /// Worker threads for probe parallelism; 0 = hardware concurrency.
  /// Probe batches fan out over the calling thread's pool (an archive
  /// build's workers, else shared_thread_pool()) capped at this count, the
  /// caller included; the tuned bound is bit-identical at every thread
  /// count (the region searches advance in deterministic lockstep rounds).
  unsigned threads = 0;
  /// Deterministic seed.
  std::uint64_t seed = kDefaultSearchSeed;
  /// Search in log(error bound) space (extension over the paper, see
  /// DESIGN.md): compression-ratio curves typically span several decades of
  /// the bound axis, so the paper's linear region split leaves low-bound
  /// ratios inside a sliver of the first region.  Splitting and searching in
  /// log space resolves every decade equally; regions still overlap exactly
  /// as in Fig. 5.  Set false for the paper's literal linear behaviour.
  bool log_scale_search = true;
};

/// Outcome of one region's search.
struct RegionOutcome {
  Region region{};
  double best_bound = 0;    ///< e with ratio closest to target in this region
  double best_ratio = 0;    ///< ρr at best_bound
  int compress_calls = 0;   ///< probes this region's search consumed
  int cache_hits = 0;       ///< of those, served by the search's memo for free
  bool hit_cutoff = false;  ///< landed inside the acceptance band
  bool cancelled = false;   ///< stopped early: another region won, or the
                            ///< search's probes all missed on one side and
                            ///< the closest probe lies in another region
};

/// Result of tuning one dataset.
struct TuneResult {
  double error_bound = 0;    ///< recommended error bound e
  double achieved_ratio = 0; ///< ρr(e)
  bool feasible = false;     ///< true when inside the acceptance band
  bool from_prediction = false;  ///< settled by the carried bound alone (Engine)
  int compress_calls = 0;    ///< probes the search consumed (memo hits included)
  int probe_cache_hits = 0;  ///< probes the search's memo served without a
                             ///< compressor invocation
  double seconds = 0;        ///< wall time of the tuning
  std::vector<RegionOutcome> regions;  ///< per-region detail (empty when
                                       ///< settled by prediction)
};

/// The FRaZ autotuner.  Holds a prototype compressor (cloned per probe
/// worker, see pressio::Compressor's thread-safety contract) and a
/// configuration.
///
/// Since the ask/tell refactor the K region searches (paper Alg. 2) advance
/// in deterministic lockstep rounds: each round asks every live region for
/// its next proposal, evaluates the batch through a ProbeExecutor (the
/// search's memo + fan-out on the caller's pool), tells each region its
/// observation, and cancels every region the moment one lands in the
/// acceptance band.  Once a round ends with every probe so far on one side
/// of the band, only the closest probe's region and its neighbours run on
/// (see tune()).  The tuned bound is therefore bit-identical at any thread
/// count, and losing regions stop after the winner's round instead of
/// draining their budgets.
class Tuner {
public:
  Tuner(const pressio::Compressor& prototype, TunerConfig config);

  /// Throw InvalidArgument on a nonsensical \p config; the constructor runs
  /// it, and a caller can run it without building a Tuner.
  static void validate(const TunerConfig& config);

  const TunerConfig& config() const noexcept { return config_; }

  /// The probe front end the search spends its probes through.  A caller
  /// that probes \p data itself first (Engine's prediction probe) shares it,
  /// and with it the worker contexts.
  ProbeExecutor& executor() const noexcept { return executor_; }

  /// Algorithm 2: full parallel training on a single dataset.  \p memo holds
  /// the probes already made on \p data through executor() (Engine's probe
  /// of the carried bound); the search answers a proposal it holds without
  /// a compression, and adds its own probes to it.
  ///
  /// After the first round in which no probe has landed in band and all fell
  /// on one side of it, the target is not bracketed: the region holding the
  /// closest probe and the two regions overlapping it run on to their
  /// budgets or an in-band hit, and the others stop (cancelled).  Their
  /// probes are the full search's, so the result is Algorithm 2's whenever
  /// its closest ratio lies in those regions.  A bracketed search is
  /// Algorithm 2 unchanged.
  ///
  /// Data whose bytes are all zero compresses to the same size at every
  /// bound (mgard aside at 1.0; docs/API.md), so the search is a single
  /// probe at region 0's first proposal: the bound a full search over that
  /// flat curve settles on.
  TuneResult tune(const ArrayView& data, ProbeMemo memo = {}) const;

  /// A retrain from a known landing: \p bound compressed \p data to
  /// \p ratio, outside the band.  A secant in (ln e, ln ρ) aims at ρt from
  /// that point, one probe at a time, each step clamped to the search range;
  /// it stops within ρt·ε/4 of the target, at a slope that is not positive,
  /// at a clamped step that repeats itself, or after 8 probes, and keeps its
  /// in-band probe closest to ρt (TuneResult::regions empty).  When no probe
  /// landed in band, tune() runs with the same memo, so Algorithm 2's global
  /// search and its closest-ratio fallback still decide non-monotone and
  /// infeasible data.  Lossless backends and all-zero data go straight to
  /// tune().  The landing joins \p memo; compress_calls counts the secant's
  /// probes too.
  TuneResult retrain(const ArrayView& data, double bound, double ratio,
                     ProbeMemo memo = {}) const;

private:
  /// Resolve the [lo, hi] search range for \p data per config defaults.
  Region search_range(const ArrayView& data) const;

  pressio::CompressorPtr prototype_;
  TunerConfig config_;
  /// Thread-safe probe front end; mutable so const tuning entry points can
  /// spend probes (tune() is logically const: identical inputs, identical
  /// results).
  mutable ProbeExecutor executor_;
};

}  // namespace fraz

#endif  // FRAZ_CORE_TUNER_HPP
