#ifndef FRAZ_CORE_PROBE_HPP
#define FRAZ_CORE_PROBE_HPP

/// \file probe.hpp
/// The probe layer under every tuner: one place that spends compressor
/// evaluations, fanned out on the caller's pool and answered from the
/// search's own memo when the search proposes a bound it already tried.
///
/// The paper observes that probe evaluations dominate tuning cost and that
/// overlapping regions re-evaluate the same bounds (§V-C).  The Tuner drives
/// ask/tell SearchStates in lockstep rounds and submits one probe batch per
/// round; a bound repeated within one search costs one compression, and a
/// deterministic backend makes a remembered ratio indistinguishable from a
/// fresh one, so the memo never changes a tuned bound, only the number of
/// compressions spent reaching it.  Nothing is shared between searches: a
/// memo lives for one search of one array under one configuration.

#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ndarray/ndarray.hpp"
#include "pressio/compressor.hpp"
#include "util/buffer.hpp"
#include "util/thread_annotations.hpp"

namespace fraz {

namespace telemetry {
class Counter;
class Histogram;
}  // namespace telemetry

/// Fidelity metric a quality probe can measure (used by tune_for_quality).
enum class QualityMetric {
  kPsnrDb,  ///< peak signal-to-noise ratio in dB (higher = better)
  kSsim,    ///< structural similarity in [0, 1] (higher = better); 2D/3D only
};

/// One probe observation.
struct ProbeRecord {
  double ratio = 0;       ///< raw bytes / compressed bytes at the probed bound
  double quality = 0;     ///< metric value (quality probes only; else 0)
};

/// One search's probes so far: the record of every bound it has evaluated,
/// keyed by the bound's bits.  A search owns its memo and hands it to every
/// probe it makes, so a bound it proposes again costs no compression.  A
/// memo holds one kind of probe: ratios, or one metric's quality probes.
using ProbeMemo = std::unordered_map<std::uint64_t, ProbeRecord>;

/// \p bound's key in a ProbeMemo: its bits.
inline std::uint64_t memo_key(double bound) noexcept {
  std::uint64_t bits;
  std::memcpy(&bits, &bound, sizeof bits);
  return bits;
}

/// One probe's outcome as seen by a search: the observation plus whether the
/// memo (or an identical probe earlier in the same batch) already paid it.
struct ProbeOutcome {
  ProbeRecord record;
  bool from_memo = false;
};

/// Executes probes for one compressor configuration: clones workers on
/// demand (kept in an internal context pool so scratch buffers reach their
/// zero-allocation steady state), answers what the caller's memo already
/// holds, and fans the misses out with parallel_for_shared (helpers from
/// the caller's pool, the caller claiming probes too).  Thread-safe; one
/// executor may serve concurrent searches, each with its own memo, issued
/// from any thread of any pool.
class ProbeExecutor {
public:
  /// \param prototype cloned once per worker context on demand.
  /// \param threads concurrency cap for one batch; 0 = hardware, 1 = inline.
  ProbeExecutor(const pressio::Compressor& prototype, unsigned threads);

  /// Evaluate ratio probes for one batch of bounds (one search round) and
  /// add them to \p memo.  Results are positionally aligned with \p bounds.
  /// Duplicate bounds in the batch and bounds \p memo holds cost nothing;
  /// misses run concurrently up to the thread cap on the caller's pool.
  /// Throws on compression failure, leaving \p memo as it was.
  std::vector<ProbeOutcome> probe_ratios(const ArrayView& data, ProbeMemo& memo,
                                         const std::vector<double>& bounds);

  /// Single ratio probe (prediction / warm paths).
  ProbeOutcome probe_ratio(const ArrayView& data, ProbeMemo& memo, double bound);

  /// Compress + decompress + metric probe for the quality tuner.
  /// record.quality carries the metric value and record.ratio the
  /// compression ratio of the same pass.
  ProbeOutcome probe_quality(const ArrayView& data, ProbeMemo& memo, double bound,
                             QualityMetric metric);

  /// Compressor invocations actually spent by this executor.
  std::size_t executed() const noexcept;

private:
  /// Per-worker state: a backend clone plus reusable scratch.
  struct Context {
    pressio::CompressorPtr compressor;
    Buffer scratch;
    NdArray decoded;
  };

  /// One worker context, checked out of the idle pool (a fresh clone when
  /// none is idle) and returned to it when the lease ends, also when the
  /// probe it ran threw.
  class Lease {
  public:
    explicit Lease(ProbeExecutor& owner);
    ~Lease();
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Context& operator*() const noexcept { return *context_; }

  private:
    ProbeExecutor& owner_;
    std::unique_ptr<Context> context_;
  };

  /// The one probe sequence under every entry point: execute the first
  /// occurrence of each bound \p memo lacks on a leased context
  /// (concurrently up to the thread cap), add what ran to \p memo, and
  /// answer every other bound from it.  A null \p metric measures ratio
  /// only; otherwise the pass also decodes and measures that metric.
  std::vector<ProbeOutcome> run(const ArrayView& data, ProbeMemo& memo,
                                const std::vector<double>& bounds,
                                const QualityMetric* metric);
  ProbeRecord execute(Context& context, const ArrayView& data, double bound,
                      const QualityMetric* metric);

  pressio::CompressorPtr prototype_;
  unsigned threads_;

  // Backend-labeled telemetry handles, resolved once in the constructor from
  // the prototype's name ("tune.probe_us.sz", "tune.probes_executed.szx",
  // ...).  These add a per-backend dimension so probe cost is attributable
  // to the compressor that paid it; the generic unlabeled metrics stay — CI
  // asserts them.
  telemetry::Histogram* probe_hist_backend_;
  telemetry::Counter* probes_executed_backend_;
  telemetry::Counter* cache_hits_backend_;

  mutable Mutex mutex_;
  std::vector<std::unique_ptr<Context>> idle_ FRAZ_GUARDED_BY(mutex_);
  std::size_t executed_ FRAZ_GUARDED_BY(mutex_) = 0;
};

}  // namespace fraz

#endif  // FRAZ_CORE_PROBE_HPP
