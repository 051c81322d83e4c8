#ifndef FRAZ_CORE_PROBE_HPP
#define FRAZ_CORE_PROBE_HPP

/// \file probe.hpp
/// The shared probe layer under every tuner: one place that spends
/// compressor evaluations, fanned out on the caller's pool and deduplicated
/// through a cache keyed by (data fingerprint, compressor configuration,
/// error bound).
///
/// The paper observes that probe evaluations dominate tuning cost and that
/// overlapping regions re-evaluate the same bounds (§V-C).  Before this
/// layer, four independent loops — the batch Tuner, the quality tuner, the
/// online tuner, and the archive pipeline's per-chunk engines — each paid
/// their own probes and held their own scratch.  Now the Tuner drives
/// ask/tell SearchStates in lockstep rounds and submits one probe batch per
/// round; identical (data, config, bound) triples anywhere in the process
/// cost exactly one compression, and a deterministic backend makes a cached
/// ratio indistinguishable from a fresh one — so caching can never change a
/// tuned bound, only the number of compressions spent reaching it.

#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ndarray/ndarray.hpp"
#include "pressio/compressor.hpp"
#include "util/buffer.hpp"
#include "util/lfu_index.hpp"
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

/// Strided-fingerprint contract (data_fingerprint below): buffers at most
/// this large hash every byte; larger ones hash the total length plus
/// kFingerprintWindows evenly spaced kFingerprintWindowBytes-byte windows,
/// the first anchored at offset 0 and the last ending at the final byte.
inline constexpr std::size_t kFingerprintFullPassBytes = 1u << 20;
inline constexpr std::size_t kFingerprintWindows = 64;
inline constexpr std::size_t kFingerprintWindowBytes = 256;

/// 64-bit content fingerprint of an array: dtype, shape, and the data.
/// Buffers up to kFingerprintFullPassBytes are hashed in full; larger ones
/// are sampled per the strided contract above, so the cost is bounded
/// (~16 KiB of reads) no matter how large the probe input grows.  Two
/// buffers that differ only in bytes outside the sampled windows therefore
/// collide BY DESIGN — acceptable for the probe cache, whose entries are
/// keyed per (compressor config, bound) and whose worst case is a stale
/// ratio estimate, never a correctness failure.
std::uint64_t data_fingerprint(const ArrayView& data) noexcept;

/// Fingerprint of a compressor's identity and configuration (name plus the
/// full option map, its current error bound included: ProbeExecutor fixes
/// that bound first, since probes key the bound separately).
std::uint64_t compressor_fingerprint(const pressio::Compressor& compressor);

/// One cached probe observation.
struct ProbeRecord {
  double ratio = 0;       ///< raw bytes / compressed bytes at the probed bound
  double quality = 0;     ///< metric value (quality probes only; else 0)
};

/// Thread-safe dedup cache of probe observations, bounded to \p max_entries
/// records under the least-frequently-used-with-aging policy of
/// util/lfu_index.hpp (each record costs 1): a record's rank is the floor
/// at its admission plus its hits since then, an insert evicts the lowest
/// rank first (equal ranks least recently touched first), and each eviction
/// raises the floor to the victim's rank.  Probes a long multi-field
/// campaign keeps hitting outlive one-off probes; a record no longer hit
/// leaves once the floor reaches its rank.  Eviction is deterministic
/// (driven purely by the lookup/insert sequence) and can never change a
/// tuned bound, only the number of compressions spent.
///
/// A key is executed once however many threads miss it together: the first
/// claim() of an uncached key makes its caller the owner, and later claims
/// wait for the owner's record instead of executing the probe again (a wait
/// counts as a hit).  The owner ends its claim with insert(), or with
/// abandon() when the probe threw, which hands the failure to every waiter
/// and caches nothing.
class ProbeCache {
public:
  explicit ProbeCache(std::size_t max_entries = 1u << 16);

  /// Look up the record for (context key, bound[, metric tag]); true on hit.
  /// A hit raises the record's rank.
  bool lookup(std::uint64_t context, double bound, ProbeRecord& out) const noexcept;
  /// Insert an observation (overwrites an identical key) and hand it to the
  /// threads waiting on the key's owner.
  void insert(std::uint64_t context, double bound, const ProbeRecord& record);

  /// What claim() found for a key.
  struct Claim {
    enum Kind { kHit, kOwner, kWait } kind = kHit;
    ProbeRecord record;                       ///< kHit: the cached record
    std::shared_future<ProbeRecord> pending;  ///< kWait: the owner's record
  };
  /// lookup(), except that a miss registers its caller as the key's owner
  /// (kOwner), who must end the claim with insert() or abandon(); a miss
  /// while another thread owns the key returns that owner's pending record
  /// (kWait).  Waiting on it blocks nothing the owner needs: owners execute
  /// without waiting on other claims.
  Claim claim(std::uint64_t context, double bound);
  /// End an owned claim whose probe threw: its waiters get \p failure
  /// rethrown, and nothing is cached.
  void abandon(std::uint64_t context, double bound, std::exception_ptr failure);

  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t entries = 0;
    std::size_t evictions = 0;  ///< records dropped to fit max_entries
  };
  Stats stats() const noexcept;
  void clear() noexcept;

private:
  using Index = LfuIndex<std::uint64_t, ProbeRecord>;

  /// An owned claim: its promise, and the future its waiters share.
  struct Flight {
    std::promise<ProbeRecord> promise;
    std::shared_future<ProbeRecord> record = promise.get_future().share();
  };

  static std::uint64_t slot(std::uint64_t context, double bound) noexcept;
  /// Remove and return the flight of \p key, if a thread owns the key.
  std::optional<Flight> take_flight(std::uint64_t key) FRAZ_REQUIRES(mutex_);

  mutable Mutex mutex_;
  // lookup() re-ranks hot records, so the index mutates under a const
  // interface; the mutex makes that safe.
  mutable Index index_ FRAZ_GUARDED_BY(mutex_);
  mutable std::size_t hits_ FRAZ_GUARDED_BY(mutex_) = 0;
  mutable std::size_t misses_ FRAZ_GUARDED_BY(mutex_) = 0;
  std::size_t evictions_ FRAZ_GUARDED_BY(mutex_) = 0;
  /// keys an owner is executing
  std::unordered_map<std::uint64_t, Flight> flights_ FRAZ_GUARDED_BY(mutex_);
  /// tune.probe_cache.evictions, summed over every cache in the process.
  telemetry::Counter& evictions_counter_;
};

using ProbeCachePtr = std::shared_ptr<ProbeCache>;

/// One probe's outcome as seen by a search: the observation plus whether the
/// cache (or an identical probe earlier in the same batch, or another
/// thread's execution of it) already paid it.
struct ProbeOutcome {
  ProbeRecord record;
  bool from_cache = false;
};

/// Executes probes for one compressor configuration: clones workers on
/// demand (kept in an internal context pool so scratch buffers reach their
/// zero-allocation steady state), fans misses out with parallel_for_shared
/// (helpers from the caller's pool, the caller claiming probes too), and
/// consults/feeds the shared ProbeCache.  Thread-safe; one executor may
/// serve concurrent searches, issued from any thread of any pool.
class ProbeExecutor {
public:
  /// \param prototype cloned once per worker context on demand.
  /// \param cache shared dedup cache (non-null).
  /// \param threads concurrency cap for one batch; 0 = hardware, 1 = inline.
  ProbeExecutor(const pressio::Compressor& prototype, ProbeCachePtr cache,
                unsigned threads);

  /// Cache context key for \p data under this executor's compressor config.
  /// Compute once per search and reuse across its rounds.
  std::uint64_t context_key(const ArrayView& data) const noexcept;

  /// Evaluate ratio probes for one batch of bounds (one search round).
  /// Results are positionally aligned with \p bounds.  Duplicate bounds in
  /// the batch and cache hits cost nothing; misses run concurrently up to
  /// the thread cap on the caller's pool.  Throws on compression failure.
  std::vector<ProbeOutcome> probe_ratios(const ArrayView& data, std::uint64_t context,
                                         const std::vector<double>& bounds);

  /// Single ratio probe (prediction / warm paths).
  ProbeOutcome probe_ratio(const ArrayView& data, std::uint64_t context, double bound);

  /// Compress + decompress + metric probe for the quality tuner.  Cached
  /// under a metric-tagged key; record.quality carries the metric value and
  /// record.ratio the compression ratio of the same pass.
  ProbeOutcome probe_quality(const ArrayView& data, std::uint64_t context, double bound,
                             QualityMetric metric);

  const ProbeCachePtr& cache() const noexcept { return cache_; }
  /// Compressor invocations actually spent by this executor.
  std::size_t executed() const noexcept;
  /// Probes served without a compressor invocation.
  std::size_t cache_hits() const noexcept;

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

  /// The one probe sequence under every entry point: claim each bound under
  /// \p key, execute the first occurrence of each owned miss on a leased
  /// context (concurrently up to the thread cap), insert what ran, then
  /// wait for the misses other threads own.  A null
  /// \p metric measures ratio only; otherwise the pass also decodes and
  /// measures that metric.
  std::vector<ProbeOutcome> run(const ArrayView& data, std::uint64_t key,
                                const std::vector<double>& bounds,
                                const QualityMetric* metric);
  ProbeRecord execute(Context& context, const ArrayView& data, double bound,
                      const QualityMetric* metric);

  pressio::CompressorPtr prototype_;
  std::uint64_t config_fingerprint_ = 0;
  ProbeCachePtr cache_;
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
  std::size_t cache_hits_ FRAZ_GUARDED_BY(mutex_) = 0;
};

}  // namespace fraz

#endif  // FRAZ_CORE_PROBE_HPP
