#ifndef FRAZ_TELEMETRY_TELEMETRY_HPP
#define FRAZ_TELEMETRY_TELEMETRY_HPP

/// \file telemetry.hpp
/// Process-wide telemetry: named counters, gauges, and latency histograms in
/// one registry, plus scoped trace spans feeding the histograms.
///
/// FRaZ's operational claims — bounded probe counts per tune, O(chunk ×
/// workers) writer memory, decode-once serving — were previously assertable
/// only in tests: counters lived in four unrelated per-object structs and
/// nothing measured latency outside the benches.  This layer is the single
/// observation plane over the three hot paths (tuner probe loop, archive
/// write pipeline, serve request path):
///
///  - **Counter** — monotonic, striped over leased per-thread cells so
///    concurrent serve threads neither contend on one cache line nor pay
///    an atomic read-modify-write.
///  - **Gauge** — a signed level tracked by +/- deltas (staged bytes,
///    resident cache bytes), so concurrent writers compose by summation.
///  - **Histogram** — log2-bucketed latency with p50/p95/p99 extraction
///    (telemetry/histogram.hpp).
///  - **SpanTimer / TELEM_SPAN** — RAII scope timers that feed a histogram.
///
/// The registry is the process-wide source of truth for totals; per-object
/// stats structs (ReaderPool::Stats, ChunkCache::Stats) are views over
/// *instanced* registry counters — each object owns one instance of a
/// shared name, exposition sums the instances — so the object view and the
/// global totals come from the same single increment site and can never
/// disagree.
///
/// Exposition: MetricsRegistry::to_json() (one line, machine-readable — the
/// serve protocol's METRICS reply and the CLI's --json enrichment) and
/// to_prometheus() (text exposition format).
///
/// Hard guarantees: telemetry only observes — it can never change produced
/// bytes (pinned by a pack byte-identity test) — and the FRAZ_TELEMETRY_OFF
/// runtime kill-switch reduces every instrumentation site to one relaxed
/// load and a branch (spans skip their clock reads entirely).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "telemetry/histogram.hpp"
#include "util/thread_annotations.hpp"

namespace fraz::telemetry {

namespace detail {

/// The kill-switch flag.  Constant zero-initialized (= disabled) until its
/// dynamic initializer in telemetry.cpp reads FRAZ_TELEMETRY_OFF, so
/// instrumentation running during other translation units' static
/// initialization sees a defined (off) flag, never garbage.
extern std::atomic<bool> g_enabled;

/// Slot leasing, out of line (telemetry.cpp): leases this thread a cell
/// index, stores it into t_thread_slot, and returns it.  The lease is
/// returned to a free list when the thread exits, so a bounded set of
/// live threads keeps reusing the exclusive cell range forever.
std::size_t assign_thread_slot() noexcept;

/// This thread's leased cell index; kSlotUnassigned until first touch.
/// Constant-initialized so the hot-path read is a plain TLS load with no
/// per-call initialization guard.  After the lease is released at thread
/// exit it becomes kSlotOverflow: any counting from later TLS destructors
/// takes the always-safe shared overflow cell.
inline constexpr std::size_t kSlotUnassigned = static_cast<std::size_t>(-1);
inline constexpr std::size_t kSlotOverflow = static_cast<std::size_t>(-2);
inline thread_local std::size_t t_thread_slot = kSlotUnassigned;

/// This thread's counter-cell slot (leased on first touch).
inline std::size_t thread_slot() noexcept {
  const std::size_t slot = t_thread_slot;
  if (slot != kSlotUnassigned) return slot;
  return assign_thread_slot();
}

}  // namespace detail

/// Global kill-switch.  Initialized once from the FRAZ_TELEMETRY_OFF
/// environment variable (set and non-"0" = disabled); toggleable at runtime
/// for tests and overhead benches.  Disabling stops counting — stats read
/// while disabled are frozen, not wrong.  Inline (one relaxed load): this
/// check is the entire cost of a disabled instrumentation site.
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
inline void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

/// Monotonic counter, striped across per-thread cache-line cells so
/// concurrent hot-path increments (N serve threads bumping
/// "serve.pool.requests") never contend — and, more importantly, never pay
/// an atomic read-modify-write.  Each thread leases a process-unique cell
/// index (detail::thread_slot, recycled through a free list at thread
/// exit); a leased cell has exactly one writer at any moment, so an
/// increment is a relaxed load + store on an owned line (~2ns) instead of
/// a full-barrier fetch_add (~7ns).  Exactness is preserved across lease
/// handoffs because acquire/release of a slot goes through a mutex — the
/// old owner's stores happen-before the new owner's loads.  Threads beyond
/// kCells (or counting after their lease died) take the shared overflow
/// cell with a real fetch_add, so correctness never depends on the lease
/// supply.  value() sums cells + overflow — exact, since cells only grow.
class Counter {
public:
  static constexpr std::size_t kCells = 32;

  Counter() noexcept = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    if (!enabled()) return;
    add_unchecked(n);
  }
  /// The increment alone, skipping the kill-switch check — for callers
  /// that check once and then bump several counters.
  void add_unchecked(std::uint64_t n = 1) noexcept {
    const std::size_t slot = detail::thread_slot();
    if (slot < kCells) {
      // Exclusive cell: this thread is the only writer (see class comment),
      // so a non-RMW load+store cannot lose updates.
      std::atomic<std::uint64_t>& cell = cells_[slot].v;
      cell.store(cell.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
    } else {
      overflow_.v.fetch_add(n, std::memory_order_relaxed);
    }
  }
  std::uint64_t value() const noexcept {
    std::uint64_t total = overflow_.v.load(std::memory_order_relaxed);
    for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }
  void reset() noexcept {
    for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
    overflow_.v.store(0, std::memory_order_relaxed);
  }

private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  Cell cells_[kCells];
  Cell overflow_;
};

/// Signed level metric updated by deltas; concurrent instances of one
/// subsystem (two caches, two pack pipelines) compose into a correct total
/// because every holder adds what it acquires and subtracts what it releases.
class Gauge {
public:
  Gauge() noexcept = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void add(std::int64_t n) noexcept {
    if (!enabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void sub(std::int64_t n) noexcept { add(-n); }
  std::int64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

private:
  std::atomic<std::int64_t> value_{0};
};

/// Thread-safe named-metric registry.  Metric references returned by
/// counter()/gauge()/histogram() are stable for the registry's lifetime, so
/// hot paths look a metric up once (static local) and then touch only
/// atomics.  Names are dotted lowercase ("serve.pool.requests",
/// "serve.decode_us"); histograms record microseconds by convention and
/// carry a `_us` suffix.
class MetricsRegistry {
public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// A fresh counter *instance* under \p name: every call returns a new
  /// Counter, and exposition reports the per-name sum over all instances.
  /// This is how per-object stats (ReaderPool::Stats, ChunkCache::Stats)
  /// feed the registry without double-booking: one increment site, one
  /// atomic op, the object reads its own instance exactly and the process
  /// totals aggregate every instance — including those whose owner has
  /// since been destroyed (instances live for the registry's lifetime, so
  /// totals stay monotonic; churning objects leak one small counter each,
  /// which is the price of that guarantee).
  Counter& instanced_counter(const std::string& name);

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{name:
  /// {count,sum_us,min_us,max_us,p50_us,p95_us,p99_us}}}.  A non-empty
  /// \p prefix restricts to metric names starting with it.
  std::string to_json(std::string_view prefix = {}) const;

  /// Prometheus text exposition: counters and gauges as-is, histograms as
  /// summaries with quantile labels.  Dots become underscores under a
  /// `fraz_` namespace prefix.
  std::string to_prometheus() const;

  /// Zero every registered metric (test support; registration survives).
  void reset_values();

private:
  mutable Mutex mutex_;
  // Node-based maps: emplaced metrics never move, so returned references
  // stay valid while hot paths hold them.  The mutex guards the maps'
  // *structure* (registration); the metric objects themselves are atomic
  // and are touched lock-free through the returned references.
  std::map<std::string, Counter> counters_ FRAZ_GUARDED_BY(mutex_);
  std::multimap<std::string, Counter> instanced_ FRAZ_GUARDED_BY(mutex_);
  std::map<std::string, Gauge> gauges_ FRAZ_GUARDED_BY(mutex_);
  std::map<std::string, Histogram> histograms_ FRAZ_GUARDED_BY(mutex_);

  /// Totals per counter name: counters_ plus the instanced_ sums.
  std::map<std::string, std::uint64_t> counter_totals_locked() const
      FRAZ_REQUIRES(mutex_);
};

/// The process-wide registry every instrumentation site feeds.
MetricsRegistry& global() noexcept;

/// Steady-clock microseconds (span timestamps).
std::uint64_t now_us() noexcept;

/// RAII scope timer: entry stamps the clock, exit records the elapsed
/// microseconds into the bound histogram.  When telemetry is disabled at
/// entry the span does nothing — not even clock reads.
class SpanTimer {
public:
  explicit SpanTimer(Histogram& sink) noexcept : sink_(&sink), armed_(enabled()) {
    if (armed_) start_us_ = now_us();
  }
  ~SpanTimer() {
    if (!armed_) return;
    const std::uint64_t duration = now_us() - start_us_;
    sink_->record(duration);
  }

  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

private:
  Histogram* sink_;
  const bool armed_;
  std::uint64_t start_us_ = 0;
};

}  // namespace fraz::telemetry

#define FRAZ_TELEM_CONCAT_IMPL(a, b) a##b
#define FRAZ_TELEM_CONCAT(a, b) FRAZ_TELEM_CONCAT_IMPL(a, b)

/// Scoped trace span: times the enclosing scope into the named histogram of
/// the global registry.  The registry lookup is memoized per call site
/// (static local), so a hot span costs two clock reads and one histogram
/// record — or one relaxed load when telemetry is off.
///
///     TELEM_SPAN("serve.decode_us");
#define TELEM_SPAN(name_literal)                                              \
  ::fraz::telemetry::SpanTimer FRAZ_TELEM_CONCAT(fraz_telem_span_, __COUNTER__)( \
      []() -> ::fraz::telemetry::Histogram& {                                 \
        static ::fraz::telemetry::Histogram& memoized =                       \
            ::fraz::telemetry::global().histogram(name_literal);              \
        return memoized;                                                      \
      }())

#endif  // FRAZ_TELEMETRY_TELEMETRY_HPP
