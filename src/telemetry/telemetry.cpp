#include "telemetry/telemetry.hpp"

#include <chrono>
#include <cstdlib>
#include <mutex>
#include <tuple>
#include <utility>
#include <vector>

#include "util/json_writer.hpp"

namespace fraz::telemetry {

namespace {

bool initial_enabled() {
  const char* off = std::getenv("FRAZ_TELEMETRY_OFF");
  return !(off != nullptr && *off != '\0' && std::string_view(off) != "0");
}

std::string prometheus_name(const std::string& name) {
  std::string out = "fraz_";
  for (const char c : name) out += c == '.' ? '_' : c;
  return out;
}

}  // namespace

// Zero-initialized (off) until this runs; see the header comment.
std::atomic<bool> detail::g_enabled{initial_enabled()};

namespace {

// Function-local statics so a lease taken during another translation
// unit's static initialization still finds initialized state.  Both are
// intentionally leaked (immortal): ~SlotLease runs from TLS destructors of
// arbitrary threads — including shared_thread_pool() workers joined during
// static teardown — which may fire after this TU's exit-time destructors,
// so the mutex and free list must never be destroyed.
Mutex& slot_mutex() noexcept FRAZ_RETURN_CAPABILITY(slot_mutex()) {
  static Mutex& m = *new Mutex;
  return m;
}

// The free list is guarded by slot_mutex() — expressed as a capability on
// the accessor since the state is a function-local static.
std::vector<std::size_t>& free_slots() FRAZ_REQUIRES(slot_mutex()) {
  static std::vector<std::size_t>& slots = *new std::vector<std::size_t>;
  return slots;
}

/// One thread's cell-slot lease.  Constructed on the thread's first counted
/// increment, destroyed by the TLS runtime at thread exit; the destructor
/// returns the slot so the next thread reuses it.  The mutex is the
/// exactness handoff: the old owner's cell stores happen-before the new
/// owner's first load.
struct SlotLease {
  std::size_t slot = detail::kSlotOverflow;

  SlotLease() noexcept {
    try {
      LockGuard lock(slot_mutex());
      std::vector<std::size_t>& free = free_slots();
      if (!free.empty()) {
        slot = free.back();
        free.pop_back();
      } else {
        static std::size_t next_slot = 0;
        if (next_slot < Counter::kCells) slot = next_slot++;
      }
    } catch (...) {
      // Keep the overflow slot — always safe.
    }
    detail::t_thread_slot = slot;
  }

  ~SlotLease() {
    // Later counting from this thread (other TLS destructors) must take
    // the shared overflow cell, never the recycled exclusive one.
    detail::t_thread_slot = detail::kSlotOverflow;
    if (slot >= Counter::kCells) return;
    try {
      LockGuard lock(slot_mutex());
      free_slots().push_back(slot);
    } catch (...) {
      // Losing a slot to an allocation failure only costs striping.
    }
  }
};

}  // namespace

std::size_t detail::assign_thread_slot() noexcept {
  static thread_local SlotLease lease;
  return lease.slot;
}

std::uint64_t now_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Counter& MetricsRegistry::counter(const std::string& name) {
  LockGuard lock(mutex_);
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  LockGuard lock(mutex_);
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  LockGuard lock(mutex_);
  return histograms_[name];
}

Counter& MetricsRegistry::instanced_counter(const std::string& name) {
  LockGuard lock(mutex_);
  return instanced_.emplace(std::piecewise_construct,
                            std::forward_as_tuple(name), std::forward_as_tuple())
      ->second;
}

std::map<std::string, std::uint64_t> MetricsRegistry::counter_totals_locked() const {
  std::map<std::string, std::uint64_t> totals;
  for (const auto& [name, c] : counters_) totals[name] += c.value();
  for (const auto& [name, c] : instanced_) totals[name] += c.value();
  return totals;
}

std::string MetricsRegistry::to_json(std::string_view prefix) const {
  const auto matches = [prefix](const std::string& name) {
    return prefix.empty() ||
           std::string_view(name).substr(0, prefix.size()) == prefix;
  };
  LockGuard lock(mutex_);
  JsonWriter w;
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, total] : counter_totals_locked())
    if (matches(name)) w.field(name, total);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : gauges_)
    if (matches(name)) w.field(name, g.value());
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms_) {
    if (!matches(name)) continue;
    const Histogram::Snapshot s = h.snapshot();
    w.key(name)
        .begin_object()
        .field("count", s.count)
        .field("sum_us", s.sum)
        .field("min_us", s.min)
        .field("max_us", s.max)
        .field("mean_us", s.mean())
        .field("p50_us", s.p50())
        .field("p95_us", s.p95())
        .field("p99_us", s.p99())
        .end_object();
  }
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

std::string MetricsRegistry::to_prometheus() const {
  LockGuard lock(mutex_);
  std::string out;
  for (const auto& [name, total] : counter_totals_locked()) {
    const std::string p = prometheus_name(name);
    out += "# TYPE " + p + " counter\n";
    out += p + " " + std::to_string(total) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    const std::string p = prometheus_name(name);
    out += "# TYPE " + p + " gauge\n";
    out += p + " " + std::to_string(g.value()) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const Histogram::Snapshot s = h.snapshot();
    const std::string p = prometheus_name(name);
    out += "# TYPE " + p + " summary\n";
    out += p + "{quantile=\"0.5\"} " + json_number(s.p50()) + "\n";
    out += p + "{quantile=\"0.95\"} " + json_number(s.p95()) + "\n";
    out += p + "{quantile=\"0.99\"} " + json_number(s.p99()) + "\n";
    out += p + "_sum " + std::to_string(s.sum) + "\n";
    out += p + "_count " + std::to_string(s.count) + "\n";
  }
  return out;
}

void MetricsRegistry::reset_values() {
  LockGuard lock(mutex_);
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, c] : instanced_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

MetricsRegistry& global() noexcept {
  // Leaked on purpose: instrumented code may run during other objects'
  // static destruction, so the registry must never be destroyed first.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace fraz::telemetry
