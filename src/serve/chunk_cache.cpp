#include "serve/chunk_cache.hpp"

#include <atomic>
#include <utility>

namespace fraz::serve {

namespace {

telemetry::Gauge& resident_bytes_gauge() {
  static telemetry::Gauge& g =
      telemetry::global().gauge("serve.cache.resident_bytes");
  return g;
}

}  // namespace

ChunkCache::ChunkCache(std::size_t byte_budget)
    : index_(byte_budget),
      hits_(telemetry::global().instanced_counter("serve.cache.hits")),
      misses_(telemetry::global().instanced_counter("serve.cache.misses")),
      evictions_(telemetry::global().instanced_counter("serve.cache.evictions")),
      uncacheable_(telemetry::global().instanced_counter("serve.cache.uncacheable")) {}

ChunkCache::~ChunkCache() {
  // Return this cache's published resident bytes so shared-gauge totals
  // across other caches stay correct.
  resident_bytes_gauge().add(-published_resident_);
}

std::uint64_t ChunkCache::next_archive_id() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

void ChunkCache::sync_resident_locked() {
  if (!telemetry::enabled()) return;
  const auto total = static_cast<std::int64_t>(index_.cost());
  resident_bytes_gauge().add(total - published_resident_);
  published_resident_ = total;
}

std::shared_ptr<const NdArray> ChunkCache::lookup(const ChunkKey& key) noexcept {
  // Counters are bumped after the mutex is released: at warm saturation the
  // lock is the throughput bound, so the critical section stays index-only
  // and allocation-free.  A hit moves no bytes, so it never touches the
  // shared gauge.
  std::shared_ptr<const NdArray> result;
  {
    LockGuard lock(mutex_);
    if (const auto* hit = index_.touch(key)) result = *hit;
  }
  (result ? hits_ : misses_).add();
  return result;
}

bool ChunkCache::contains(const ChunkKey& key) const noexcept {
  LockGuard lock(mutex_);
  return index_.contains(key);
}

void ChunkCache::insert(const ChunkKey& key, std::shared_ptr<const NdArray> chunk) {
  if (!chunk) return;
  const std::size_t bytes = chunk->size_bytes();
  // The new nodes are built, and the dropped ones freed, outside the lock.
  Index::Nodes fresh = Index::stage(key, std::move(chunk), bytes);
  Index::Nodes dropped;
  std::size_t evicted = 0;
  bool cacheable = false;
  {
    LockGuard lock(mutex_);
    // A chunk above half the budget would flush most of the cache to make
    // room for itself; skip it outright (and a zero budget makes every chunk
    // uncacheable — caching disabled).
    cacheable = bytes <= index_.budget() / 2;
    if (cacheable) {
      evicted = index_.insert(std::move(fresh), dropped);
      sync_resident_locked();
    }
  }
  if (!cacheable) uncacheable_.add();
  if (evicted != 0) evictions_.add(evicted);
}

void ChunkCache::erase_archive(std::uint64_t archive) noexcept {
  Index::Nodes dropped;
  LockGuard lock(mutex_);
  index_.erase_if([archive](const ChunkKey& key) { return key.archive == archive; },
                  dropped);
  sync_resident_locked();
}

void ChunkCache::clear() noexcept {
  Index::Nodes dropped;
  LockGuard lock(mutex_);
  index_.clear(dropped);
  sync_resident_locked();
}

ChunkCache::Stats ChunkCache::stats() const noexcept {
  LockGuard lock(mutex_);
  Stats stats;
  stats.hits = static_cast<std::size_t>(hits_.value());
  stats.misses = static_cast<std::size_t>(misses_.value());
  stats.entries = index_.size();
  stats.resident_bytes = index_.cost();
  stats.evictions = static_cast<std::size_t>(evictions_.value());
  stats.uncacheable = static_cast<std::size_t>(uncacheable_.value());
  return stats;
}

}  // namespace fraz::serve
