#include "serve/chunk_cache.hpp"

#include <atomic>
#include <iterator>

namespace fraz::serve {

namespace {

telemetry::Gauge& resident_bytes_gauge() {
  static telemetry::Gauge& g =
      telemetry::global().gauge("serve.cache.resident_bytes");
  return g;
}

}  // namespace

ChunkCache::ChunkCache(std::size_t byte_budget)
    : byte_budget_(byte_budget),
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
  const auto total = static_cast<std::int64_t>(resident_bytes_);
  resident_bytes_gauge().add(total - published_resident_);
  published_resident_ = total;
}

std::shared_ptr<const NdArray> ChunkCache::lookup(const ChunkKey& key) noexcept {
  // Counters are bumped after the mutex is released: at warm saturation the
  // lock is the throughput bound, so the critical section stays map-and-list
  // only.  A hit moves no bytes, so it never touches the shared gauge.
  std::shared_ptr<const NdArray> result;
  {
    LockGuard lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      recency_.splice(recency_.begin(), recency_, it->second);
      result = it->second->second;
    }
  }
  (result ? hits_ : misses_).add();
  return result;
}

bool ChunkCache::contains(const ChunkKey& key) const noexcept {
  LockGuard lock(mutex_);
  return index_.count(key) != 0;
}

void ChunkCache::insert(const ChunkKey& key, std::shared_ptr<const NdArray> chunk) {
  if (!chunk) return;
  const std::size_t bytes = chunk->size_bytes();
  // A chunk above half the budget would flush most of the cache to make
  // room for itself; skip it outright (and a zero budget makes every chunk
  // uncacheable — caching disabled).
  if (bytes > byte_budget_ / 2) {
    uncacheable_.add();
    return;
  }
  // The new node is built, and the dropped ones freed, outside the lock.
  Recency fresh;
  fresh.emplace_front(key, std::move(chunk));
  Recency dropped;
  std::size_t evicted = 0;
  {
    LockGuard lock(mutex_);
    if (const auto it = index_.find(key); it != index_.end()) {
      resident_bytes_ -= it->second->second->size_bytes();
      dropped.splice(dropped.end(), recency_, it->second);
      index_.erase(it);
    }
    // resident_bytes_ > 0 here, so the list is not empty.
    while (resident_bytes_ + bytes > byte_budget_) {
      const auto victim = std::prev(recency_.end());
      resident_bytes_ -= victim->second->size_bytes();
      index_.erase(victim->first);
      dropped.splice(dropped.end(), recency_, victim);
      ++evicted;
    }
    recency_.splice(recency_.begin(), fresh);
    index_.emplace(key, recency_.begin());
    resident_bytes_ += bytes;
    sync_resident_locked();
  }
  if (evicted != 0) evictions_.add(evicted);
}

void ChunkCache::erase_archive(std::uint64_t archive) noexcept {
  Recency dropped;
  LockGuard lock(mutex_);
  for (auto it = recency_.begin(); it != recency_.end();) {
    const auto next = std::next(it);
    if (it->first.archive == archive) {
      resident_bytes_ -= it->second->size_bytes();
      index_.erase(it->first);
      dropped.splice(dropped.end(), recency_, it);
    }
    it = next;
  }
  sync_resident_locked();
}

void ChunkCache::clear() noexcept {
  Recency dropped;
  LockGuard lock(mutex_);
  dropped.swap(recency_);
  index_.clear();
  resident_bytes_ = 0;
  sync_resident_locked();
}

ChunkCache::Stats ChunkCache::stats() const noexcept {
  LockGuard lock(mutex_);
  Stats stats;
  stats.hits = static_cast<std::size_t>(hits_.value());
  stats.misses = static_cast<std::size_t>(misses_.value());
  stats.entries = index_.size();
  stats.resident_bytes = resident_bytes_;
  stats.evictions = static_cast<std::size_t>(evictions_.value());
  stats.uncacheable = static_cast<std::size_t>(uncacheable_.value());
  return stats;
}

}  // namespace fraz::serve
