#ifndef FRAZ_SERVE_CHUNK_CACHE_HPP
#define FRAZ_SERVE_CHUNK_CACHE_HPP

/// \file chunk_cache.hpp
/// Shared decoded-chunk cache of the serve subsystem.
///
/// Serving workloads are decode-bound (SZx, PAPERS.md): when many clients
/// slice the same archive, the first-order win is paying each chunk's
/// decompression once and handing every later reader the decoded planes.
/// ChunkCache holds decoded chunks as shared immutable arrays keyed by
/// (archive-id, field, chunk), bounded by a byte budget under the
/// least-frequently-used-with-aging policy of util/lfu_index.hpp: a chunk's
/// rank is the floor at its admission plus its hits since then, an insert
/// evicts the lowest rank first (equal ranks least recently touched first,
/// so equal-use chunks leave in LRU order), and each eviction raises the
/// floor to the victim's rank, so a chunk that stops being hit leaves once
/// the floor reaches its rank.  A chunk read many times outlives a stream
/// of chunks read once — a
/// sequential scan or readahead cannot flush the hot set — and every
/// admission, demand or prefetch, starts at the floor.  Eviction is driven
/// purely by the lookup/insert sequence — never by wall-clock time — so a
/// replayed request sequence evicts identically, which is what makes cache
/// behaviour testable.
///
/// Entries are `shared_ptr<const NdArray>`: eviction never invalidates a
/// reader mid-copy, it only drops the cache's reference, and the cache drops
/// it after releasing its lock.

#include <cstdint>
#include <memory>

#include "ndarray/ndarray.hpp"
#include "telemetry/telemetry.hpp"
#include "util/lfu_index.hpp"
#include "util/thread_annotations.hpp"

namespace fraz::serve {

/// Identity of one decoded chunk: which open archive (ReaderPool instance),
/// which field, which chunk.  Archive ids come from ChunkCache::next_archive_id
/// so two pools over the same path never alias each other's entries.
struct ChunkKey {
  std::uint64_t archive = 0;
  std::uint32_t field = 0;
  std::uint64_t chunk = 0;

  bool operator==(const ChunkKey& other) const noexcept {
    return archive == other.archive && field == other.field && chunk == other.chunk;
  }
};

struct ChunkKeyHash {
  std::size_t operator()(const ChunkKey& key) const noexcept {
    // splitmix64-style mix of the three coordinates.
    std::uint64_t h = key.archive * 0x9e3779b97f4a7c15ull;
    h ^= (static_cast<std::uint64_t>(key.field) + 0xbf58476d1ce4e5b9ull) * 0x94d049bb133111ebull;
    h ^= h >> 31;
    h ^= (key.chunk + 0x9e3779b97f4a7c15ull) * 0xbf58476d1ce4e5b9ull;
    h ^= h >> 29;
    return static_cast<std::size_t>(h);
  }
};

/// Thread-safe byte-budgeted cache of decoded chunks (see file
/// comment).  A byte budget of 0 disables caching entirely — every lookup
/// misses, every insert is dropped — which is how the bench measures the
/// cold decode-per-call floor.
class ChunkCache {
public:
  /// \param byte_budget total decoded bytes the cache may hold.  A single
  /// chunk larger than half the budget is uncacheable and silently skipped
  /// (counted in stats().uncacheable), so one chunk cannot flush the cache.
  explicit ChunkCache(std::size_t byte_budget = kDefaultByteBudget);
  ~ChunkCache();

  static constexpr std::size_t kDefaultByteBudget = 256ull << 20;  ///< 256 MiB

  /// Process-unique archive id for a new ReaderPool.
  static std::uint64_t next_archive_id() noexcept;

  /// The decoded chunk for \p key, or nullptr on miss.  A hit raises the
  /// entry's rank by one and makes it the most recently touched.
  std::shared_ptr<const NdArray> lookup(const ChunkKey& key) noexcept;

  /// True when \p key is resident.  A pure peek: no rank update, no
  /// hit/miss accounting — prefetchers use this to skip work without
  /// skewing stats or pinning entries.
  bool contains(const ChunkKey& key) const noexcept;

  /// Insert a decoded chunk at the floor rank as the most recently touched,
  /// replacing any entry with the same key, after evicting the lowest-ranked
  /// entries until it fits the budget.  Chunks above half the budget are not
  /// cached.
  void insert(const ChunkKey& key, std::shared_ptr<const NdArray> chunk);

  /// Drop every entry of \p archive (a ReaderPool closing).
  void erase_archive(std::uint64_t archive) noexcept;

  void clear() noexcept;

  /// Counter values come from the telemetry layer (instanced registry
  /// counters: this cache's own instances of the serve.cache.* names, which
  /// exposition sums across caches), so they freeze while FRAZ_TELEMETRY_OFF
  /// is set.
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t entries = 0;         ///< resident chunks
    std::size_t resident_bytes = 0;  ///< decoded bytes held
    std::size_t evictions = 0;       ///< entries dropped to fit the budget
    std::size_t uncacheable = 0;     ///< inserts skipped as larger than half the budget
  };
  Stats stats() const noexcept;

private:
  /// Inserted entries are built in a local Index::Nodes before the mutex is
  /// taken; evicted and replaced ones leave in another and are freed after
  /// it is released.
  using Index = LfuIndex<ChunkKey, std::shared_ptr<const NdArray>, ChunkKeyHash>;

  /// Publish the resident-bytes level to the serve.cache.resident_bytes
  /// gauge as a delta from the last published value.
  void sync_resident_locked() FRAZ_REQUIRES(mutex_);

  mutable Mutex mutex_;
  /// Costs are decoded bytes.
  Index index_ FRAZ_GUARDED_BY(mutex_);
  telemetry::Counter& hits_;
  telemetry::Counter& misses_;
  telemetry::Counter& evictions_;
  telemetry::Counter& uncacheable_;
  /// The gauge's view of this cache.
  std::int64_t published_resident_ FRAZ_GUARDED_BY(mutex_) = 0;
};

using ChunkCachePtr = std::shared_ptr<ChunkCache>;

}  // namespace fraz::serve

#endif  // FRAZ_SERVE_CHUNK_CACHE_HPP
