#ifndef FRAZ_SERVE_READER_POOL_HPP
#define FRAZ_SERVE_READER_POOL_HPP

/// \file reader_pool.hpp
/// Concurrent read-side serving over one archive file.
///
/// ArchiveReader is a serial random-access reader: one decoder per field,
/// one scratch, no internal locking.  A serving workload is the opposite
/// shape — many clients, one archive, heavy re-reads — so ReaderPool maps
/// the file once and serves decoded chunks to any number of threads:
///
///  - **Cache first.**  Every chunk request consults the shared ChunkCache;
///    a hit costs a hash lookup, a recency-list splice and a shared_ptr
///    copy, no decode, no I/O.
///  - **Decode once.**  Concurrent misses on the same chunk collapse onto a
///    per-chunk in-flight guard: one thread decodes, the rest wait on its
///    result.  The owner re-checks the cache after registering, so a decode
///    can never race a just-completed insert — each resident chunk is
///    decoded exactly once per cache lifetime (pinned by test).
///  - **Per-decode contexts.**  Decodes check a (ChunkDecoder, scratch)
///    context out of a per-field free list and return it after — concurrent
///    decodes of different chunks genuinely overlap, and steady-state
///    serving allocates no new engines.
///
/// ReaderHandle is the per-client view: cheap to create (a shared_ptr and a
/// few counters), single-threaded like a file descriptor, holding the pool
/// alive.  Handles add sequential-scan readahead: a second consecutive
/// ascending read_range triggers prefetch of the next chunk row on the
/// shared worker pool, so a scanning client finds its next chunk already
/// decoded.  Prefetch tasks keep the pool alive (they hold the shared_ptr),
/// are skipped when the chunk is already resident or in flight, and can be
/// drained deterministically for tests.
///
/// Lifetime rules: open() yields shared_ptr<ReaderPool>; handles, prefetch
/// tasks, and the serve loop share ownership.  The pool's cache entries are
/// dropped when the pool is destroyed (its archive-id is retired); the
/// ChunkCache itself may be shared across pools and outlive any of them.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "archive/archive.hpp"
#include "serve/chunk_cache.hpp"
#include "util/thread_annotations.hpp"

namespace fraz::serve {

/// Construction-time configuration of a ReaderPool.
struct ReaderPoolConfig {
  /// Decoded-chunk cache to share; null creates a private cache of
  /// \p cache_bytes.  A zero-budget cache disables caching (every request
  /// decodes) — the bench's cold mode.
  ChunkCachePtr cache;
  /// Budget of the private cache when \p cache is null.
  std::size_t cache_bytes = ChunkCache::kDefaultByteBudget;
  /// Enable handle-side sequential readahead.
  bool prefetch = true;
};

class ReaderPool;

/// One client's view of a ReaderPool: cheap, single-threaded (like a file
/// descriptor — use one handle per thread), holding the pool alive.  Carries
/// the readahead detector: the handle watches its own read_range sequence
/// and prefetches the next chunk row once the pattern is ascending.
class ReaderHandle {
public:
  explicit ReaderHandle(std::shared_ptr<ReaderPool> pool) noexcept
      : pool_(std::move(pool)) {}

  const archive::ArchiveInfo& info() const noexcept;
  const std::vector<archive::FieldInfo>& fields() const noexcept;

  /// Decompress the slowest-axis plane range [first, first + count) of a
  /// field.  Chunks come from the shared cache when resident; the copy into
  /// the result is the only per-request work a warm read pays.
  Result<NdArray> read_range(std::size_t field, std::size_t first,
                             std::size_t count) noexcept;
  Result<NdArray> read_range(const std::string& field, std::size_t first,
                             std::size_t count) noexcept;

  /// Decompress exactly chunk \p i of a field (returns an owned copy; use
  /// ReaderPool::chunk for the zero-copy shared view).
  Result<NdArray> read_chunk(std::size_t field, std::size_t i) noexcept;
  Result<NdArray> read_chunk(const std::string& field, std::size_t i) noexcept;

  /// Decompress a whole field.
  Result<NdArray> read_all(std::size_t field) noexcept;
  Result<NdArray> read_all(const std::string& field) noexcept;

  const std::shared_ptr<ReaderPool>& pool() const noexcept { return pool_; }

private:
  std::shared_ptr<ReaderPool> pool_;
  // Sequential-scan detector: a read_range starting exactly where the last
  // one ended extends the streak; the second consecutive hit arms readahead.
  std::size_t last_field_ = static_cast<std::size_t>(-1);
  std::size_t next_plane_ = 0;
  unsigned streak_ = 0;
};

/// Thread-safe serving core over one mmapped archive (see file comment).
class ReaderPool : public std::enable_shared_from_this<ReaderPool> {
public:
  /// Open \p path and prepare the serving state.  The archive is mapped
  /// once; every handle and request works through this one mapping.
  static Result<std::shared_ptr<ReaderPool>> open(const std::string& path,
                                                  ReaderPoolConfig config = {}) noexcept;

  ~ReaderPool();

  ReaderPool(const ReaderPool&) = delete;
  ReaderPool& operator=(const ReaderPool&) = delete;

  const archive::ArchiveInfo& info() const noexcept { return reader_.info(); }
  const std::vector<archive::FieldInfo>& fields() const noexcept {
    return reader_.fields();
  }
  Result<std::size_t> field_index(const std::string& name) const noexcept;

  /// A new client view of this pool.
  ReaderHandle handle() noexcept { return ReaderHandle(shared_from_this()); }

  /// The decoded chunk (field, i) as a shared immutable array — the serving
  /// primitive.  Cache hit: a shared_ptr copy.  Miss: decode once under the
  /// in-flight guard, insert, share.  Thread-safe.
  Result<std::shared_ptr<const NdArray>> chunk(std::size_t field,
                                               std::size_t i) noexcept;

  /// Hint that chunk (field, i) will be read soon: decode it on the shared
  /// worker pool unless it is already resident or in flight.  Fire-and-
  /// forget; failures surface on the eventual read instead.
  void prefetch(std::size_t field, std::size_t i) noexcept;

  /// Block until every issued prefetch task has completed (deterministic
  /// test point; serving never needs this).
  void drain_prefetches() noexcept;

  const ChunkCachePtr& cache() const noexcept { return cache_; }
  std::uint64_t archive_id() const noexcept { return archive_id_; }
  bool prefetch_enabled() const noexcept { return config_.prefetch; }

  /// Counter values come from the telemetry layer (instanced registry
  /// counters: this pool's own instances of the serve.pool.* names, which
  /// exposition sums across pools — lock-free, no stats mutex on the hot
  /// path), so they freeze while FRAZ_TELEMETRY_OFF is set.
  struct Stats {
    std::size_t requests = 0;        ///< chunk() calls
    std::size_t cache_hits = 0;      ///< served by the cache without waiting
    std::size_t wait_hits = 0;       ///< waited on another thread's decode
    std::size_t decoded_chunks = 0;  ///< decodes actually paid
    std::size_t prefetch_issued = 0; ///< prefetch tasks submitted
  };
  Stats stats() const noexcept;

private:
  /// One decode's working set: a field's chunk decoder plus fetch scratch,
  /// checked out of the per-field free list for the duration of one decode.
  struct Context {
    archive::detail::ChunkDecoder decoder;
    Buffer scratch;
  };

  /// Result slot N threads missing the same chunk converge on.
  struct InFlight {
    Mutex mutex;
    CondVar done_cv;
    bool done FRAZ_GUARDED_BY(mutex) = false;
    Status status FRAZ_GUARDED_BY(mutex);
    std::shared_ptr<const NdArray> value FRAZ_GUARDED_BY(mutex);
  };

  ReaderPool(archive::ArchiveReader reader, ReaderPoolConfig config,
             ChunkCachePtr cache);

  Result<std::unique_ptr<Context>> checkout_context(std::size_t field) noexcept;
  void checkin_context(std::size_t field, std::unique_ptr<Context> context) noexcept;

  archive::ArchiveReader reader_;
  const ReaderPoolConfig config_;
  const ChunkCachePtr cache_;
  const std::uint64_t archive_id_;

  Mutex context_mutex_;
  /// Per-field free lists of decode contexts.
  std::vector<std::vector<std::unique_ptr<Context>>> free_contexts_
      FRAZ_GUARDED_BY(context_mutex_);

  Mutex inflight_mutex_;
  std::unordered_map<ChunkKey, std::shared_ptr<InFlight>, ChunkKeyHash> inflight_
      FRAZ_GUARDED_BY(inflight_mutex_);

  telemetry::Counter& requests_;
  telemetry::Counter& cache_hits_;
  telemetry::Counter& wait_hits_;
  telemetry::Counter& decoded_chunks_;
  telemetry::Counter& prefetch_issued_;

  Mutex prefetch_mutex_;
  CondVar prefetch_cv_;
  std::size_t prefetch_outstanding_ FRAZ_GUARDED_BY(prefetch_mutex_) = 0;
};

}  // namespace fraz::serve

#endif  // FRAZ_SERVE_READER_POOL_HPP
