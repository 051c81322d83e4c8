#include "serve/reader_pool.hpp"

#include <algorithm>
#include <cstring>

#include "opt/thread_pool.hpp"
#include "telemetry/telemetry.hpp"
#include "util/status.hpp"

namespace fraz::serve {

using archive::ArchiveReader;
using archive::FieldInfo;

// --------------------------------------------------------------- ReaderPool

ReaderPool::ReaderPool(ArchiveReader reader, ReaderPoolConfig config,
                       ChunkCachePtr cache)
    : reader_(std::move(reader)),
      config_(std::move(config)),
      cache_(std::move(cache)),
      archive_id_(ChunkCache::next_archive_id()),
      free_contexts_(reader_.fields().size()),
      requests_(telemetry::global().instanced_counter("serve.pool.requests")),
      cache_hits_(telemetry::global().instanced_counter("serve.pool.cache_hits")),
      wait_hits_(telemetry::global().instanced_counter("serve.pool.wait_hits")),
      decoded_chunks_(telemetry::global().instanced_counter("serve.pool.decoded_chunks")),
      prefetch_issued_(
          telemetry::global().instanced_counter("serve.pool.prefetch_issued")) {
  // Pre-register the serve histograms so a METRICS exposition lists them
  // (with zero counts) before the first request ever lands.
  telemetry::global().histogram("serve.request_us");
  telemetry::global().histogram("serve.decode_us");
}

ReaderPool::~ReaderPool() {
  // Prefetch tasks hold shared_ptr ownership, so none can be running here;
  // retire this pool's cache entries so a shared cache does not carry dead
  // archives.
  cache_->erase_archive(archive_id_);
}

Result<std::shared_ptr<ReaderPool>> ReaderPool::open(const std::string& path,
                                                     ReaderPoolConfig config) noexcept {
  return guarded([&]() -> Result<std::shared_ptr<ReaderPool>> {
    auto reader = ArchiveReader::open(path);
    if (!reader.ok()) return reader.status();
    ChunkCachePtr cache = config.cache;
    if (!cache) cache = std::make_shared<ChunkCache>(config.cache_bytes);
    return std::shared_ptr<ReaderPool>(
        new ReaderPool(std::move(reader).value(), std::move(config), std::move(cache)));
  });
}

Result<std::size_t> ReaderPool::field_index(const std::string& name) const noexcept {
  const std::vector<FieldInfo>& fields = reader_.fields();
  for (std::size_t i = 0; i < fields.size(); ++i)
    if (fields[i].name == name) return i;
  return Status::invalid_argument("serve: no field named '" + name + "'");
}

Result<std::unique_ptr<ReaderPool::Context>> ReaderPool::checkout_context(
    std::size_t field) noexcept {
  {
    LockGuard lock(context_mutex_);
    if (!free_contexts_[field].empty()) {
      std::unique_ptr<Context> context = std::move(free_contexts_[field].back());
      free_contexts_[field].pop_back();
      return context;
    }
  }
  return guarded([&] {
    return std::make_unique<Context>(
        Context{archive::detail::ChunkDecoder(reader_.fields()[field].compressor), Buffer()});
  });
}

void ReaderPool::checkin_context(std::size_t field,
                                 std::unique_ptr<Context> context) noexcept {
  try {
    LockGuard lock(context_mutex_);
    free_contexts_[field].push_back(std::move(context));
  } catch (...) {
    // Dropping the context is safe — the next decode just rebuilds one.
  }
}

Result<std::shared_ptr<const NdArray>> ReaderPool::chunk(std::size_t field,
                                                         std::size_t i) noexcept {
  return guarded([&]() -> Result<std::shared_ptr<const NdArray>> {
    const std::vector<FieldInfo>& fields = reader_.fields();
    if (field >= fields.size())
      return Status::invalid_argument("serve: field index out of range");
    if (i >= fields[field].chunk_count)
      return Status::invalid_argument("serve: chunk index out of range");
    requests_.add();

    const ChunkKey key{archive_id_, static_cast<std::uint32_t>(field), i};
    if (std::shared_ptr<const NdArray> cached = cache_->lookup(key)) {
      cache_hits_.add();
      return cached;
    }

    // Miss: either become the decoding owner for this chunk or wait on the
    // thread that already is.
    std::shared_ptr<InFlight> flight;
    bool owner = false;
    {
      LockGuard lock(inflight_mutex_);
      auto it = inflight_.find(key);
      if (it != inflight_.end()) {
        flight = it->second;
      } else {
        flight = std::make_shared<InFlight>();
        inflight_.emplace(key, flight);
        owner = true;
      }
    }

    if (!owner) {
      UniqueLock lock(flight->mutex);
      while (!flight->done) flight->done_cv.wait(lock);
      wait_hits_.add();
      if (!flight->status.ok()) return flight->status;
      return flight->value;
    }

    // Owner path.  Re-check the cache first: a previous owner may have
    // inserted and retired between our lookup miss and our registration —
    // without this check that window would decode the chunk twice.
    std::shared_ptr<const NdArray> value = cache_->lookup(key);
    Status status;
    if (value) {
      cache_hits_.add();
    } else {
      auto context = checkout_context(field);
      status = context.status();
      if (context.ok()) {
        // A failed decode's Status goes to every waiter below.
        status = guarded([&] {
          TELEM_SPAN("serve.decode_us");
          value = std::make_shared<const NdArray>(context.value()->decoder.decode(
              reader_.chunk_source(), fields[field], reader_.info().chunk_region, i,
              context.value()->scratch));
        });
        checkin_context(field, std::move(context).value());
      }
      // Publish to the cache before retiring the in-flight entry, so a
      // thread that misses the retired entry finds the chunk resident
      // instead of starting a second decode.
      if (value) {
        decoded_chunks_.add();
        cache_->insert(key, value);
      }
    }
    {
      LockGuard lock(inflight_mutex_);
      inflight_.erase(key);
    }
    {
      LockGuard lock(flight->mutex);
      flight->status = status;
      flight->value = value;
      flight->done = true;
    }
    flight->done_cv.notify_all();

    if (!status.ok()) return status;
    return value;
  });
}

void ReaderPool::prefetch(std::size_t field, std::size_t i) noexcept {
  try {
    if (!config_.prefetch) return;
    const std::vector<FieldInfo>& fields = reader_.fields();
    if (field >= fields.size() || i >= fields[field].chunk_count) return;
    const ChunkKey key{archive_id_, static_cast<std::uint32_t>(field), i};
    if (cache_->contains(key)) return;
    {
      LockGuard lock(inflight_mutex_);
      if (inflight_.count(key) != 0) return;
    }
    {
      LockGuard lock(prefetch_mutex_);
      ++prefetch_outstanding_;
    }
    prefetch_issued_.add();
    // The task holds shared ownership, so a prefetch can never outlive its
    // pool.  It may briefly wait on a chunk another *running* thread is
    // decoding — in-flight owners are always actively executing, never
    // queued behind this task, so the shared pool cannot deadlock on it.
    std::shared_ptr<ReaderPool> self = shared_from_this();
    shared_thread_pool().submit([self, field, i] {
      self->chunk(field, i);  // failures surface on the eventual read
      LockGuard lock(self->prefetch_mutex_);
      if (--self->prefetch_outstanding_ == 0) self->prefetch_cv_.notify_all();
    });
  } catch (...) {
    // Prefetch is a hint; losing one costs a cold decode later, nothing more.
  }
}

void ReaderPool::drain_prefetches() noexcept {
  UniqueLock lock(prefetch_mutex_);
  while (prefetch_outstanding_ != 0) prefetch_cv_.wait(lock);
}

ReaderPool::Stats ReaderPool::stats() const noexcept {
  Stats stats;
  stats.requests = static_cast<std::size_t>(requests_.value());
  stats.cache_hits = static_cast<std::size_t>(cache_hits_.value());
  stats.wait_hits = static_cast<std::size_t>(wait_hits_.value());
  stats.decoded_chunks = static_cast<std::size_t>(decoded_chunks_.value());
  stats.prefetch_issued = static_cast<std::size_t>(prefetch_issued_.value());
  return stats;
}

// ------------------------------------------------------------- ReaderHandle

const archive::ArchiveInfo& ReaderHandle::info() const noexcept {
  return pool_->info();
}

const std::vector<FieldInfo>& ReaderHandle::fields() const noexcept {
  return pool_->fields();
}

Result<NdArray> ReaderHandle::read_range(std::size_t field, std::size_t first,
                                         std::size_t count) noexcept {
  return guarded([&]() -> Result<NdArray> {
    const std::vector<FieldInfo>& fields = pool_->fields();
    if (field >= fields.size())
      return Status::invalid_argument("serve: field index out of range");
    const FieldInfo& f = fields[field];
    const std::size_t n0 = f.shape[0];
    if (count == 0 || first >= n0 || count > n0 - first)
      return Status::invalid_argument("serve: plane range out of bounds");

    Shape out_shape = f.shape;
    out_shape[0] = count;
    NdArray out(f.dtype, std::move(out_shape));
    const std::size_t plane_bytes =
        (shape_elements(f.shape) / n0) * dtype_size(f.dtype);
    const std::size_t extent = f.chunk_extent;
    const std::size_t first_chunk = first / extent;
    const std::size_t last_chunk = (first + count - 1) / extent;

    for (std::size_t c = first_chunk; c <= last_chunk; ++c) {
      auto chunk = pool_->chunk(field, c);
      if (!chunk.ok()) return chunk.status();
      const NdArray& decoded = *chunk.value();
      const std::size_t chunk_first = c * extent;
      const std::size_t lo = std::max(first, chunk_first);
      const std::size_t hi = std::min(first + count, chunk_first + decoded.shape()[0]);
      std::memcpy(static_cast<std::uint8_t*>(out.data()) + (lo - first) * plane_bytes,
                  static_cast<const std::uint8_t*>(decoded.data()) +
                      (lo - chunk_first) * plane_bytes,
                  (hi - lo) * plane_bytes);
    }

    // Sequential-scan readahead: the second consecutive read that starts
    // exactly where the previous one ended arms prefetch of the chunk after
    // the last one this read touched.
    if (field == last_field_ && first == next_plane_)
      ++streak_;
    else
      streak_ = 1;
    last_field_ = field;
    next_plane_ = first + count;
    if (streak_ >= 2 && last_chunk + 1 < f.chunk_count)
      pool_->prefetch(field, last_chunk + 1);

    return out;
  });
}

Result<NdArray> ReaderHandle::read_range(const std::string& field, std::size_t first,
                                         std::size_t count) noexcept {
  const Result<std::size_t> index = pool_->field_index(field);
  if (!index.ok()) return index.status();
  return read_range(index.value(), first, count);
}

Result<NdArray> ReaderHandle::read_chunk(std::size_t field, std::size_t i) noexcept {
  return guarded([&]() -> Result<NdArray> {
    auto chunk = pool_->chunk(field, i);
    if (!chunk.ok()) return chunk.status();
    return NdArray(*chunk.value());  // owned copy; the cache keeps the shared one
  });
}

Result<NdArray> ReaderHandle::read_chunk(const std::string& field,
                                         std::size_t i) noexcept {
  const Result<std::size_t> index = pool_->field_index(field);
  if (!index.ok()) return index.status();
  return read_chunk(index.value(), i);
}

Result<NdArray> ReaderHandle::read_all(std::size_t field) noexcept {
  const std::vector<FieldInfo>& fields = pool_->fields();
  if (field >= fields.size())
    return Status::invalid_argument("serve: field index out of range");
  return read_range(field, 0, fields[field].shape[0]);
}

Result<NdArray> ReaderHandle::read_all(const std::string& field) noexcept {
  const Result<std::size_t> index = pool_->field_index(field);
  if (!index.ok()) return index.status();
  return read_all(index.value());
}

}  // namespace fraz::serve
