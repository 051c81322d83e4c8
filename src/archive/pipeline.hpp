#ifndef FRAZ_ARCHIVE_PIPELINE_HPP
#define FRAZ_ARCHIVE_PIPELINE_HPP

/// \file pipeline.hpp
/// The write core of `fraz::archive`: the push-based archive assembler
/// behind ArchiveWriter.  A build supplies one small adapter — a `ByteSink`
/// the assembler appends the archive to (a growable Buffer, or a FILE* for a
/// path build).
///
/// The assembler is the engine behind both the push-based FieldSession API
/// and the single-array `write()`: callers push slabs, the assembler stages
/// exactly one chunk row per open field and dispatches each completed row
/// into the parallel chunk pipeline, which admits rows under a bounded
/// window (submitted-but-unemitted ≤ workers + 1) and emits payloads to the
/// sink strictly in index order — which is what lets a file be written
/// append-only while keeping the bytes identical to a Buffer build at any
/// worker count, and what bounds writer input memory to O(chunk-row ×
/// workers) however the data arrives.

#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "archive/archive.hpp"
#include "archive/format.hpp"
#include "engine/engine.hpp"
#include "ndarray/ndarray.hpp"
#include "util/buffer.hpp"
#include "util/timer.hpp"

namespace fraz {
class ThreadPool;
}  // namespace fraz

namespace fraz::archive::detail {

/// Append-only destination of one archive write.
class ByteSink {
public:
  virtual ~ByteSink() = default;
  /// Append \p size bytes; throws when they cannot be written, which
  /// poisons the build.
  virtual void append(const std::uint8_t* data, std::size_t size) = 0;
  /// Total bytes appended so far.
  virtual std::size_t bytes_written() const noexcept = 0;
};

/// Sink over a caller-owned Buffer.
class BufferSink final : public ByteSink {
public:
  explicit BufferSink(Buffer& out) noexcept : out_(out) {}
  void append(const std::uint8_t* data, std::size_t size) override {
    out_.append(data, size);
  }
  std::size_t bytes_written() const noexcept override { return out_.size(); }

private:
  Buffer& out_;
};

/// Workers for \p tasks tasks: \p requested (0 = hardware concurrency, at
/// least 1), never more than there are tasks.
unsigned resolve_workers(unsigned requested, std::size_t tasks);

class ChunkPipeline;

/// Transport-independent build of one complete v3 archive through a
/// ByteSink.  Fields are ingested one at a time: open_field() declares the
/// geometry (and invalidates stale per-chunk warm keys), push() stages
/// planes into the current chunk row and dispatches completed rows to the
/// parallel pipeline, close_field() drains the field, finish() seals the
/// field-table manifest + footer.
///
/// Every call throws on failure.  Argument misuse leaves the build as it
/// was; a failed tune, chunk compression or sink append poisons it, and
/// every later call rethrows that first failure until the build is dropped.
///
/// A build runs on one pool of `threads` workers, made at the first field
/// and joined with the build: chunk-0 training (the caller waits), chunk
/// runners, and the probe helpers inside both, so idle workers join any
/// search still running.  It must not outlive the build: a long-lived
/// thread keeps its malloc arena, and later readers would open new ones.
///
/// \p state carries the persistent warm knowledge between builds: the
/// per-field chunk-0 tuning engine, the shared BoundStore of per-(field,
/// chunk) warm bounds (every worker engine adopts it, each chunk
/// reading/writing only its own deterministic key), and the shared probe
/// dedup cache.  This is the single write path behind ArchiveWriter.
class ArchiveAssembler {
public:
  ArchiveAssembler(const ArchiveWriteConfig& config, WriterWarmState& state,
                   ByteSink& sink);
  ~ArchiveAssembler();

  ArchiveAssembler(const ArchiveAssembler&) = delete;
  ArchiveAssembler& operator=(const ArchiveAssembler&) = delete;

  void open_field(const std::string& name, const FieldDesc& desc);
  void push(const ArrayView& slab);
  FieldWriteReport close_field();
  ArchiveWriteResult finish();

  bool field_open() const noexcept { return open_ != nullptr; }

private:
  struct OpenField;

  /// Dispatch the staged chunk row (tuning + seeding the field first when it
  /// is chunk 0, on the build pool) and stage the next row.
  void submit_stage();
  /// Run \p step; a failure it throws poisons the build before propagating.
  template <typename Fn>
  void poisoning(Fn&& step);
  void rethrow_if_failed() const;

  const ArchiveWriteConfig config_;
  WriterWarmState& state_;
  ByteSink& sink_;              ///< where the archive lands, chunks first
  Timer timer_;

  std::unique_ptr<ThreadPool> pool_;  ///< before open_: outlives every pipeline
  std::unique_ptr<OpenField> open_;
  std::vector<FieldInfo> manifest_fields_;   ///< closed fields, write order
  std::vector<FieldWriteReport> reports_;
  std::vector<ChunkReport> all_chunks_;
  std::size_t chunk_bytes_emitted_ = 0;      ///< absolute base of the next field
  std::size_t total_raw_bytes_ = 0;
  std::size_t tuner_probe_calls_ = 0;
  std::size_t probe_cache_hits_ = 0;
  std::size_t peak_buffered_chunks_ = 0;
  std::size_t peak_buffered_bytes_ = 0;
  std::size_t peak_staged_bytes_ = 0;
  bool finished_ = false;
  std::exception_ptr failed_;   ///< sticky: first failure poisons the build
};

}  // namespace fraz::archive::detail

#endif  // FRAZ_ARCHIVE_PIPELINE_HPP
