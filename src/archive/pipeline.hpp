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
/// into the build's one chunk pipeline, which admits rows under a bounded
/// window (submitted-but-unemitted ≤ workers + 1) and emits payloads to the
/// sink strictly in chunk order — which is what lets a file be written
/// append-only while keeping the bytes identical to a Buffer build at any
/// worker count, and what bounds writer input memory to O(chunk-row ×
/// workers) however the data arrives.

#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "archive/archive.hpp"
#include "archive/format.hpp"
#include "engine/engine.hpp"
#include "ndarray/ndarray.hpp"
#include "util/buffer.hpp"
#include "util/thread_annotations.hpp"
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

/// Transport-independent build of one complete v3 archive through a
/// ByteSink.  Fields are ingested one at a time: open_field() declares the
/// geometry (and invalidates stale per-chunk warm keys), push() stages
/// planes into the current chunk row and dispatches completed rows to the
/// build's chunk pipeline, close_field() waits until the field's chunks are
/// emitted, finish() seals the field-table manifest + footer.
///
/// A build owns exactly one chunk pipeline: one queue of rows tagged with
/// their (field, chunk) warm key, in chunk-region order; runner tasks that
/// compress them, started by a submit while fewer than `workers` are live
/// and retired once the queue is empty (which frees the pool for the probe
/// helpers of chunks still searching); and one emission head.  A runner
/// compresses on a lane, an Engine adopting the warm state's BoundStore,
/// parked between runners, so a build makes at most `workers` lanes.
/// Chunk i of a field reads and commits only its own (field, i) key.
/// Chunk 0 is an ordinary row whose compression is the field's only
/// search; its outcome seeds the keys that carried no bound when it was
/// queued (through Engine::seed, flagged when above the band), and its
/// submit waits for it to be emitted before any later chunk of the field is
/// queued.  So the shared stores never make bytes scheduling-dependent.
///
/// Every call throws on failure.  Argument misuse leaves the build as it
/// was; a failed chunk compression or sink append poisons it, and every
/// later call rethrows that first failure until the build is dropped.
///
/// A build runs on one pool of `threads` workers, made at the first field
/// and joined with the build: chunk runners and the probe helpers inside
/// their searches, so idle workers join any search still running.  It must
/// not outlive the build: a long-lived thread keeps its malloc arena, and
/// later readers would open new ones.
///
/// \p state carries the persistent warm knowledge between builds: the
/// shared BoundStore and each field's chunk geometry.  This is the single
/// write path behind ArchiveWriter.
class ArchiveAssembler {
public:
  ArchiveAssembler(const ArchiveWriteConfig& config, WriterWarmState& state,
                   ByteSink& sink);
  /// Abandoned or finished alike: poison the build so runners drop the
  /// backlog instead of compressing and emitting it, then wait them out.
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

  /// A chunk row on its way to the sink: its raw input until a runner takes
  /// it, then its payload until the emission head passes it.
  struct Chunk {
    std::string key;     ///< the (field, chunk) warm key
    /// keys this chunk's outcome seeds (chunk 0's: those without a bound)
    std::vector<std::string> seeds;
    double overhead = 0; ///< the chunk's share of the archive's non-chunk bytes
    NdArray row;
    Buffer bytes;
    ChunkReport report;  ///< the runner's; the emission adds the offset
    bool ready = false;  ///< compressed, waiting for the emission head
  };

  /// A runner's compression state, parked between runners.
  struct Lane {
    Engine engine;
    pressio::CompressorPtr rate_backend;  ///< lazy zfp rescue (not thread-safe)
  };

  /// Dispatch the staged chunk row and stage the next row.  Blocks while
  /// the window is full — this back-pressure is the writer's input-memory
  /// bound — and, after a chunk 0 that seeds keys, until it is emitted.
  void submit_stage();
  /// Run \p step; a failure it throws poisons the build before propagating.
  template <typename Fn>
  void poisoning(Fn&& step);
  void rethrow_if_failed();
  void fail_locked(std::exception_ptr failure) FRAZ_REQUIRES(mutex_);

  /// One runner task: compress queued rows until the queue is empty (or the
  /// build failed), then retire.
  void run() noexcept;
  /// Hand the runner its next row, or retire it: park its lane and drop
  /// the runner count.  The emptiness check and the retirement share one
  /// critical section, so a submit never leaves a row behind a runner that
  /// is about to exit.
  bool next_row(std::optional<Lane>& lane, std::size_t& index, Chunk& chunk);
  /// Reuse a parked lane or build one (throws when the engine cannot be).
  Lane take_lane();
  /// Compress \p chunk's row into its bytes and report, outside the lock.
  void compress_row(Lane& lane, Chunk& chunk) const;
  /// Park chunk \p index's payload and drain every ready chunk at the
  /// emission head, strictly in chunk order regardless of completion order.
  void emit_locked(std::size_t index, Chunk chunk) FRAZ_REQUIRES(mutex_);

  const ArchiveWriteConfig config_;
  WriterWarmState& state_;
  ByteSink& sink_;              ///< where the archive lands, chunks first
  const unsigned workers_;      ///< runner and lane cap; the pool's size
  const std::size_t window_;    ///< submitted-but-unemitted chunk cap
  Timer timer_;

  std::unique_ptr<OpenField> open_;
  std::vector<FieldWriteReport> reports_;  ///< closed fields, write order
  bool finished_ = false;

  Mutex mutex_;
  /// signalled when a chunk is emitted, the build fails, or the last runner
  /// retires
  CondVar progress_cv_;
  /// every chunk of the build, in chunk-region order; those from write_head_
  /// on are submitted but not yet emitted
  std::vector<Chunk> chunks_ FRAZ_GUARDED_BY(mutex_);
  std::vector<Lane> idle_lanes_ FRAZ_GUARDED_BY(mutex_);
  /// the queue is chunks_[next_row_, chunks_.size())
  std::size_t next_row_ FRAZ_GUARDED_BY(mutex_) = 0;
  std::size_t write_head_ FRAZ_GUARDED_BY(mutex_) = 0;
  /// runner tasks queued on or running in the pool
  unsigned runners_ FRAZ_GUARDED_BY(mutex_) = 0;
  /// completed-but-unemitted payload bytes
  std::size_t live_bytes_ FRAZ_GUARDED_BY(mutex_) = 0;
  /// queued + in-compression raw row bytes
  std::size_t staged_bytes_ FRAZ_GUARDED_BY(mutex_) = 0;
  std::size_t emitted_bytes_ FRAZ_GUARDED_BY(mutex_) = 0;
  std::size_t peak_buffered_chunks_ FRAZ_GUARDED_BY(mutex_) = 0;
  std::size_t peak_buffered_bytes_ FRAZ_GUARDED_BY(mutex_) = 0;
  std::size_t peak_staged_bytes_ FRAZ_GUARDED_BY(mutex_) = 0;
  /// sticky: the first failure poisons the build
  std::exception_ptr failed_ FRAZ_GUARDED_BY(mutex_);

  /// Last, so it is joined first: no runner outlives the state above.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace fraz::archive::detail

#endif  // FRAZ_ARCHIVE_PIPELINE_HPP
