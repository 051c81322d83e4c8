#ifndef FRAZ_ARCHIVE_ARCHIVE_HPP
#define FRAZ_ARCHIVE_ARCHIVE_HPP

/// \file archive.hpp
/// Chunked, seekable super-frame archive over the fixed-ratio pipeline: one
/// writer and one reader, each over a Buffer or a file path.
///
/// FRaZ's ratio guarantee is framed per whole field, but production stores
/// (cf. C-Blosc2's super-chunk/frame design) shard data into independently
/// compressed, checksummed chunks so large campaigns get parallel compression
/// and random access without full decompression.  An archive shards each
/// field along its slowest dimension, compresses every chunk through a
/// `fraz::Engine` on the build's own worker pool, and enforces the fixed
/// ratio at the *archive* level: per-chunk ratios may drift inside (or even
/// out of) the band, the aggregate raw/archive ratio is what must land in
/// ρt(1±ε) and is recorded in the footer.
///
/// **Ingestion is push-based.**  Data enters through a FieldSession:
/// `begin()` starts a build, `open_field(name, desc)` declares one field's
/// geometry, and the caller push()es planes or slabs as they arrive —
/// simulation time steps, instrument planes — in any slab granularity.  The
/// session assembles chunk rows and hands each completed row to the parallel
/// chunk pipeline immediately, so writer *input* memory is O(chunk-row ×
/// workers), never O(field).  `write(ArrayView)` is begin → one
/// kDefaultFieldName session fed the whole array → finish.
///
/// **One writer, one reader, two transports.**  ArchiveWriter builds into a
/// caller's Buffer or streams to a file path, appending each chunk the
/// moment it is next in index order — output memory is O(largest chunk ×
/// workers) either way, and Buffer and path builds of the same data are
/// byte-identical.  ArchiveReader opens bytes in memory or a file (mmap
/// where available, else positioned reads) and validates only the footer
/// and manifest; chunk payloads are fetched and checked by exactly the reads
/// that touch them, so peak reader memory is O(touched output + largest
/// chunk × workers).
///
/// **Formats.**  Writers emit v3 (any number of named fields).  v1 and v2
/// single-field archives stay readable and present their array as one field
/// named kDefaultFieldName.  The wire layouts are documented in
/// `archive/format.hpp`.
///
/// Seekability: the manifest and footer carry their own CRCs, chunk CRCs live
/// in the manifest, and chunk payloads are validated only when touched — a
/// flipped bit in chunk i fails exactly the reads that cover chunk i.
///
/// Determinism: chunk boundaries depend only on (shape, dtype, chunk_extent),
/// every chunk warm-starts from its own key (seeded by chunk 0 first), and
/// tuning inside the writer fans its probes out over the build's workers in
/// lockstep rounds whose bounds do not depend on the worker count — so
/// packing with 1 worker and N workers yields byte-identical archives,
/// whether the data arrived as one array or plane by plane.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "archive/format.hpp"
#include "engine/engine.hpp"
#include "ndarray/ndarray.hpp"
#include "util/buffer.hpp"
#include "util/status.hpp"

namespace fraz::archive {

namespace detail {
class ArchiveAssembler;
class ChunkSource;
}  // namespace detail

/// Construction-time configuration of an archive writer.
struct ArchiveWriteConfig {
  /// Backend + tuning knobs; engine.tuner.target_ratio/epsilon define the
  /// archive-level acceptance band.  engine.tuner.threads is replaced by
  /// `threads`: the writer tunes on the same workers that compress, and the
  /// lockstep search keeps the tuned bounds (and therefore the archive
  /// bytes) independent of that count.
  EngineConfig engine;
  /// Slowest-axis planes per chunk; 0 picks a policy from the shape alone
  /// (~16 chunks, at least 4 KiB of raw data each).  Per-field overrides go
  /// through FieldDesc::chunk_extent.
  std::size_t chunk_extent = 0;
  /// Workers of one build, capping both chunk compression and tuning
  /// (every chunk's search rounds fan out over the idle ones); 0 selects
  /// hardware concurrency.  Never affects the output bytes.
  unsigned threads = 0;
  /// When the backend is "zfp" and a chunk's accuracy-mode ratio misses the
  /// acceptance band (ZFP's bit-plane treads are too coarse on small chunks
  /// — the expressibility limit the paper reports in §VI-B.3), recompress
  /// that chunk in fixed-rate mode at a rate targeting its share of the
  /// aggregate band.  Rate-mode chunks trade the pointwise error bound for
  /// the ratio guarantee; disable to keep every chunk error-bounded.
  bool zfp_rate_fallback = true;
};

/// Geometry of one field to be ingested through a FieldSession.
struct FieldDesc {
  DType dtype{};
  /// Full logical shape, slowest axis first.  push() delivers slabs of
  /// complete slowest-axis planes until shape[0] planes have arrived.
  Shape shape;
  /// Slowest-axis planes per chunk; 0 defers to the writer config (and its
  /// auto policy).
  std::size_t chunk_extent = 0;
};

/// Writer-side detail of one chunk (ChunkEntry plus how it was produced).
struct ChunkReport {
  ChunkEntry entry;
  /// Accuracy-mode bound the chunk was tuned at — equal to entry.error_bound
  /// except for rate-fallback chunks, whose manifest entry records 0 (no
  /// pointwise guarantee) while this bound still seeds the next write.
  double tuned_bound = 0;
  double ratio = 0;           ///< raw/compressed of this chunk alone
  double seconds = 0;         ///< wall time of this chunk's compression task
  bool warm = false;          ///< served by its carried or seeded bound
  bool retrained = false;     ///< chunk paid a full search (a cold chunk 0 does)
  bool in_band = false;       ///< chunk ratio inside the band (informational)
  bool rate_fallback = false; ///< rescued by the ZFP fixed-rate fallback
  /// Compressor probes this chunk's search executed (0 for a warm chunk).
  std::size_t tuner_probe_calls = 0;
  /// Probes this chunk's search answered from its memo for free.
  std::size_t probe_cache_hits = 0;
};

/// Writer-side outcome of one field's ingestion session.
struct FieldWriteReport {
  std::string name;
  DType dtype{};
  Shape shape;
  std::size_t chunk_extent = 0;
  std::size_t chunk_count = 0;
  std::size_t raw_bytes = 0;
  std::size_t payload_bytes = 0;  ///< compressed chunk bytes of this field
  double payload_ratio = 0;       ///< raw / payload — the manifest's per-field ratio
  bool in_band = false;           ///< payload_ratio within the band (informational)
  std::size_t warm_chunks = 0;
  std::size_t retrained_chunks = 0;
  std::size_t rate_fallback_chunks = 0;
  std::size_t tuner_probe_calls = 0;  ///< Σ of the chunks' tuner_probe_calls
  std::size_t probe_cache_hits = 0;   ///< Σ of the chunks' probe_cache_hits
  std::vector<ChunkReport> chunks;  ///< offsets absolute within the chunk region
};

/// Outcome of one archive write.  The flat members mirror
/// the archive totals (and fields[0]'s geometry), `fields` the per-field
/// breakdown.
struct ArchiveWriteResult {
  std::uint8_t format_version = kFormatVersionMultiField;
  std::size_t chunk_count = 0;      ///< fields[0]'s chunk count
  std::size_t chunk_extent = 0;     ///< fields[0]'s chunk extent
  std::size_t raw_bytes = 0;        ///< total across every field
  std::size_t archive_bytes = 0;
  double achieved_ratio = 0;  ///< raw / archive — the footer's aggregate ratio
  bool in_band = false;       ///< aggregate ratio within ρt(1±ε)
  std::size_t warm_chunks = 0;
  std::size_t retrained_chunks = 0;
  std::size_t rate_fallback_chunks = 0;
  /// Compressor probes actually spent tuning this write (every chunk's
  /// search; a warm chunk spends none), memo-served probes excluded.
  std::size_t tuner_probe_calls = 0;
  /// Tuning probes the chunks' searches served from their memos for free:
  /// bounds a search proposed again.
  std::size_t probe_cache_hits = 0;
  /// Peak number of chunk payloads the writer held in memory at once
  /// (claimed-but-unemitted); bounded by workers + 1, which is what makes
  /// the writer's output memory O(largest chunk × workers).
  std::size_t peak_buffered_chunks = 0;
  /// Peak bytes of completed-but-unemitted chunk payloads.
  std::size_t peak_buffered_bytes = 0;
  /// Peak bytes of raw *input* the writer owned at once: queued and
  /// in-compression chunk rows plus the session's staging row.  Bounded by
  /// (workers + 2) chunk rows — the push path never materializes a field.
  std::size_t peak_staged_bytes = 0;
  double seconds = 0;
  std::vector<ChunkReport> chunks;       ///< every chunk, all fields, in write order
  std::vector<FieldWriteReport> fields;  ///< per-field breakdown, in write order
};

/// The key under which a writer's bound_store() carries chunk \p i of
/// \p field.
std::string chunk_field_key(const std::string& field, std::size_t i);

/// Warm-start state a writer carries across write() calls and field
/// sessions, whichever transport each build uses: the thread-safe
/// BoundStore every per-worker chunk engine adopts, holding the freshest
/// carried bound under a deterministic per-(field, chunk) key (the time
/// dimension of Algorithm 3; one key per chunk so worker scheduling can
/// never change which bound a chunk sees, one namespace per field so fields
/// warm-start independently).  Probes are not carried: each chunk's search
/// remembers its own.
struct WriterWarmState {
  BoundStorePtr bounds = std::make_shared<BoundStore>();

  /// Chunk-grid geometry a field's per-chunk warm keys were minted for; an
  /// ingest of the same field with a different geometry invalidates them
  /// (the chunk index would map onto different planes).
  struct FieldGeometry {
    Shape shape;
    std::size_t extent = 0;
    std::size_t chunk_count = 0;
  };
  std::map<std::string, FieldGeometry> fields;
};

/// Handle to one field's in-progress ingestion: push planes/slabs as they
/// arrive, then close().  Obtained from a writer's open_field(); the handle
/// tracks its build weakly, so a session that outlives the build (after
/// cancel() or writer destruction) degrades to "session is closed" errors
/// instead of dangling.  Move-only; always close() before dropping — an
/// unclosed field keeps its build from finishing.
class FieldSession {
public:
  FieldSession() noexcept = default;  ///< disengaged
  FieldSession(FieldSession&& other) noexcept = default;
  FieldSession& operator=(FieldSession&& other) noexcept = default;
  FieldSession(const FieldSession&) = delete;
  FieldSession& operator=(const FieldSession&) = delete;
  ~FieldSession() = default;

  bool open() const noexcept { return !assembler_.expired(); }

  /// Ingest \p slab: one or more complete slowest-axis planes, shaped
  /// {k, rest...} with the field's trailing extents and dtype.  Completed
  /// chunk rows dispatch to the parallel pipeline immediately; push blocks
  /// only when the pipeline's bounded window is full (which is what bounds
  /// the writer's input memory).  The slab is copied — the caller may reuse
  /// its buffer the moment push returns.
  Status push(const ArrayView& slab) noexcept;

  /// Finish the field: waits for its chunks to be compressed and emitted.
  /// Fails (and stays open) if fewer than shape[0] planes were pushed.
  Result<FieldWriteReport> close() noexcept;

private:
  friend class ArchiveWriter;
  explicit FieldSession(std::weak_ptr<detail::ArchiveAssembler> assembler) noexcept
      : assembler_(std::move(assembler)) {}
  /// The build's assembler; throws InvalidArgument once the session closed.
  std::shared_ptr<detail::ArchiveAssembler> live_assembler() const;

  std::weak_ptr<detail::ArchiveAssembler> assembler_;
};

/// Shards fields along their slowest dimension and compresses the chunks in
/// parallel, one Engine per worker, into a Buffer or a file.  Warm-starting
/// is Algorithm 3's reuse applied twice, both through Engine::compress on
/// each chunk's own key: across builds for the same field name (a time
/// series packed through one writer), each chunk starts from the bound *it*
/// carried last step; within a field, a chunk with none starts from the
/// bound chunk 0 settled on, which seeds it.  Both depend only on (field,
/// chunk) identity — never on which worker handles a chunk — so a whole
/// campaign pays full ratio training roughly once per field and the archives
/// stay byte-identical at any worker count and on either transport.
class ArchiveWriter {
public:
  /// Non-throwing factory; unknown backends, invalid backend options and
  /// invalid tuner configs come back as a Status.
  static Result<ArchiveWriter> create(ArchiveWriteConfig config) noexcept;

  /// Throwing convenience constructor (setup code, tests).
  explicit ArchiveWriter(ArchiveWriteConfig config);

  ArchiveWriter(ArchiveWriter&&) noexcept;
  ArchiveWriter& operator=(ArchiveWriter&& other) noexcept;
  /// Abandons an active build (a path build's partial file is removed).
  ~ArchiveWriter();

  const ArchiveWriteConfig& config() const noexcept { return config_; }

  /// Compress \p data into a complete single-field archive: begin(), one
  /// kDefaultFieldName session fed the whole array, finish().  Into the
  /// caller's reusable \p out (unspecified on failure), or into a file at
  /// \p path (created or truncated; removed on failure).  Fails while a
  /// begin() build is active.
  Result<ArchiveWriteResult> write(const ArrayView& data, Buffer& out) noexcept;
  Result<ArchiveWriteResult> write(const std::string& path, const ArrayView& data) noexcept;

  /// Start a streaming build into \p out (cleared; it must outlive the
  /// build) or into a file at \p path (created or truncated).  Fails if a
  /// build is already in progress.
  Status begin(Buffer& out) noexcept;
  Status begin(const std::string& path) noexcept;

  /// Declare the next field of the current build and get its ingestion
  /// session.  One field is open at a time; names must be unique within the
  /// build (and are the warm-start namespace across builds).
  Result<FieldSession> open_field(const std::string& name, const FieldDesc& desc) noexcept;

  /// Seal the build: write the field-table manifest and footer (and flush
  /// and close a path build's file).  Every opened field must have been
  /// closed.  On an assembler failure (e.g. a field still open) the build
  /// stays active — close the field and retry, or cancel(); on a filesystem
  /// failure the partial file is removed.
  Result<ArchiveWriteResult> finish() noexcept;

  /// Abandon an in-progress build: a Buffer is left holding a partial,
  /// unreadable archive; a path build's file is closed and removed.  No-op
  /// when no build is active.  A failed tune, chunk compression or write
  /// poisons the build: the call that reports it and every later push,
  /// close and finish return that same Status until cancel().
  void cancel() noexcept;

  /// The writer's persistent per-(field, chunk) warm-bound store — the state
  /// worth saving between tuning-campaign runs (see BoundStore::save/load).
  const BoundStorePtr& bound_store() const noexcept { return state_->bounds; }

private:
  struct Build;

  /// A fresh Build; throws while one is active.
  std::unique_ptr<Build> new_build() const;
  /// Make \p build (its sink set) the active build.
  void start(std::unique_ptr<Build> build);
  /// The active build's assembler; throws when there is none.
  detail::ArchiveAssembler& active_assembler();
  Result<ArchiveWriteResult> write_single(const ArrayView& data) noexcept;

  ArchiveWriteConfig config_;
  /// Heap-allocated so sessions and assemblers can hold stable references
  /// across writer moves.
  std::unique_ptr<WriterWarmState> state_;
  std::unique_ptr<Build> build_;  ///< active build only
};

/// How ArchiveReader::open(path) accesses the file's bytes.
enum class FileReadMode {
  kAuto,      ///< mmap where the platform supports it, else buffered reads
  kBuffered,  ///< positioned reads (pread on POSIX), also exercised by tests
};

/// Copy the planes of \p chunk (decoded chunk \p c of \p field) that fall in
/// the slowest-axis range [first, first + count) into \p out, the
/// {count, rest...} array of that range.  The one plane copy under
/// ArchiveReader::read_range and serve::ReaderHandle::read_range.
void copy_chunk_planes(const FieldInfo& field, std::size_t c, const NdArray& chunk,
                       std::size_t first, std::size_t count, NdArray& out) noexcept;

/// Random-access reader over an archive in memory or in a file.  open()
/// validates manifest and footer only — chunk payloads are fetched and
/// checked (CRC + backend validation) by exactly the reads that touch them,
/// so corruption in one chunk leaves every other chunk readable.  Reads all
/// format versions; every read names its field (v1/v2 archives hold one,
/// named kDefaultFieldName).  Reads are thread-safe: each one leases a chunk
/// decoder (backend, histogram, fetch scratch) from the reader's per-field
/// free list and returns it after, so concurrent reads overlap and a
/// long-lived reader builds no more decoders per field than it has ever run
/// decodes at once.
class ArchiveReader {
public:
  /// Open bytes already in memory.  The reader does not own them; they must
  /// outlive it.
  static Result<ArchiveReader> open(const std::uint8_t* data, std::size_t size) noexcept;
  /// Open the archive file at \p path.
  static Result<ArchiveReader> open(const std::string& path,
                                    FileReadMode mode = FileReadMode::kAuto) noexcept;

  ArchiveReader(ArchiveReader&&) noexcept;
  ArchiveReader& operator=(ArchiveReader&&) noexcept;
  ~ArchiveReader();

  const ArchiveInfo& info() const noexcept { return info_; }

  /// Field table of the archive (one synthesized entry for v1/v2).
  const std::vector<FieldInfo>& fields() const noexcept { return info_.fields; }

  /// True when this reader serves fetches through an mmap'd file view.
  bool mapped() const noexcept;

  /// Shape of chunk \p i of a field ({extent_i, rest...}; the last chunk may
  /// be short).  Throws InvalidArgument on unknown names / bad indices.
  Shape chunk_shape(const std::string& field, std::size_t i) const;

  /// Decompress a whole field.  \p threads > 1 decodes chunks in parallel,
  /// one task per chunk; 0 selects hardware concurrency.
  Result<NdArray> read_all(const std::string& field, unsigned threads = 1) noexcept;

  /// Decompress exactly chunk \p i of a field, validating only its bytes.
  Result<NdArray> read_chunk(const std::string& field, std::size_t i) noexcept;

  /// Decompress the slowest-axis plane range [first, first + count) of a
  /// field, touching (and validating) only the chunks that cover it.  Wide
  /// ranges decode their chunks in parallel when \p threads allows (same
  /// semantics as read_all; output ordering and per-chunk CRC isolation
  /// preserved).
  Result<NdArray> read_range(const std::string& field, std::size_t first,
                             std::size_t count, unsigned threads = 1) noexcept;

private:
  struct Decoders;  ///< per-field free lists of chunk decoders (archive.cpp)

  ArchiveReader(std::unique_ptr<detail::ChunkSource> source, ArchiveInfo info,
                std::unique_ptr<Decoders> decoders) noexcept;

  static ArchiveReader open_source(std::unique_ptr<detail::ChunkSource> source);
  std::size_t field_index(const std::string& name) const;
  /// Validate and decode chunk \p i of field \p f on a leased decoder.
  NdArray decode(std::size_t f, std::size_t i) const;
  /// Decode planes [first, first + count) of field \p f into \p out.
  void read_planes(std::size_t f, std::size_t first, std::size_t count, unsigned threads,
                   NdArray& out) const;

  std::unique_ptr<detail::ChunkSource> source_;  ///< memory, mmap or positioned reads
  ArchiveInfo info_;
  std::unique_ptr<Decoders> decoders_;
};

}  // namespace fraz::archive

#endif  // FRAZ_ARCHIVE_ARCHIVE_HPP
