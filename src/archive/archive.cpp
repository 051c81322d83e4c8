#include "archive/archive.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <future>
#include <utility>

#include "archive/archive_file.hpp"
#include "archive/pipeline.hpp"
#include "codec/checksum.hpp"
#include "compressors/container.hpp"
#include "opt/thread_pool.hpp"
#include "pressio/registry.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/thread_annotations.hpp"

namespace fraz::archive {

namespace {

/// Zero-copy source over bytes already in memory (not owned).
class MemorySource final : public detail::ChunkSource {
public:
  MemorySource(const std::uint8_t* data, std::size_t size) noexcept
      : data_(data), size_(size) {}

  std::size_t size() const noexcept override { return size_; }
  bool mapped() const noexcept override { return false; }

  const std::uint8_t* fetch(std::size_t offset, std::size_t size,
                            Buffer& /*scratch*/) const override {
    if (offset > size_ || size > size_ - offset)
      throw CorruptStream("archive: read beyond the end of the archive");
    return data_ + offset;
  }

private:
  const std::uint8_t* data_;
  std::size_t size_;
};

/// Shape of chunk \p i of \p field ({extent_i, rest...}; last chunk short).
Shape shape_of_chunk(const FieldInfo& field, std::size_t i) {
  require(i < field.chunk_count, "archive: chunk index out of range");
  Shape shape = field.shape;
  shape[0] = std::min(field.chunk_extent, field.shape[0] - i * field.chunk_extent);
  return shape;
}

/// The one chunk decode every read runs: a field's backend, its per-backend
/// latency histogram "decode_us.<compressor>" (labelled like the tuner's
/// probe spans, tune.probe_us.<backend>, and looked up once here rather than
/// once per chunk) and the fetch scratch of buffered transports.  Not
/// thread-safe; ArchiveReader leases each to one read at a time.
class ChunkDecoder {
public:
  /// Throws when \p compressor is not registered.
  explicit ChunkDecoder(const std::string& compressor)
      : compressor_(pressio::registry().create(compressor)),
        span_(&telemetry::global().histogram("decode_us." + compressor)) {}

  /// Validate chunk \p i's CRC and frame header, then decode it
  /// (throwing).  \p chunk_region is the archive's chunk-region base offset.
  NdArray decode(const detail::ChunkSource& source, const FieldInfo& field,
                 std::size_t chunk_region, std::size_t i) {
    const ChunkEntry& entry = field.chunks[i];
    const std::uint8_t* chunk =
        source.fetch(chunk_region + entry.offset, entry.size, scratch_);
    if (crc32(chunk, entry.size) != entry.crc)
      throw CorruptStream("archive: chunk " + std::to_string(i) + " failed its checksum");
    // The backend sizes its output from the frame's header, so the header
    // must declare what the manifest does before the backend sees it: then
    // a decode allocates only what the manifest holds.  A header-only parse;
    // the decoder's own open_container runs the frame's CRC.
    const FrameHeader header = read_frame_header(chunk, entry.size);
    if (header.dtype != field.dtype || header.shape != shape_of_chunk(field, i))
      throw CorruptStream("archive: chunk " + std::to_string(i) +
                          " frame declares a dtype or shape the manifest does not");
    NdArray decoded;
    const Status s = [&] {
      telemetry::SpanTimer span(*span_);
      return compressor_->decompress_into(chunk, entry.size, decoded);
    }();
    if (!s.ok())
      throw CorruptStream("archive: chunk " + std::to_string(i) + ": " + s.to_string());
    // Built-in backends decode to their frame's header; a plugin that does
    // not must not reach copy_chunk_planes, which trusts the shape.
    if (decoded.dtype() != field.dtype || decoded.shape() != header.shape)
      throw CorruptStream("archive: chunk " + std::to_string(i) +
                          " decoded to an unexpected shape");
    return decoded;
  }

private:
  pressio::CompressorPtr compressor_;
  telemetry::Histogram* span_;
  Buffer scratch_;
};

}  // namespace

void copy_chunk_planes(const FieldInfo& field, std::size_t c, const NdArray& chunk,
                       std::size_t first, std::size_t count, NdArray& out) noexcept {
  const std::size_t plane_bytes =
      (shape_elements(field.shape) / field.shape[0]) * dtype_size(field.dtype);
  const std::size_t chunk_first = c * field.chunk_extent;
  const std::size_t lo = std::max(first, chunk_first);
  const std::size_t hi = std::min(first + count, chunk_first + chunk.shape()[0]);
  std::memcpy(static_cast<std::uint8_t*>(out.data()) + (lo - first) * plane_bytes,
              static_cast<const std::uint8_t*>(chunk.data()) + (lo - chunk_first) * plane_bytes,
              (hi - lo) * plane_bytes);
}

// ------------------------------------------------------------ field session

std::shared_ptr<detail::ArchiveAssembler> FieldSession::live_assembler() const {
  std::shared_ptr<detail::ArchiveAssembler> assembler = assembler_.lock();
  if (!assembler) throw InvalidArgument("archive: field session is closed");
  return assembler;
}

Status FieldSession::push(const ArrayView& slab) noexcept {
  return guarded([&] { live_assembler()->push(slab); });
}

Result<FieldWriteReport> FieldSession::close() noexcept {
  return guarded([&] {
    FieldWriteReport report = live_assembler()->close_field();
    assembler_.reset();
    return report;
  });
}

// ------------------------------------------------------------------- writer

/// One build: its sink, the shared assembler (shared so FieldSession handles
/// can track it weakly) and, for a path build, the open file.  Destroying a
/// build whose file is still open is abandonment — every teardown path
/// (cancel, writer destruction, move-assignment over an active build) joins
/// the pipeline, closes the handle and removes the partial file, so no path
/// can leak the descriptor or strand a corrupt archive.
struct ArchiveWriter::Build {
  Build() = default;
  Build(const Build&) = delete;
  Build& operator=(const Build&) = delete;

  std::string path;            ///< path builds only
  std::FILE* file = nullptr;   ///< path builds only; null once closed
  std::unique_ptr<detail::ByteSink> sink;
  std::shared_ptr<detail::ArchiveAssembler> assembler;

  ~Build() {
    // Join the pipeline workers before the handle they emit through closes.
    assembler.reset();
    if (file) {
      std::fclose(file);
      std::remove(path.c_str());
    }
  }

  /// Flush and close a path build's file; on failure remove it (its footer
  /// chain would fail open() anyway, and a campaign retries by path) and
  /// throw IoError.
  void close_file() {
    assembler.reset();
    if (!file) return;
    std::FILE* handle = std::exchange(file, nullptr);
    // Capture each failing call's errno immediately: a succeeding fclose
    // after a failed fflush would otherwise clobber the detail worth
    // reporting.
    const bool flushed = std::fflush(handle) == 0;
    const int flush_errno = flushed ? 0 : errno;
    const bool closed = std::fclose(handle) == 0;
    const int close_errno = closed ? 0 : errno;
    if (flushed && closed) return;
    std::remove(path.c_str());
    throw IoError("archive: cannot finish '" + path + "': " +
                  errno_detail(flushed ? close_errno : flush_errno));
  }
};

ArchiveWriter::ArchiveWriter(ArchiveWriteConfig config) : config_(std::move(config)) {
  // Fail construction, not the first write, on names no manifest can
  // record: the manifest stores the backend's registry name in 1..256 bytes.
  require(!config_.engine.compressor.empty() && config_.engine.compressor.size() <= 256,
          "archive: compressor name must be 1..256 bytes to be recorded");
  // One set of threads: tuning fans out over the same workers that compress.
  config_.engine.tuner.threads = config_.threads;
  // Builds make their engines lazily; check the backend, its options and
  // the tuner config here, where a bad one is the caller's argument.
  static_cast<void>(Engine(config_.engine));
  state_ = std::make_unique<WriterWarmState>();
}

ArchiveWriter::ArchiveWriter(ArchiveWriter&&) noexcept = default;

ArchiveWriter& ArchiveWriter::operator=(ArchiveWriter&& other) noexcept {
  if (this != &other) {
    cancel();  // the active build still references this writer's warm state
    config_ = std::move(other.config_);
    state_ = std::move(other.state_);
    build_ = std::move(other.build_);
  }
  return *this;
}

ArchiveWriter::~ArchiveWriter() { cancel(); }

Result<ArchiveWriter> ArchiveWriter::create(ArchiveWriteConfig config) noexcept {
  return guarded([&] { return ArchiveWriter(std::move(config)); });
}

std::unique_ptr<ArchiveWriter::Build> ArchiveWriter::new_build() const {
  if (build_)
    throw InvalidArgument(
        "archive: a build is already in progress; finish() or cancel() first");
  return std::make_unique<Build>();
}

void ArchiveWriter::start(std::unique_ptr<Build> build) {
  build->assembler =
      std::make_shared<detail::ArchiveAssembler>(config_, *state_, *build->sink);
  build_ = std::move(build);
}

detail::ArchiveAssembler& ArchiveWriter::active_assembler() {
  if (!build_) throw InvalidArgument("archive: no build in progress; call begin() first");
  return *build_->assembler;
}

Status ArchiveWriter::begin(Buffer& out) noexcept {
  return guarded([&] {
    std::unique_ptr<Build> build = new_build();
    build->sink = std::make_unique<detail::BufferSink>(out);
    out.clear();
    start(std::move(build));
  });
}

Status ArchiveWriter::begin(const std::string& path) noexcept {
  return guarded([&] {
    std::unique_ptr<Build> build = new_build();
    build->path = path;
    build->file = std::fopen(path.c_str(), "wb");
    if (!build->file) {
      const int open_errno = errno;
      throw IoError("archive: cannot open '" + path + "': " + errno_detail(open_errno));
    }
    build->sink = std::make_unique<detail::FileSink>(build->file);
    start(std::move(build));
  });
}

Result<FieldSession> ArchiveWriter::open_field(const std::string& name,
                                               const FieldDesc& desc) noexcept {
  return guarded([&] {
    active_assembler().open_field(name, desc);
    return FieldSession(std::weak_ptr<detail::ArchiveAssembler>(build_->assembler));
  });
}

Result<ArchiveWriteResult> ArchiveWriter::finish() noexcept {
  return guarded([&] {
    // An assembler failure (field still open, sticky pipeline error) throws
    // here and keeps the build, so the caller can close the field and retry,
    // or cancel().
    ArchiveWriteResult result = active_assembler().finish();
    const std::unique_ptr<Build> build = std::move(build_);
    build->close_file();
    return result;
  });
}

void ArchiveWriter::cancel() noexcept { build_.reset(); }

Result<ArchiveWriteResult> ArchiveWriter::write(const ArrayView& data,
                                                Buffer& out) noexcept {
  const Status s = begin(out);
  if (!s.ok()) return s;
  return write_single(data);
}

Result<ArchiveWriteResult> ArchiveWriter::write(const std::string& path,
                                                const ArrayView& data) noexcept {
  const Status s = begin(path);
  if (!s.ok()) return s;
  return write_single(data);
}

Result<ArchiveWriteResult> ArchiveWriter::write_single(const ArrayView& data) noexcept {
  // The whole array as one slab of one session: this stages one extra
  // memcpy pass over the input (chunk rows are owned by the pipeline so
  // pushed data never needs to outlive push()) — measured noise next to
  // chunk compression (bench_archive_stream), and the price of having
  // exactly one write path.
  Result<ArchiveWriteResult> result = [&]() -> Result<ArchiveWriteResult> {
    FieldDesc desc;
    desc.dtype = data.dtype();
    desc.shape = data.shape();
    auto session = open_field(kDefaultFieldName, desc);
    if (!session.ok()) return session.status();
    const Status pushed = session.value().push(data);
    if (!pushed.ok()) return pushed;
    const auto closed = session.value().close();
    if (!closed.ok()) return closed.status();
    return finish();
  }();
  if (!result.ok()) cancel();
  return result;
}

// ------------------------------------------------------------------- reader

/// Per-field free lists of chunk decoders.  A read leases one for each chunk
/// it decodes — the idle one when there is one, else a new one — and the
/// lease returns it when the decode ends, also when it threw.
struct ArchiveReader::Decoders {
  /// Builds and parks each field's first decoder, so an archive whose
  /// backend is not registered fails open(), not the first read.
  explicit Decoders(const std::vector<FieldInfo>& fields) : idle(fields.size()) {
    for (std::size_t f = 0; f < fields.size(); ++f)
      idle[f].push_back(std::make_unique<ChunkDecoder>(fields[f].compressor));
  }

  class Lease {
  public:
    Lease(Decoders& owner, std::size_t field, const std::string& compressor)
        : owner_(owner), field_(field) {
      {
        LockGuard lock(owner_.mutex);
        std::vector<std::unique_ptr<ChunkDecoder>>& idle = owner_.idle[field_];
        if (!idle.empty()) {
          decoder_ = std::move(idle.back());
          idle.pop_back();
          return;
        }
      }
      decoder_ = std::make_unique<ChunkDecoder>(compressor);
    }
    ~Lease() {
      LockGuard lock(owner_.mutex);
      owner_.idle[field_].push_back(std::move(decoder_));
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ChunkDecoder* operator->() const noexcept { return decoder_.get(); }

  private:
    Decoders& owner_;
    std::size_t field_;
    std::unique_ptr<ChunkDecoder> decoder_;
  };

  Mutex mutex;
  std::vector<std::vector<std::unique_ptr<ChunkDecoder>>> idle FRAZ_GUARDED_BY(mutex);
};

ArchiveReader::ArchiveReader(std::unique_ptr<detail::ChunkSource> source,
                             ArchiveInfo info, std::unique_ptr<Decoders> decoders) noexcept
    : source_(std::move(source)), info_(std::move(info)), decoders_(std::move(decoders)) {}

ArchiveReader::ArchiveReader(ArchiveReader&&) noexcept = default;
ArchiveReader& ArchiveReader::operator=(ArchiveReader&&) noexcept = default;
ArchiveReader::~ArchiveReader() = default;

Result<ArchiveReader> ArchiveReader::open(const std::uint8_t* data,
                                          std::size_t size) noexcept {
  return guarded([&] { return open_source(std::make_unique<MemorySource>(data, size)); });
}

Result<ArchiveReader> ArchiveReader::open(const std::string& path,
                                          FileReadMode mode) noexcept {
  return guarded([&] { return open_source(detail::open_file_source(path, mode)); });
}

ArchiveReader ArchiveReader::open_source(std::unique_ptr<detail::ChunkSource> source) {
  // Validate only the trust anchors up front: footer, then manifest.
  const std::size_t size = source->size();
  const std::size_t tail_size = std::min(size, kFooterBytes);
  Buffer scratch;
  const std::uint8_t* tail = source->fetch(size - tail_size, tail_size, scratch);
  const Footer footer = parse_footer(tail, tail_size, size);
  Buffer manifest_scratch;
  const std::uint8_t* manifest =
      source->fetch(footer.manifest_offset, footer.manifest_size, manifest_scratch);
  ArchiveInfo info = parse_manifest(manifest, footer.manifest_size, footer);
  auto decoders = std::make_unique<Decoders>(info.fields);
  return ArchiveReader(std::move(source), std::move(info), std::move(decoders));
}

bool ArchiveReader::mapped() const noexcept { return source_->mapped(); }

std::size_t ArchiveReader::field_index(const std::string& name) const {
  const FieldInfo* field = find_field(info_, name);
  // Not require(): its message would be built on every read, found or not.
  if (!field) throw InvalidArgument("archive: no field named '" + name + "'");
  return static_cast<std::size_t>(field - info_.fields.data());
}

Shape ArchiveReader::chunk_shape(const std::string& field, std::size_t i) const {
  return shape_of_chunk(info_.fields[field_index(field)], i);
}

NdArray ArchiveReader::decode(std::size_t f, std::size_t i) const {
  const FieldInfo& field = info_.fields[f];
  const Decoders::Lease decoder(*decoders_, f, field.compressor);
  return decoder->decode(*source_, field, info_.chunk_region, i);
}

void ArchiveReader::read_planes(std::size_t f, std::size_t first, std::size_t count,
                                unsigned threads, NdArray& out) const {
  const FieldInfo& field = info_.fields[f];
  const std::size_t first_chunk = first / field.chunk_extent;
  const std::size_t last_chunk = (first + count - 1) / field.chunk_extent;
  auto emplace = [&](std::size_t c) {
    copy_chunk_planes(field, c, decode(f, c), first, count, out);
  };

  const unsigned workers = detail::resolve_workers(threads, last_chunk - first_chunk + 1);
  if (workers <= 1) {
    for (std::size_t c = first_chunk; c <= last_chunk; ++c) emplace(c);
    return;
  }
  // One task per touched chunk, each writing its disjoint plane window of
  // `out`.  Taking the results in chunk order rethrows the lowest failing
  // chunk's failure, as the serial loop would; the pool's destructor lets
  // the tasks still queued behind it finish before `out` can go away.
  ThreadPool pool(workers);
  std::vector<std::future<void>> done;
  done.reserve(last_chunk - first_chunk + 1);
  for (std::size_t c = first_chunk; c <= last_chunk; ++c)
    done.push_back(pool.submit([&emplace, c] { emplace(c); }));
  for (std::future<void>& chunk : done) chunk.get();
}

Result<NdArray> ArchiveReader::read_chunk(const std::string& field,
                                          std::size_t i) noexcept {
  return guarded([&] {
    const std::size_t f = field_index(field);
    if (i >= info_.fields[f].chunk_count)
      throw InvalidArgument("archive: chunk index out of range");
    return decode(f, i);
  });
}

Result<NdArray> ArchiveReader::read_range(const std::string& field, std::size_t first,
                                          std::size_t count, unsigned threads) noexcept {
  return guarded([&] {
    const std::size_t f = field_index(field);
    const FieldInfo& info = info_.fields[f];
    const std::size_t n0 = info.shape[0];
    if (count == 0 || first >= n0 || count > n0 - first)
      throw InvalidArgument("archive: plane range out of bounds");
    Shape out_shape = info.shape;
    out_shape[0] = count;
    // read_planes writes every plane of the range (or throws, dropping out).
    NdArray out = NdArray::unfilled(info.dtype, std::move(out_shape));
    read_planes(f, first, count, threads, out);
    return out;
  });
}

Result<NdArray> ArchiveReader::read_all(const std::string& field,
                                        unsigned threads) noexcept {
  const FieldInfo* info = find_field(info_, field);
  if (!info) return Status::invalid_argument("archive: no field named '" + field + "'");
  return read_range(field, 0, info->shape[0], threads);
}

}  // namespace fraz::archive
