#include "archive/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <optional>
#include <thread>

#include "codec/checksum.hpp"
#include "core/loss.hpp"
#include "opt/thread_pool.hpp"
#include "pressio/registry.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace fraz::archive {

// Every chunk gets its OWN key, stable across builds so a time series of the
// same field warm-starts chunk by chunk: a chunk's warm bound depends only on
// its field and index, never on which worker got it, which is what makes
// sharing one store across workers deterministic — and what lets each field
// of a multi-field archive warm-start independently.
std::string chunk_field_key(const std::string& field, std::size_t i) {
  return "archive:" + field + ":chunk:" + std::to_string(i);
}

}  // namespace fraz::archive

namespace fraz::archive::detail {

unsigned resolve_workers(unsigned requested, std::size_t tasks) {
  unsigned w = requested == 0 ? std::thread::hardware_concurrency() : requested;
  if (w == 0) w = 1;
  return static_cast<unsigned>(std::min<std::size_t>(w, tasks));
}

namespace {

// Process-wide pack-plane metrics.  ArchiveWriteResult keeps its own plain
// counters (CI gates warm_chunks on them); these registry twins are bumped at
// the same sites so METRICS / --json expositions see every pipeline.
telemetry::Counter& chunks_counter() {
  static telemetry::Counter& c = telemetry::global().counter("pack.chunks");
  return c;
}

telemetry::Counter& warm_chunks_counter() {
  static telemetry::Counter& c = telemetry::global().counter("pack.warm_chunks");
  return c;
}

telemetry::Counter& retrained_chunks_counter() {
  static telemetry::Counter& c = telemetry::global().counter("pack.retrained_chunks");
  return c;
}

telemetry::Counter& rate_fallback_counter() {
  static telemetry::Counter& c =
      telemetry::global().counter("pack.rate_fallback_chunks");
  return c;
}

telemetry::Gauge& staged_bytes_gauge() {
  static telemetry::Gauge& g = telemetry::global().gauge("pack.staged_bytes");
  return g;
}

/// Chunk boundaries must depend on the data geometry only (never on worker
/// count), so 1-thread and N-thread packs produce identical archives.
std::size_t auto_chunk_extent(std::size_t n0, std::size_t plane_bytes) {
  constexpr std::size_t kTargetChunks = 16;
  constexpr std::size_t kMinChunkBytes = 4096;
  std::size_t extent = (n0 + kTargetChunks - 1) / kTargetChunks;
  if (extent * plane_bytes < kMinChunkBytes)
    extent = (kMinChunkBytes + plane_bytes - 1) / plane_bytes;
  return std::min(std::max<std::size_t>(extent, 1), n0);
}

/// Run \p step and return what it threw, or null: the write core's one
/// catch, shared by the chunk runners and the assembler's poisoning steps.
template <typename Fn>
std::exception_ptr failure_of(Fn&& step) noexcept {
  try {
    step();
    return nullptr;
  } catch (...) {
    return std::current_exception();
  }
}

/// Deterministic estimate of the non-chunk archive bytes one chunk is
/// responsible for (its manifest entry plus a share of the manifest header
/// and footer), so the rate fallback targets the chunk's share of the
/// *aggregate* band rather than the naive payload ratio.
double per_chunk_overhead(const Shape& shape, std::size_t chunk_count) {
  const double fixed = 112.0 + 10.0 * static_cast<double>(shape.size());
  return 26.0 + fixed / static_cast<double>(chunk_count);
}

/// The ZFP band-miss rescue: when accuracy mode cannot express the band on a
/// small chunk (its bit-plane treads quantize the reachable ratios), retry
/// in fixed-rate mode, where the output size is a near-linear function of
/// the rate and any ratio is expressible.  Deterministic secant iteration on
/// the rate; keeps whichever archive (accuracy or best rate) lands closest
/// to the chunk's target bytes.  With a closer rate-mode archive, \p out is
/// replaced and \p fell_back set.
void zfp_rate_rescue(pressio::Compressor& rate_backend, const ArrayView& slice,
                     double target_ratio, double epsilon, double overhead_bytes,
                     Buffer& out, bool& fell_back) {
  const double raw = static_cast<double>(slice.size_bytes());
  const double target = std::max(raw / target_ratio - overhead_bytes, 24.0);
  const double elements = static_cast<double>(slice.elements());
  const double max_rate = static_cast<double>(dtype_size(slice.dtype())) * 8.0;
  const double min_rate = 1.0 / 16.0;
  double best_diff = std::abs(static_cast<double>(out.size()) - target);
  Buffer trial, best;
  bool improved = false;
  double rate = std::clamp((target - 40.0) * 8.0 / elements, min_rate, max_rate);
  double prev_rate = 0, prev_size = 0;
  for (int iter = 0; iter < 6; ++iter) {
    rate_backend.set_options(
        pressio::Options{{"zfp:mode", std::string("rate")}, {"zfp:rate", rate}});
    rate_backend.compress_into(slice, trial).throw_if_error();
    const double size = static_cast<double>(trial.size());
    const double diff = std::abs(size - target);
    if (diff < best_diff) {
      best_diff = diff;
      best.swap(trial);
      improved = true;
    }
    if (ratio_acceptable(raw / (size + overhead_bytes), target_ratio, epsilon)) break;
    double next;
    if (prev_size > 0 && size != prev_size)
      next = rate + (target - size) * (rate - prev_rate) / (size - prev_size);
    else
      next = rate * (target / std::max(size, 1.0));
    prev_rate = rate;
    prev_size = size;
    rate = std::clamp(next, min_rate, max_rate);
    if (rate == prev_rate) break;
  }
  if (improved) {
    out.swap(best);
    fell_back = true;
  }
}

}  // namespace

/// One field mid-ingestion: its geometry, the single staged chunk row, and
/// where its chunks start in the build's chunk region.
struct ArchiveAssembler::OpenField {
  std::string name;
  DType dtype{};
  Shape shape;
  std::size_t extent = 0;
  std::size_t chunk_count = 0;
  std::size_t first_chunk = 0;      ///< its chunk 0's index in the build
  double chunk_overhead = 0;        ///< per_chunk_overhead of its geometry
  std::size_t plane_bytes = 0;
  std::size_t stage_row_bytes = 0;  ///< full chunk-row allocation (memory bound)
  std::size_t pushed_planes = 0;    ///< total planes received
  std::size_t staged_planes = 0;    ///< planes in the current stage row
  std::size_t next_chunk = 0;       ///< index of the row being staged
  NdArray stage;                    ///< the ONE chunk row being assembled
};

ArchiveAssembler::ArchiveAssembler(const ArchiveWriteConfig& config,
                                   WriterWarmState& state, ByteSink& sink)
    : config_(config),
      state_(state),
      sink_(sink),
      workers_(resolve_workers(config.threads, SIZE_MAX)),
      window_(static_cast<std::size_t>(workers_) + 1) {
  idle_lanes_.reserve(workers_);  // at most one lane per concurrent runner
}

ArchiveAssembler::~ArchiveAssembler() {
  UniqueLock lock(mutex_);
  fail_locked(std::make_exception_ptr(Error("archive: build abandoned")));
  while (runners_ > 0) progress_cv_.wait(lock);
}

template <typename Fn>
void ArchiveAssembler::poisoning(Fn&& step) {
  if (std::exception_ptr failure = failure_of(step)) {
    LockGuard lock(mutex_);
    fail_locked(failure);
    std::rethrow_exception(std::move(failure));
  }
}

void ArchiveAssembler::rethrow_if_failed() {
  LockGuard lock(mutex_);
  if (failed_) std::rethrow_exception(failed_);
}

void ArchiveAssembler::fail_locked(std::exception_ptr failure) {
  if (!failed_) failed_ = std::move(failure);
  for (; next_row_ < chunks_.size(); ++next_row_) {  // drop the queue
    NdArray& row = chunks_[next_row_].row;
    staged_bytes_ -= row.size_bytes();
    staged_bytes_gauge().sub(static_cast<std::int64_t>(row.size_bytes()));
    row = NdArray();
  }
  progress_cv_.notify_all();
}

ArchiveAssembler::Lane ArchiveAssembler::take_lane() {
  {
    LockGuard lock(mutex_);
    if (!idle_lanes_.empty()) {
      Lane lane = std::move(idle_lanes_.back());
      idle_lanes_.pop_back();
      return lane;
    }
  }
  Lane lane{Engine(config_.engine), nullptr};
  lane.engine.adopt_bound_store(state_.bounds);
  return lane;
}

void ArchiveAssembler::run() noexcept {
  std::optional<Lane> lane;  // taken with the first row
  std::size_t index = 0;
  Chunk chunk;
  while (next_row(lane, index, chunk)) {
    std::exception_ptr failure = failure_of([&] {
      if (!lane) lane = take_lane();
      compress_row(*lane, chunk);
    });
    const std::size_t row_bytes = chunk.row.size_bytes();
    chunk.row = NdArray();  // release the raw input row before taking the lock
    LockGuard lock(mutex_);
    staged_bytes_ -= row_bytes;
    staged_bytes_gauge().sub(static_cast<std::int64_t>(row_bytes));
    if (failure)
      fail_locked(std::move(failure));
    else if (!failed_)
      emit_locked(index, std::move(chunk));
  }
}

bool ArchiveAssembler::next_row(std::optional<Lane>& lane, std::size_t& index,
                                Chunk& chunk) {
  LockGuard lock(mutex_);
  if (!failed_ && next_row_ < chunks_.size()) {
    index = next_row_++;
    chunk = std::move(chunks_[index]);
    return true;
  }
  if (lane) idle_lanes_.push_back(std::move(*lane));
  if (--runners_ == 0) progress_cv_.notify_all();
  return false;
}

void ArchiveAssembler::compress_row(Lane& lane, Chunk& chunk) const {
  const ArrayView slice = chunk.row.view();
  const double target = config_.engine.tuner.target_ratio;
  const double epsilon = config_.engine.tuner.epsilon;
  Timer chunk_timer;
  CompressOutcome outcome;
  bool rate_fallback = false;
  {
    TELEM_SPAN("pack.compress_us");
    lane.engine.compress(chunk.key, slice, chunk.bytes, &outcome).throw_if_error();
    for (const std::string& key : chunk.seeds)
      lane.engine.seed(key, outcome.error_bound, outcome.achieved_ratio).throw_if_error();
    if (config_.zfp_rate_fallback && config_.engine.compressor == "zfp" && !outcome.in_band) {
      // The rescue backend inherits the user's zfp options; the rate
      // search overrides only zfp:mode / zfp:rate per probe.
      if (!lane.rate_backend)
        lane.rate_backend = pressio::registry().create("zfp", config_.engine.compressor_options);
      zfp_rate_rescue(*lane.rate_backend, slice, target, epsilon, chunk.overhead, chunk.bytes,
                      rate_fallback);
    }
  }
  // Checksum and ratio are per-payload and deterministic — computed here so
  // the lock covers only ordering and emission.
  ChunkReport& report = chunk.report;
  report.entry.size = chunk.bytes.size();
  // A rate-mode payload honours no pointwise bound — record 0 in the
  // manifest so readers cannot mistake the abandoned accuracy bound for a
  // guarantee; the tuned bound still seeds the next write.
  report.entry.error_bound = rate_fallback ? 0 : outcome.error_bound;
  report.entry.crc = crc32(chunk.bytes.data(), chunk.bytes.size());
  report.tuned_bound = outcome.error_bound;
  report.ratio = chunk.bytes.size() > 0 ? static_cast<double>(slice.size_bytes()) /
                                              static_cast<double>(chunk.bytes.size())
                                        : 0;
  report.seconds = chunk_timer.seconds();
  report.warm = outcome.warm;
  report.retrained = outcome.retrained;
  report.rate_fallback = rate_fallback;
  report.tuner_probe_calls = outcome.tuner_probe_calls;
  report.probe_cache_hits = outcome.probe_cache_hits;
  report.in_band = ratio_acceptable(report.ratio, target, epsilon);
}

void ArchiveAssembler::emit_locked(std::size_t index, Chunk chunk) {
  live_bytes_ += chunk.bytes.size();
  peak_buffered_bytes_ = std::max(peak_buffered_bytes_, live_bytes_);
  chunks_[index] = std::move(chunk);
  chunks_[index].ready = true;
  while (write_head_ < chunks_.size() && chunks_[write_head_].ready) {
    Chunk& head = chunks_[write_head_];
    const std::size_t head_size = head.bytes.size();
    head.report.entry.offset = emitted_bytes_;
    chunks_counter().add();
    if (head.report.warm) warm_chunks_counter().add();
    if (head.report.retrained) retrained_chunks_counter().add();
    if (head.report.rate_fallback) rate_fallback_counter().add();
    std::exception_ptr failure;
    {
      TELEM_SPAN("pack.emit_us");
      failure = failure_of([&] { sink_.append(head.bytes.data(), head_size); });
    }
    if (failure) {  // under the same lock: no runner emits past a failed append
      fail_locked(std::move(failure));
      return;
    }
    emitted_bytes_ += head_size;
    live_bytes_ -= head_size;
    Buffer().swap(head.bytes);  // release the payload's memory
    ++write_head_;
  }
  progress_cv_.notify_all();
}

void ArchiveAssembler::open_field(const std::string& name, const FieldDesc& desc) {
  rethrow_if_failed();
  if (finished_) throw InvalidArgument("archive: build already finished");
  if (open_)
    throw InvalidArgument("archive: field '" + open_->name +
                          "' is still open; close it first");
  if (name.empty() || name.size() > 256)
    throw InvalidArgument("archive: field name must be 1..256 bytes");
  if (reports_.size() >= kMaxFields)
    throw InvalidArgument("archive: at most " + std::to_string(kMaxFields) +
                          " fields per archive");
  for (const FieldWriteReport& field : reports_)
    if (field.name == name)
      throw InvalidArgument("archive: duplicate field name '" + name + "'");
  if (desc.shape.empty() || desc.shape.size() > 8)
    throw InvalidArgument("archive: field rank must be 1..8");
  if (shape_elements(desc.shape) == 0)
    throw InvalidArgument("archive: cannot pack an empty array");

  auto field = std::make_unique<OpenField>();
  field->name = name;
  field->dtype = desc.dtype;
  field->shape = desc.shape;
  const std::size_t n0 = desc.shape[0];
  field->plane_bytes = (shape_elements(desc.shape) / n0) * dtype_size(desc.dtype);
  const std::size_t requested =
      desc.chunk_extent > 0 ? desc.chunk_extent : config_.chunk_extent;
  field->extent = requested > 0 ? std::min(requested, n0)
                                : auto_chunk_extent(n0, field->plane_bytes);
  field->chunk_count = (n0 + field->extent - 1) / field->extent;
  field->chunk_overhead = per_chunk_overhead(desc.shape, field->chunk_count);
  field->stage_row_bytes = std::min(field->extent, n0) * field->plane_bytes;
  {
    LockGuard lock(mutex_);
    field->first_chunk = chunks_.size();
  }

  // A geometry change re-maps chunk indices onto different planes, so the
  // per-chunk warm keys of the previous geometry are meaningless — drop them.
  const double target = config_.engine.tuner.target_ratio;
  WriterWarmState::FieldGeometry& geometry = state_.fields[name];
  if (geometry.shape != desc.shape || geometry.extent != field->extent) {
    for (std::size_t i = 0; i < geometry.chunk_count; ++i)
      state_.bounds->erase(chunk_field_key(name, i), target);
    geometry.shape = desc.shape;
    geometry.extent = field->extent;
    geometry.chunk_count = field->chunk_count;
  }

  Shape row_shape = desc.shape;
  row_shape[0] = std::min(field->extent, n0);
  field->stage = NdArray(desc.dtype, std::move(row_shape));
  if (!pool_) pool_ = std::make_unique<ThreadPool>(workers_);
  open_ = std::move(field);
}

void ArchiveAssembler::push(const ArrayView& slab) {
  rethrow_if_failed();
  if (!open_) throw InvalidArgument("archive: no field session is open");
  OpenField& field = *open_;
  if (slab.dtype() != field.dtype)
    throw InvalidArgument("archive: slab dtype does not match field '" + field.name + "'");
  if (slab.dims() != field.shape.size())
    throw InvalidArgument("archive: slab rank does not match field '" + field.name + "'");
  for (std::size_t d = 1; d < field.shape.size(); ++d)
    if (slab.shape()[d] != field.shape[d])
      throw InvalidArgument("archive: slab plane shape does not match field '" +
                            field.name + "'");
  const std::size_t planes = slab.shape()[0];
  if (planes == 0) throw InvalidArgument("archive: slab must hold at least one plane");
  if (field.pushed_planes + planes > field.shape[0])
    throw InvalidArgument("archive: field '" + field.name + "' overflows its declared " +
                          std::to_string(field.shape[0]) + " planes");

  // Stage planes into the current chunk row; dispatch each row the moment it
  // completes.  The slab is copied, so the caller's buffer is free for the
  // next acquisition as soon as push returns.
  const auto* src = static_cast<const std::uint8_t*>(slab.data());
  std::size_t remaining = planes;
  while (remaining > 0) {
    const std::size_t room = field.stage.shape()[0] - field.staged_planes;
    const std::size_t take = std::min(room, remaining);
    {
      // Only the staging copy — submit_stage (the pipeline hand-off) is
      // accounted by the compress/emit spans downstream.
      TELEM_SPAN("pack.stage_us");
      std::memcpy(static_cast<std::uint8_t*>(field.stage.data()) +
                      field.staged_planes * field.plane_bytes,
                  src, take * field.plane_bytes);
    }
    src += take * field.plane_bytes;
    field.staged_planes += take;
    field.pushed_planes += take;
    remaining -= take;
    if (field.staged_planes == field.stage.shape()[0]) poisoning([&] { submit_stage(); });
  }
}

void ArchiveAssembler::submit_stage() {
  OpenField& field = *open_;
  Chunk chunk;
  chunk.key = chunk_field_key(field.name, field.next_chunk);
  chunk.overhead = field.chunk_overhead;
  chunk.row = std::move(field.stage);
  if (field.next_chunk == 0) {
    // Chunk 0's compression is the field's search (or its warm hit).  Its
    // outcome seeds each other chunk key with no bound yet; a key that a
    // previous build left keeps its own bound (Algorithm 3's time axis).
    const double target = config_.engine.tuner.target_ratio;
    for (std::size_t i = 1; i < field.chunk_count; ++i) {
      std::string key = chunk_field_key(field.name, i);
      if (state_.bounds->get(key, target) <= 0) chunk.seeds.push_back(std::move(key));
    }
  }
  const bool seeds = !chunk.seeds.empty();
  ++field.next_chunk;
  field.staged_planes = 0;
  if (field.next_chunk < field.chunk_count) {
    Shape row_shape = field.shape;
    row_shape[0] = std::min(field.extent,
                            field.shape[0] - field.next_chunk * field.extent);
    field.stage = NdArray(field.dtype, std::move(row_shape));
  } else {
    field.stage = NdArray();
  }

  const std::size_t row_bytes = chunk.row.size_bytes();
  UniqueLock lock(mutex_);
  while (!failed_ && chunks_.size() - write_head_ >= window_) progress_cv_.wait(lock);
  if (failed_) std::rethrow_exception(failed_);
  if (runners_ < workers_) {
    // Counted only once queued: a runner cannot reach the lock (and find
    // the queue) before this submit releases it.
    pool_->submit([this] { run(); });
    ++runners_;
  }
  chunks_.push_back(std::move(chunk));
  peak_buffered_chunks_ = std::max(peak_buffered_chunks_, chunks_.size() - write_head_);
  staged_bytes_ += row_bytes;
  peak_staged_bytes_ =
      std::max(peak_staged_bytes_, staged_bytes_ + field.stage_row_bytes);
  staged_bytes_gauge().add(static_cast<std::int64_t>(row_bytes));
  if (seeds) {
    // No later chunk of the field starts before chunk 0's seeds are
    // written, so every chunk warm-starts from a bound fixed by (field,
    // chunk) alone, whatever the worker count.
    while (!failed_ && write_head_ <= field.first_chunk) progress_cv_.wait(lock);
    if (failed_) std::rethrow_exception(failed_);
  }
}

FieldWriteReport ArchiveAssembler::close_field() {
  rethrow_if_failed();
  if (!open_) throw InvalidArgument("archive: no field session is open");
  const OpenField& field = *open_;
  if (field.pushed_planes != field.shape[0])
    throw InvalidArgument("archive: field '" + field.name + "' is incomplete: " +
                          std::to_string(field.pushed_planes) + " of " +
                          std::to_string(field.shape[0]) + " planes pushed");

  FieldWriteReport report;
  report.name = field.name;
  report.dtype = field.dtype;
  report.shape = field.shape;
  report.chunk_extent = field.extent;
  report.chunk_count = field.chunk_count;
  report.raw_bytes = shape_elements(field.shape) * dtype_size(field.dtype);
  {
    // The field barrier: wait for the emission head to pass its last chunk.
    const std::size_t end = field.first_chunk + field.chunk_count;
    UniqueLock lock(mutex_);
    while (!failed_ && write_head_ < end) progress_cv_.wait(lock);
    if (failed_) std::rethrow_exception(failed_);
    for (std::size_t i = field.first_chunk; i < end; ++i)
      report.chunks.push_back(chunks_[i].report);
  }
  for (const ChunkReport& chunk : report.chunks) {
    report.payload_bytes += chunk.entry.size;
    report.warm_chunks += chunk.warm;
    report.retrained_chunks += chunk.retrained;
    report.rate_fallback_chunks += chunk.rate_fallback;
    report.tuner_probe_calls += chunk.tuner_probe_calls;
    report.probe_cache_hits += chunk.probe_cache_hits;
  }
  report.payload_ratio =
      static_cast<double>(report.raw_bytes) / static_cast<double>(report.payload_bytes);
  report.in_band = ratio_acceptable(report.payload_ratio,
                                    config_.engine.tuner.target_ratio,
                                    config_.engine.tuner.epsilon);
  reports_.push_back(report);
  open_.reset();
  return report;
}

ArchiveWriteResult ArchiveAssembler::finish() {
  rethrow_if_failed();
  if (finished_) throw InvalidArgument("archive: build already finished");
  if (open_)
    throw InvalidArgument("archive: field '" + open_->name +
                          "' is still open; close it before finish");
  if (reports_.empty()) throw InvalidArgument("archive: build holds no fields");

  ArchiveWriteResult result;
  std::size_t region_bytes = 0;
  {
    // Every chunk is emitted; wait for the runners to park their lanes.
    UniqueLock lock(mutex_);
    while (runners_ > 0) progress_cv_.wait(lock);
    for (const Lane& lane : idle_lanes_) {
      result.tuner_probe_calls += lane.engine.stats().tuner_probe_calls;
      result.probe_cache_hits += lane.engine.stats().probe_cache_hits;
    }
    for (const Chunk& chunk : chunks_) result.chunks.push_back(chunk.report);
    result.peak_buffered_chunks = peak_buffered_chunks_;
    result.peak_buffered_bytes = peak_buffered_bytes_;
    result.peak_staged_bytes = peak_staged_bytes_;
    region_bytes = emitted_bytes_;
  }

  std::vector<FieldInfo> manifest_fields;
  for (const FieldWriteReport& report : reports_) {
    FieldInfo field;
    field.name = report.name;
    field.compressor = config_.engine.compressor;
    field.dtype = report.dtype;
    field.shape = report.shape;
    field.chunk_extent = report.chunk_extent;
    field.chunk_count = report.chunk_count;
    field.target_ratio = config_.engine.tuner.target_ratio;
    field.epsilon = config_.engine.tuner.epsilon;
    field.raw_bytes = report.raw_bytes;
    field.payload_bytes = report.payload_bytes;
    field.payload_ratio = report.payload_ratio;
    for (const ChunkReport& chunk : report.chunks) field.chunks.push_back(chunk.entry);
    manifest_fields.push_back(std::move(field));
    result.raw_bytes += report.raw_bytes;
    result.warm_chunks += report.warm_chunks;
    result.retrained_chunks += report.retrained_chunks;
    result.rate_fallback_chunks += report.rate_fallback_chunks;
  }

  const auto append = [&](const Buffer& block) {
    poisoning([&] { sink_.append(block.data(), block.size()); });
  };
  Buffer manifest;
  encode_manifest_fields(manifest_fields, manifest);
  append(manifest);

  result.chunk_count = reports_.front().chunk_count;
  result.chunk_extent = reports_.front().chunk_extent;
  result.archive_bytes = sink_.bytes_written() + kFooterBytes;
  result.achieved_ratio = static_cast<double>(result.raw_bytes) /
                          static_cast<double>(result.archive_bytes);
  result.in_band = ratio_acceptable(result.achieved_ratio,
                                    config_.engine.tuner.target_ratio,
                                    config_.engine.tuner.epsilon);
  result.fields = std::move(reports_);

  Buffer footer;
  encode_footer(region_bytes, manifest.size(), result.raw_bytes, result.archive_bytes,
                result.achieved_ratio, footer);
  append(footer);

  pool_.reset();  // the build's threads end with the build
  result.seconds = timer_.seconds();
  finished_ = true;
  return result;
}

}  // namespace fraz::archive::detail
