#include "core/probe.hpp"

#include <algorithm>
#include <cstring>
#include <future>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "metrics/error_stats.hpp"
#include "metrics/ssim.hpp"
#include "opt/thread_pool.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/status.hpp"

namespace fraz {

namespace {

telemetry::Counter& probes_executed_counter() {
  static telemetry::Counter& c = telemetry::global().counter("tune.probes_executed");
  return c;
}

telemetry::Counter& probe_cache_hits_counter() {
  static telemetry::Counter& c = telemetry::global().counter("tune.probe_cache_hits");
  return c;
}

telemetry::Counter& probes_deduped_counter() {
  static telemetry::Counter& c = telemetry::global().counter("tune.probes_deduped");
  return c;
}

/// SplitMix64-style finalizer: every key-combining step funnels through this
/// so nearby inputs (consecutive bounds, one-bit data edits) land far apart.
std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Word-at-a-time 64-bit content hash (FNV-flavoured with a strong
/// finalizer).  Collision odds at cache scale (<= 2^16 entries) are
/// negligible, and a collision costs a wrong cached ratio — so the full
/// content is hashed, never a sample.
std::uint64_t hash_bytes(const void* data, std::size_t size, std::uint64_t seed) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = seed ^ (0x9e3779b97f4a7c15ull * (size + 1));
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = mix64(h ^ w) + 0x2545f4914f6cdd1dull;
  }
  if (i < size) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, size - i);
    h = mix64(h ^ w) + 0x2545f4914f6cdd1dull;
  }
  return mix64(h);
}

std::uint64_t hash_string(const std::string& s, std::uint64_t seed) noexcept {
  return hash_bytes(s.data(), s.size(), seed);
}

std::uint64_t double_bits(double v) noexcept {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

}  // namespace

std::uint64_t data_fingerprint(const ArrayView& data) noexcept {
  std::uint64_t h = mix64(static_cast<std::uint64_t>(data.dtype()) + 0x64617461ull);
  for (const std::size_t extent : data.shape()) h = mix64(h ^ extent);
  const std::size_t size = data.size_bytes();
  if (size <= kFingerprintFullPassBytes) return hash_bytes(data.data(), size, h);
  // Strided sampling (contract in probe.hpp): total length plus evenly
  // spaced windows, first at offset 0, last flush against the end.  Each
  // window is seeded with its offset so swapping two equal-content windows
  // still changes the key.
  const auto* bytes = static_cast<const std::uint8_t*>(data.data());
  h = mix64(h ^ size);
  const std::size_t last_start = size - kFingerprintWindowBytes;
  for (std::size_t w = 0; w < kFingerprintWindows; ++w) {
    const std::size_t start = last_start * w / (kFingerprintWindows - 1);
    h = hash_bytes(bytes + start, kFingerprintWindowBytes, mix64(h ^ start));
  }
  return h;
}

std::uint64_t compressor_fingerprint(const pressio::Compressor& compressor) {
  std::uint64_t h = hash_string(compressor.name(), 0x636f6e66ull);
  for (const auto& [key, value] : compressor.get_options()) {
    h = hash_string(key, h);
    h = mix64(h ^ value.index());
    if (const auto* b = std::get_if<bool>(&value))
      h = mix64(h ^ static_cast<std::uint64_t>(*b));
    else if (const auto* i = std::get_if<std::int64_t>(&value))
      h = mix64(h ^ static_cast<std::uint64_t>(*i));
    else if (const auto* d = std::get_if<double>(&value))
      h = mix64(h ^ double_bits(*d));
    else
      h = hash_string(std::get<std::string>(value), h);
  }
  return h;
}

// -------------------------------------------------------------- ProbeCache

ProbeCache::ProbeCache(std::size_t max_entries)
    : index_(std::max<std::size_t>(max_entries, 1)),
      evictions_counter_(telemetry::global().counter("tune.probe_cache.evictions")) {}

std::uint64_t ProbeCache::slot(std::uint64_t context, double bound) noexcept {
  return mix64(context ^ double_bits(bound));
}

bool ProbeCache::lookup(std::uint64_t context, double bound, ProbeRecord& out) const noexcept {
  LockGuard lock(mutex_);
  const ProbeRecord* hit = index_.touch(slot(context, bound));
  if (hit == nullptr) {
    ++misses_;
    return false;
  }
  ++hits_;
  out = *hit;
  return true;
}

void ProbeCache::insert(std::uint64_t context, double bound, const ProbeRecord& record) {
  const std::uint64_t key = slot(context, bound);
  Index::Nodes fresh = Index::stage(key, record, 1);
  Index::Nodes dropped;
  std::size_t evicted = 0;
  std::optional<Flight> flight;
  {
    // Cached and landed under one lock: a claim after this finds the record.
    LockGuard lock(mutex_);
    evicted = index_.insert(std::move(fresh), dropped);
    evictions_ += evicted;
    flight = take_flight(key);
  }
  if (flight) flight->promise.set_value(record);
  if (evicted != 0) evictions_counter_.add(evicted);
}

std::optional<ProbeCache::Flight> ProbeCache::take_flight(std::uint64_t key) {
  const auto it = flights_.find(key);
  if (it == flights_.end()) return std::nullopt;
  std::optional<Flight> flight(std::move(it->second));
  flights_.erase(it);
  return flight;
}

ProbeCache::Claim ProbeCache::claim(std::uint64_t context, double bound) {
  const std::uint64_t key = slot(context, bound);
  Claim claim;
  LockGuard lock(mutex_);
  if (const ProbeRecord* hit = index_.touch(key)) {
    ++hits_;
    claim.record = *hit;
    return claim;
  }
  const auto [it, fresh] = flights_.try_emplace(key);
  if (fresh) {
    ++misses_;
    claim.kind = Claim::kOwner;
  } else {
    ++hits_;
    claim.kind = Claim::kWait;
    claim.pending = it->second.record;
  }
  return claim;
}

void ProbeCache::abandon(std::uint64_t context, double bound, std::exception_ptr failure) {
  std::optional<Flight> flight;
  {
    LockGuard lock(mutex_);
    flight = take_flight(slot(context, bound));
  }
  if (flight) flight->promise.set_exception(std::move(failure));
}

ProbeCache::Stats ProbeCache::stats() const noexcept {
  LockGuard lock(mutex_);
  return Stats{hits_, misses_, index_.size(), evictions_};
}

void ProbeCache::clear() noexcept {
  Index::Nodes dropped;
  LockGuard lock(mutex_);
  index_.clear(dropped);
}

// ----------------------------------------------------------- ProbeExecutor

ProbeExecutor::ProbeExecutor(const pressio::Compressor& prototype, ProbeCachePtr cache,
                             unsigned threads)
    : prototype_(prototype.clone()),
      cache_(std::move(cache)),
      threads_(threads == 0 ? std::max(1u, std::thread::hardware_concurrency()) : threads),
      probe_hist_backend_(&telemetry::global().histogram("tune.probe_us." + prototype.name())),
      probes_executed_backend_(
          &telemetry::global().counter("tune.probes_executed." + prototype.name())),
      cache_hits_backend_(
          &telemetry::global().counter("tune.probe_cache_hits." + prototype.name())) {
  require(cache_ != nullptr, "ProbeExecutor: cache must not be null");
  // Every probe sets the bound, which the cache keys apart: fingerprint at
  // one fixed bound, so the bound the caller's compressor last held cannot
  // split the cache between two searches of the same data.
  prototype_->set_error_bound(1.0);
  config_fingerprint_ = compressor_fingerprint(*prototype_);
}

std::uint64_t ProbeExecutor::context_key(const ArrayView& data) const noexcept {
  return mix64(config_fingerprint_ ^ data_fingerprint(data));
}

ProbeExecutor::Lease::Lease(ProbeExecutor& owner) : owner_(owner) {
  {
    LockGuard lock(owner_.mutex_);
    if (!owner_.idle_.empty()) {
      context_ = std::move(owner_.idle_.back());
      owner_.idle_.pop_back();
      return;
    }
  }
  context_ = std::make_unique<Context>();
  context_->compressor = owner_.prototype_->clone();
}

ProbeExecutor::Lease::~Lease() {
  LockGuard lock(owner_.mutex_);
  owner_.idle_.push_back(std::move(context_));
}

ProbeRecord ProbeExecutor::execute(Context& context, const ArrayView& data, double bound,
                                   const QualityMetric* metric) {
  TELEM_SPAN("tune.probe_us");
  telemetry::SpanTimer backend_span(*probe_hist_backend_);
  context.compressor->set_error_bound(bound);
  Status s = context.compressor->compress_into(data, context.scratch);
  if (!s.ok()) throw_status(s);
  ProbeRecord record;
  record.ratio = static_cast<double>(data.size_bytes()) /
                 static_cast<double>(context.scratch.size());
  if (metric != nullptr) {
    s = context.compressor->decompress_into(context.scratch.data(), context.scratch.size(),
                                            context.decoded);
    if (!s.ok()) throw_status(s);
    record.quality = *metric == QualityMetric::kPsnrDb
                         ? error_stats(data, context.decoded.view()).psnr_db
                         : ssim(data, context.decoded.view());
  }
  probes_executed_counter().add();
  probes_executed_backend_->add();
  return record;
}

std::vector<ProbeOutcome> ProbeExecutor::run(const ArrayView& data, std::uint64_t key,
                                             const std::vector<double>& bounds,
                                             const QualityMetric* metric) {
  std::vector<ProbeOutcome> out(bounds.size());

  // Partition the batch: cache hits are answered immediately; the first
  // occurrence of each novel bound is claimed, and becomes a miss to execute
  // here or a wait on the thread already executing it; repeats of either
  // within the batch take its result.
  struct Miss {
    std::size_t index;
    double bound;
  };
  std::vector<Miss> misses;
  std::vector<std::pair<std::size_t, std::shared_future<ProbeRecord>>> waits;
  std::vector<std::pair<std::size_t, std::size_t>> repeats;  // (index, first index)
  std::unordered_map<std::uint64_t, std::size_t> batch_first;  // bound bits -> index
  std::size_t hits = 0;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    const auto first = batch_first.find(double_bits(bounds[i]));
    if (first != batch_first.end()) {
      repeats.emplace_back(i, first->second);
      ++hits;
      continue;
    }
    ProbeCache::Claim claim = cache_->claim(key, bounds[i]);
    if (claim.kind == ProbeCache::Claim::kHit) {
      out[i] = ProbeOutcome{claim.record, true};
      ++hits;
      continue;
    }
    batch_first.emplace(double_bits(bounds[i]), i);
    if (claim.kind == ProbeCache::Claim::kOwner) {
      misses.push_back(Miss{i, bounds[i]});
    } else {
      waits.emplace_back(i, std::move(claim.pending));
      ++hits;
    }
  }

  if (!misses.empty()) {
    // Claim-based fan-out: helpers join from the caller's pool, the caller
    // claims misses too, and each record lands in its own slot — so the
    // batch completes even when issued from a busy pool thread.  A failure
    // ends every claim this batch owns before it propagates.
    std::vector<ProbeRecord> records(misses.size());
    try {
      parallel_for_shared(misses.size(), threads_, [&](std::size_t m) {
        const Lease worker(*this);
        records[m] = execute(*worker, data, misses[m].bound, metric);
      });
    } catch (...) {
      for (const Miss& miss : misses) cache_->abandon(key, miss.bound, std::current_exception());
      throw;
    }
    for (std::size_t m = 0; m < misses.size(); ++m) {
      cache_->insert(key, misses[m].bound, records[m]);
      out[misses[m].index] = ProbeOutcome{records[m], false};
    }
  }
  // Only now, owning nothing, wait for the probes other threads execute.
  for (auto& [index, pending] : waits) out[index] = ProbeOutcome{pending.get(), true};
  for (const auto& [index, first] : repeats) out[index] = ProbeOutcome{out[first].record, true};

  // `hits` folds cache hits, waits and in-batch repeats together (that is
  // the executor's contract); telemetry splits the repeats out so dedup
  // savings are visible separately from cache reuse.
  probe_cache_hits_counter().add(hits - repeats.size());
  cache_hits_backend_->add(hits - repeats.size());
  probes_deduped_counter().add(repeats.size());

  LockGuard lock(mutex_);
  executed_ += misses.size();
  cache_hits_ += hits;
  return out;
}

std::vector<ProbeOutcome> ProbeExecutor::probe_ratios(const ArrayView& data,
                                                      std::uint64_t context,
                                                      const std::vector<double>& bounds) {
  return run(data, context, bounds, nullptr);
}

ProbeOutcome ProbeExecutor::probe_ratio(const ArrayView& data, std::uint64_t context,
                                        double bound) {
  return run(data, context, {bound}, nullptr).front();
}

ProbeOutcome ProbeExecutor::probe_quality(const ArrayView& data, std::uint64_t context,
                                          double bound, QualityMetric metric) {
  // Quality observations live under a metric-tagged key so a ratio probe at
  // the same bound can never masquerade as a quality measurement.
  const std::uint64_t tagged =
      mix64(context ^ (0x7175616cull + static_cast<std::uint64_t>(metric)));
  return run(data, tagged, {bound}, &metric).front();
}

std::size_t ProbeExecutor::executed() const noexcept {
  LockGuard lock(mutex_);
  return executed_;
}

std::size_t ProbeExecutor::cache_hits() const noexcept {
  LockGuard lock(mutex_);
  return cache_hits_;
}

}  // namespace fraz
