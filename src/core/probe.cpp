#include "core/probe.hpp"

#include <algorithm>
#include <thread>

#include "metrics/error_stats.hpp"
#include "metrics/ssim.hpp"
#include "opt/thread_pool.hpp"
#include "telemetry/telemetry.hpp"
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

}  // namespace

ProbeExecutor::ProbeExecutor(const pressio::Compressor& prototype, unsigned threads)
    : prototype_(prototype.clone()),
      threads_(threads == 0 ? std::max(1u, std::thread::hardware_concurrency()) : threads),
      probe_hist_backend_(&telemetry::global().histogram("tune.probe_us." + prototype.name())),
      probes_executed_backend_(
          &telemetry::global().counter("tune.probes_executed." + prototype.name())),
      cache_hits_backend_(
          &telemetry::global().counter("tune.probe_cache_hits." + prototype.name())) {}

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

std::vector<ProbeOutcome> ProbeExecutor::run(const ArrayView& data, ProbeMemo& memo,
                                             const std::vector<double>& bounds,
                                             const QualityMetric* metric) {
  // The first occurrence of each bound the memo lacks is a miss; every other
  // bound reads the memo once the misses have landed in it.
  std::vector<ProbeOutcome> out(bounds.size());
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    const std::uint64_t key = memo_key(bounds[i]);
    out[i].from_memo =
        memo.count(key) != 0 || std::any_of(misses.begin(), misses.end(), [&](std::size_t m) {
          return memo_key(bounds[m]) == key;
        });
    if (!out[i].from_memo) misses.push_back(i);
  }

  // Claim-based fan-out: helpers join from the caller's pool, the caller
  // claims misses too, and each record lands in its own slot — so the batch
  // completes even when issued from a busy pool thread.
  std::vector<ProbeRecord> records(misses.size());
  parallel_for_shared(misses.size(), threads_, [&](std::size_t m) {
    const Lease worker(*this);
    records[m] = execute(*worker, data, bounds[misses[m]], metric);
  });
  for (std::size_t m = 0; m < misses.size(); ++m)
    memo.emplace(memo_key(bounds[misses[m]]), records[m]);
  for (std::size_t i = 0; i < bounds.size(); ++i)
    out[i].record = memo.at(memo_key(bounds[i]));

  const std::size_t hits = bounds.size() - misses.size();
  probe_cache_hits_counter().add(hits);
  cache_hits_backend_->add(hits);
  LockGuard lock(mutex_);
  executed_ += misses.size();
  return out;
}

std::vector<ProbeOutcome> ProbeExecutor::probe_ratios(const ArrayView& data, ProbeMemo& memo,
                                                      const std::vector<double>& bounds) {
  return run(data, memo, bounds, nullptr);
}

ProbeOutcome ProbeExecutor::probe_ratio(const ArrayView& data, ProbeMemo& memo, double bound) {
  return run(data, memo, {bound}, nullptr).front();
}

ProbeOutcome ProbeExecutor::probe_quality(const ArrayView& data, ProbeMemo& memo, double bound,
                                          QualityMetric metric) {
  return run(data, memo, {bound}, &metric).front();
}

std::size_t ProbeExecutor::executed() const noexcept {
  LockGuard lock(mutex_);
  return executed_;
}

}  // namespace fraz
