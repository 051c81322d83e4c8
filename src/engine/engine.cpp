#include "engine/engine.hpp"

#include "core/loss.hpp"
#include "pressio/registry.hpp"
#include "telemetry/telemetry.hpp"
#include "util/timer.hpp"

namespace fraz {

namespace {

// EngineStats stays a plain per-instance struct — an archive build reports
// the probe counters of its own lanes from it — so the registry gets
// parallel process-wide totals bumped at the same sites.
telemetry::Counter& tunes_counter() {
  static telemetry::Counter& c = telemetry::global().counter("engine.tunes");
  return c;
}

telemetry::Counter& warm_hits_counter() {
  static telemetry::Counter& c = telemetry::global().counter("engine.warm_hits");
  return c;
}

telemetry::Counter& retrains_counter() {
  static telemetry::Counter& c = telemetry::global().counter("engine.retrains");
  return c;
}

telemetry::Counter& retrain_fallbacks_counter() {
  static telemetry::Counter& c = telemetry::global().counter("engine.retrain_fallbacks");
  return c;
}

telemetry::Counter& above_band_keeps_counter() {
  static telemetry::Counter& c = telemetry::global().counter("engine.above_band_keeps");
  return c;
}

}  // namespace

Engine::Engine(EngineConfig config)
    : config_(std::move(config)),
      compressor_(pressio::registry().create(config_.compressor, config_.compressor_options)),
      bounds_(std::make_shared<BoundStore>()) {
  // Fail construction, not first use, on a nonsensical tuner config.
  Tuner::validate(config_.tuner);
}

Result<Engine> Engine::create(EngineConfig config) noexcept {
  return guarded([&] { return Engine(std::move(config)); });
}

void Engine::adopt_bound_store(BoundStorePtr store) noexcept {
  if (store) bounds_ = std::move(store);
}

Result<TuneResult> Engine::tune(const std::string& field, const ArrayView& data,
                                double target_ratio) noexcept {
  return guarded([&] {
    Timer timer;
    TunerConfig cfg = config_.tuner;
    cfg.target_ratio = target_ratio;
    const Tuner tuner(*compressor_, cfg);
    // The probe of the carried bound is the first entry of the search's memo.
    ProbeMemo memo;
    const CarriedBound carried = bounds_->carried(field, target_ratio);
    TuneResult at_carried;
    if (carried.bound > 0) {
      at_carried.error_bound = carried.bound;
      at_carried.achieved_ratio =
          tuner.executor().probe_ratio(data, memo, carried.bound).record.ratio;
      at_carried.compress_calls = 1;
    }
    TuneResult result = settle(field, target_ratio, carried, at_carried, [&] {
      if (carried.bound <= 0) return tuner.tune(data, std::move(memo));
      return tuner.retrain(data, carried.bound, at_carried.achieved_ratio, std::move(memo));
    });
    result.seconds = timer.seconds();
    return result;
  });
}

Status Engine::compress(const std::string& field, const ArrayView& data, Buffer& out,
                        CompressOutcome* outcome) noexcept {
  // Warm path: compress directly at the carried bound and let that archive
  // double as the measurement settle() judges.  Probing first would compress
  // twice per steady-state frame — once for the probe, once for the archive
  // — on identical bytes.
  const double target = config_.tuner.target_ratio;
  const auto archive_ratio = [&data, &out] {
    return static_cast<double>(data.size_bytes()) / static_cast<double>(out.size());
  };
  const CarriedBound carried = bounds_->carried(field, target);
  TuneResult at_carried;
  if (carried.bound > 0) {
    const Status s = compress_at(carried.bound, data, out);
    if (!s.ok()) return s;
    ++field_stats_[field].compress_calls;
    at_carried.error_bound = carried.bound;
    at_carried.achieved_ratio = archive_ratio();
  }
  const Result<TuneResult> tuned = guarded([&] {
    return settle(field, target, carried, at_carried, [&] {
      const Tuner tuner(*compressor_, config_.tuner);
      if (carried.bound <= 0) return tuner.tune(data);
      return tuner.retrain(data, carried.bound, at_carried.achieved_ratio);
    });
  });
  if (!tuned.ok()) return tuned.status();
  const bool warm = tuned.value().from_prediction;
  if (!warm) {
    const Status s = compress_at(tuned.value().error_bound, data, out);
    if (!s.ok()) return s;
    ++field_stats_[field].compress_calls;
  }
  if (outcome) {
    const TuneResult& t = tuned.value();
    const double ratio = archive_ratio();
    *outcome = CompressOutcome{t.error_bound,
                               ratio,
                               warm,
                               !warm,
                               ratio_acceptable(ratio, target, config_.tuner.epsilon),
                               static_cast<std::size_t>(t.compress_calls - t.probe_cache_hits),
                               static_cast<std::size_t>(t.probe_cache_hits)};
  }
  return Status();
}

TuneResult Engine::settle(const std::string& field, double target, const CarriedBound& carried,
                          const TuneResult& at_carried,
                          const std::function<TuneResult()>& train) {
  const double epsilon = config_.tuner.epsilon;
  TuneResult result;
  if (carried.bound > 0) {
    const bool in_band = ratio_acceptable(at_carried.achieved_ratio, target, epsilon);
    // A bound whose search ended above the band is kept while it still
    // lands above it: no bound that search tried reached the band.
    if (in_band ||
        (carried.above_band && ratio_above_band(at_carried.achieved_ratio, target, epsilon))) {
      if (in_band && carried.above_band) bounds_->put(field, target, carried.bound);
      result = at_carried;
      result.feasible = in_band;
      result.from_prediction = true;
    } else {
      // Drift: the carried bound is proven stale, whatever the retrain
      // below finds.
      bounds_->erase(field, target);
    }
  }
  if (!result.from_prediction) {
    result = train();
    result.compress_calls += at_carried.compress_calls;
    // Carry an in-band result, or an above-band one flagged as such; a
    // search that ends below the band carries nothing.
    const bool above_band = ratio_above_band(result.achieved_ratio, target, epsilon);
    if (result.feasible || above_band)
      bounds_->put(field, target, result.error_bound, above_band);
  }

  ++stats_.tunes;
  tunes_counter().add();
  stats_.tuner_probe_calls +=
      static_cast<std::size_t>(result.compress_calls - result.probe_cache_hits);
  stats_.probe_cache_hits += static_cast<std::size_t>(result.probe_cache_hits);
  EngineFieldStats& per_field = field_stats_[field];
  ++per_field.tunes;
  if (result.from_prediction) {
    ++stats_.warm_hits;
    ++per_field.warm_hits;
    warm_hits_counter().add();
    if (!result.feasible) above_band_keeps_counter().add();
  } else {
    ++stats_.retrains;
    ++per_field.retrains;
    retrains_counter().add();
    // Tuner::retrain reports Algorithm 2's regions only when its secant
    // found no in-band bound.  Adding 0 lists the counter once any search ran.
    retrain_fallbacks_counter().add(carried.bound > 0 && !result.regions.empty());
  }
  return result;
}

Status Engine::seed(const std::string& field, double bound, double achieved_ratio) noexcept {
  return guarded([&] {
    const double target = config_.tuner.target_ratio;
    if (bounds_->get(field, target) > 0) return;
    bounds_->put(field, target, bound,
                 ratio_above_band(achieved_ratio, target, config_.tuner.epsilon));
  });
}

Status Engine::compress_at(double error_bound, const ArrayView& data, Buffer& out) noexcept {
  const Status bound = guarded([&] { compressor_->set_error_bound(error_bound); });
  if (!bound.ok()) return bound;
  const Status s = compressor_->compress_into(data, out);
  if (s.ok()) ++stats_.compress_calls;
  return s;
}

Result<NdArray> Engine::decompress(const std::uint8_t* data, std::size_t size) noexcept {
  NdArray out;
  const Status s = compressor_->decompress_into(data, size, out);
  if (!s.ok()) return s;
  ++stats_.decompress_calls;
  return out;
}

Result<pressio::FidelityReport> Engine::evaluate(const std::string& field,
                                                 const ArrayView& data) noexcept {
  Result<TuneResult> tuned = tune(field, data);
  if (!tuned.ok()) return tuned.status();
  return guarded([&] {
    compressor_->set_error_bound(tuned.value().error_bound);
    Result<pressio::FidelityReport> report = pressio::evaluate_fidelity(*compressor_, data);
    if (report.ok()) {
      ++stats_.compress_calls;
      ++stats_.decompress_calls;
    }
    return report;
  });
}

double Engine::cached_bound(const std::string& field, double target_ratio) const noexcept {
  return bounds_->get(field, target_ratio);
}

}  // namespace fraz
