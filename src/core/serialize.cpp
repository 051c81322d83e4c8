#include "core/serialize.hpp"

namespace fraz {

std::string to_json(const pressio::Options& options) {
  JsonWriter w;
  w.begin_object();
  for (const auto& [key, value] : options) {
    w.key(key);
    if (const auto* b = std::get_if<bool>(&value))
      w.value(*b);
    else if (const auto* i = std::get_if<std::int64_t>(&value))
      w.value(*i);
    else if (const auto* d = std::get_if<double>(&value))
      w.value(*d);
    else
      w.value(std::get<std::string>(value));
  }
  w.end_object();
  return std::move(w).str();
}

void write_json_fields(JsonWriter& w, const TuneResult& result) {
  w.field("error_bound", result.error_bound)
      .field("achieved_ratio", result.achieved_ratio)
      .field("feasible", result.feasible)
      .field("from_prediction", result.from_prediction)
      .field("compress_calls", result.compress_calls)
      .field("probe_cache_hits", result.probe_cache_hits)
      .field("probes_executed", result.compress_calls - result.probe_cache_hits)
      .field("seconds", result.seconds);
  if (result.regions.empty()) return;
  w.key("regions").begin_array();
  for (const RegionOutcome& r : result.regions) {
    w.begin_object()
        .field("lo", r.region.lo)
        .field("hi", r.region.hi)
        .field("best_bound", r.best_bound)
        .field("best_ratio", r.best_ratio)
        .field("compress_calls", r.compress_calls)
        .field("cache_hits", r.cache_hits)
        .field("hit_cutoff", r.hit_cutoff)
        .field("cancelled", r.cancelled)
        .end_object();
  }
  w.end_array();
}

std::string to_json(const TuneResult& result) {
  JsonWriter w;
  w.begin_object();
  write_json_fields(w, result);
  w.end_object();
  return std::move(w).str();
}

}  // namespace fraz
