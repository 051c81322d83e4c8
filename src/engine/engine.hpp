#ifndef FRAZ_ENGINE_ENGINE_HPP
#define FRAZ_ENGINE_ENGINE_HPP

/// \file engine.hpp
/// The fraz::Engine facade: one object that owns the whole fixed-ratio
/// pipeline — registry-constructed backend, tuner, and a bound cache — so
/// consumers stop hand-wiring registry + Tuner + metrics for every use.
///
/// The Engine is the one home of the paper's Algorithm 3 (parallel by field,
/// time-step reuse).  Bounds are cached by (field, target ratio):
///
/// - **time dimension**: successive calls for one field warm-start from the
///   last bound that landed in the acceptance band, and retrain only when
///   that bound drifts out of it — a climate campaign that calls
///   `compress("CLOUD", step_t)` per time step pays full training once and
///   one compression per in-band step afterwards.  A search that ends above
///   the band (no bound it tried compressed little enough) carries its bound
///   flagged above-band; later calls keep that bound without a search while
///   it still lands above the band, take it as a plain warm hit once it lands
///   in band, and drop it and retrain once it lands below.  A search that
///   ends below the band carries nothing, so the next call searches afresh.
///   tune() and compress() follow this one rule;
/// - **field dimension**: every field name is its own cache key, so fields
///   never disturb each other's bounds; fields run in parallel by giving
///   each worker its own Engine over one shared BoundStore (what the archive
///   writer does with its chunk workers).
///
/// Tuner is Algorithm 2 (the region search) on one dataset, and the retrain
/// that starts from where a carried bound landed (Tuner::retrain: a secant
/// toward ρt, then Algorithm 2 when it finds no in-band bound); the Engine
/// holds Algorithm 1's prediction (measure the carried bound first, search
/// only when it misses) and Algorithm 3's carry rule, both in one private
/// step.
///
/// All entry points are non-throwing (Status / Result), matching the
/// CompressorV2 contract — an Engine is what a long-running service embeds,
/// and a service treats failure as data, not as control flow.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>

#include "core/tuner.hpp"
#include "engine/bound_store.hpp"
#include "pressio/compressor.hpp"
#include "pressio/evaluate.hpp"
#include "util/buffer.hpp"
#include "util/status.hpp"

namespace fraz {

/// Construction-time configuration of an Engine.
struct EngineConfig {
  /// Registered backend name ("sz", "zfp", "mgard", "truncate", or a
  /// user-registered plugin).
  std::string compressor = "sz";
  /// Applied to the backend at construction (Registry::create(name, opts)).
  pressio::Options compressor_options;
  /// Tuning knobs; tuner.target_ratio is the default target for requests
  /// that do not name one.
  TunerConfig tuner;
};

/// Aggregate counters of one Engine's lifetime.
struct EngineStats {
  std::size_t tunes = 0;            ///< tune() / compress() tuning passes
  std::size_t warm_hits = 0;        ///< settled by the cached bound alone
  std::size_t retrains = 0;         ///< fell back to full training
  std::size_t compress_calls = 0;   ///< archive-producing compressions
  std::size_t decompress_calls = 0;
  /// Compressor invocations actually spent inside tuning (probes a search's
  /// memo served for free are excluded — they cost no compression).
  std::size_t tuner_probe_calls = 0;
  /// Tuning probes a search's memo answered without a compression: bounds
  /// the search had already probed.
  std::size_t probe_cache_hits = 0;
};

/// Per-field slice of an Engine's counters, keyed by the field name handed
/// to tune()/compress() — what a multi-field campaign reports per stream.
/// (compress_at and decompress are field-less and tracked only in the
/// aggregate EngineStats.)
struct EngineFieldStats {
  std::size_t tunes = 0;
  std::size_t warm_hits = 0;
  std::size_t retrains = 0;
  std::size_t compress_calls = 0;
};

/// Per-call detail of one Engine::compress (what the archive writer records
/// in its chunk index).
struct CompressOutcome {
  double error_bound = 0;     ///< bound the archive was produced at
  double achieved_ratio = 0;  ///< raw bytes / archive bytes of this call
  bool warm = false;          ///< served by the cached bound (archive-as-probe),
                              ///< in band or kept above it
  bool retrained = false;     ///< full training ran for this call
  bool in_band = false;       ///< achieved ratio within the acceptance band
  /// Compressor probes this call's search executed (0 when warm).
  std::size_t tuner_probe_calls = 0;
  /// Probes this call's search answered from its memo without a compression.
  std::size_t probe_cache_hits = 0;
};

/// Facade over registry + tuner + bound cache.  Not thread-safe; give each
/// worker its own Engine.  The warm BoundStore IS thread-safe and is meant
/// to be shared: sibling worker Engines adopt one store so every worker
/// warm-starts from the freshest carried bounds (adopt_bound_store).  Probes
/// are not shared: each tuning pass remembers its own in a memo that lives
/// as long as its search.
class Engine {
public:
  /// Non-throwing factory: unknown backend names or invalid options come
  /// back as a Status.
  static Result<Engine> create(EngineConfig config) noexcept;

  /// Throwing convenience constructor (setup code, tests).
  explicit Engine(EngineConfig config);

  const EngineConfig& config() const noexcept { return config_; }
  const std::string& compressor_name() const noexcept { return config_.compressor; }

  /// Introspection of the owned backend.
  pressio::Capabilities capabilities() const { return compressor_->capabilities(); }

  /// Find the error bound for \p data at the config's default target ratio,
  /// warm-starting from the cache entry for \p field.
  Result<TuneResult> tune(const std::string& field, const ArrayView& data) noexcept {
    return tune(field, data, config_.tuner.target_ratio);
  }

  /// Same, at an explicit target ratio (cached separately per target).
  Result<TuneResult> tune(const std::string& field, const ArrayView& data,
                          double target_ratio) noexcept;

  /// Tune (cached) then compress \p data into the caller's reusable \p out.
  /// On the warm path the archive itself is the acceptance probe, so an
  /// in-band frame costs exactly one compression; retraining happens only
  /// when the cached bound's achieved ratio drifts out of the band.  An
  /// above-band bound that still lands above the band is kept, also at one
  /// compression.  When \p outcome is non-null it receives the
  /// bound/ratio/path of this call.
  Status compress(const std::string& field, const ArrayView& data, Buffer& out,
                  CompressOutcome* outcome = nullptr) noexcept;

  /// Seed \p field with \p bound unless it already carries one.
  /// \p achieved_ratio is what \p bound measured on data like the field's;
  /// the seed is flagged above-band when that landed above the band, as a
  /// search ending there would be.  The archive writer seeds a field's chunk
  /// keys from its chunk 0's outcome.
  Status seed(const std::string& field, double bound, double achieved_ratio) noexcept;

  /// Compress at an explicit error bound, bypassing tuning and cache.
  Status compress_at(double error_bound, const ArrayView& data, Buffer& out) noexcept;

  /// Decompress an archive produced by this Engine's backend.
  Result<NdArray> decompress(const std::uint8_t* data, std::size_t size) noexcept;

  /// Tune (cached) then run the full fidelity evaluation at the tuned bound.
  Result<pressio::FidelityReport> evaluate(const std::string& field,
                                           const ArrayView& data) noexcept;

  /// Bound carried for (field, default target), in band or above-band;
  /// 0 when none.
  double cached_bound(const std::string& field) const noexcept {
    return cached_bound(field, config_.tuner.target_ratio);
  }
  double cached_bound(const std::string& field, double target_ratio) const noexcept;

  /// Drop every cached bound (e.g. at a simulation restart).  Affects the
  /// adopted store — siblings sharing it forget too.
  void clear_cache() noexcept { bounds_->clear(); }

  /// Share warm-bound knowledge with sibling Engines: replace this Engine's
  /// store with \p store (non-null).  Existing entries of the old store are
  /// not migrated.
  void adopt_bound_store(BoundStorePtr store) noexcept;
  const BoundStorePtr& bound_store() const noexcept { return bounds_; }

  const EngineStats& stats() const noexcept { return stats_; }

  /// Per-field breakdown of the aggregate counters (empty until a field is
  /// tuned or compressed through this Engine).
  const std::map<std::string, EngineFieldStats>& field_stats() const noexcept {
    return field_stats_;
  }

private:
  /// Algorithm 1's acceptance test and Algorithm 3's carry rule: the one
  /// place either is decided, and the one place a tuning pass is booked in
  /// the stats.  \p at_carried holds \p carried.bound's ratio on this call's
  /// data (ignored when none is carried) and what measuring it cost the
  /// tuner: one probe for tune(), nothing when compress()'s archive was the
  /// measurement.  In band, the call is a plain warm hit and an above-band
  /// flag is cleared; flagged and still above the band, the bound is kept.
  /// Otherwise the bound is dropped and \p train searches, from the landing
  /// when a bound was carried (Tuner::retrain): an in-band result is
  /// carried, an above-band one carried flagged, one below carries nothing.
  /// Returns the settled result (from_prediction when no search ran).
  TuneResult settle(const std::string& field, double target, const CarriedBound& carried,
                    const TuneResult& at_carried, const std::function<TuneResult()>& train);

  EngineConfig config_;
  pressio::CompressorPtr compressor_;
  BoundStorePtr bounds_;  ///< carried bound per (field, target)
  EngineStats stats_;
  std::map<std::string, EngineFieldStats> field_stats_;
};

}  // namespace fraz

#endif  // FRAZ_ENGINE_ENGINE_HPP
