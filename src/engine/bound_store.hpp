#ifndef FRAZ_ENGINE_BOUND_STORE_HPP
#define FRAZ_ENGINE_BOUND_STORE_HPP

/// \file bound_store.hpp
/// The (field, target-ratio) -> carried-error-bound store — the paper's
/// Algorithm 3 warm-start state, extracted from Engine into a standalone,
/// thread-safe object so it can be SHARED.
///
/// The carry rule: a key holds the bound of the last search that landed in
/// the acceptance band, or — flagged above_band — the bound of a search that
/// ended above the band (no bound it tried compressed little enough).  A
/// flagged bound is kept without a search while it still lands above the
/// band; see Engine.
///
/// An Engine is deliberately not thread-safe (one per worker), but its warm
/// bounds are pure knowledge about the data: an archive writer gives every
/// per-worker Engine the same store, so every chunk — not only chunk 0 —
/// warm-starts from the freshest bound recorded for *its own* deterministic
/// key.  Because each consumer reads and writes its own keys, sharing never
/// makes results depend on worker scheduling.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "util/buffer.hpp"
#include "util/status.hpp"
#include "util/thread_annotations.hpp"

namespace fraz {

/// A carried bound and how the search that found it ended.
struct CarriedBound {
  double bound = 0;         ///< 0 when none is known
  bool above_band = false;  ///< that search ended above ρt(1+ε)
};

/// Thread-safe map of the carried error bound per (field, target).
class BoundStore {
public:
  /// Carried bound for the key, flagged or not; 0 when none is known.
  double get(const std::string& field, double target_ratio) const noexcept;

  /// Carried bound for the key together with its above-band flag.
  CarriedBound carried(const std::string& field, double target_ratio) const noexcept;

  /// Record \p bound, replacing the key's entry.  \p above_band marks a
  /// bound whose search ended above the band; a plain put (an in-band bound)
  /// clears the flag.  A non-positive \p bound is ignored.
  void put(const std::string& field, double target_ratio, double bound,
           bool above_band = false);

  /// Forget one key (e.g. a cached bound proven stale by a drift probe).
  void erase(const std::string& field, double target_ratio) noexcept;

  /// Forget everything (e.g. at a simulation restart).
  void clear() noexcept;

  std::size_t size() const noexcept;

  /// Serialize every in-band entry into \p out (cleared first): a
  /// self-framed block — magic 'FRzB', version, entry count, (field, target,
  /// bound) triples, trailing CRC-32.  Targets and bounds round-trip
  /// bit-exactly, so a restored campaign warm-starts from precisely the
  /// in-band bounds it saved.  Above-band entries are not saved: a restored
  /// campaign searches such a key once and carries it from then on.
  void serialize(Buffer& out) const;

  /// Replace this store's contents with a previously serialized block.
  /// Framing, checksum, or version failures come back as a Status and leave
  /// the store untouched; this never throws.
  Status deserialize(const std::uint8_t* data, std::size_t size) noexcept;

  /// serialize() to a file, so a restarted campaign can warm-start from the
  /// bounds of its previous run.  Filesystem failures come back as Status.
  Status save(const std::string& path) const noexcept;

  /// deserialize() from a file written by save().  A missing file is
  /// IoError; a corrupt one is CorruptStream; neither throws and neither
  /// modifies the store.
  Status load(const std::string& path) noexcept;

private:
  using Key = std::pair<std::string, double>;

  mutable Mutex mutex_;
  std::map<Key, CarriedBound> bounds_ FRAZ_GUARDED_BY(mutex_);
};

using BoundStorePtr = std::shared_ptr<BoundStore>;

}  // namespace fraz

#endif  // FRAZ_ENGINE_BOUND_STORE_HPP
