#ifndef FRAZ_PRESSIO_COMPRESSOR_HPP
#define FRAZ_PRESSIO_COMPRESSOR_HPP

/// \file compressor.hpp
/// The abstract compressor interface FRaZ tunes against.  This is the
/// reproduction of libpressio's role in the paper: one uniform API hides the
/// differences between SZ, ZFP, and MGARD so a single tuner implementation
/// treats every backend as a black box mapping (data, error bound) to a
/// compressed buffer.
///
/// CompressorV2 contract (this revision):
///  - the hot paths are **non-throwing**: `compress_into` / `decompress_into`
///    report failure as a Status value, so the tuner's inner search loop —
///    dozens of compress calls per tune — never pays for stack unwinding and
///    can treat failure as data;
///  - output is **zero-copy**: `compress_into` writes into a caller-owned,
///    grow-only Buffer whose capacity survives reuse, so the steady state of
///    repeated probing performs no per-call heap allocation for the archive;
///  - backends publish **capabilities()** so orchestration code (Engine,
///    CLI, deployment probes) can introspect dtype/rank support, thread
///    safety, and determinism without trial-and-error.

#include <cstdint>
#include <memory>
#include <string>

#include "ndarray/ndarray.hpp"
#include "pressio/options.hpp"
#include "util/buffer.hpp"
#include "util/status.hpp"

namespace fraz::pressio {

class Compressor;
using CompressorPtr = std::unique_ptr<Compressor>;

/// Static description of what a backend can do.  Returned by value from
/// capabilities(); cheap enough for setup-time introspection (not intended
/// for per-element hot loops).
struct Capabilities {
  /// Stable identifier, same as Compressor::name().
  std::string name;
  /// Implementation version of the backend ("1.0" for the built-ins).
  std::string version = "1.0";
  /// Supported array ranks, inclusive.
  std::size_t min_dims = 1;
  std::size_t max_dims = 3;
  /// Supported element types.
  bool supports_f32 = true;
  bool supports_f64 = true;
  /// True when one instance may be used from several threads concurrently.
  /// The built-ins are all false: FRaZ's orchestrator clones per worker, the
  /// same discipline the paper applies to SZ/MGARD's global state.
  bool thread_safe = false;
  /// True when identical (input, options) always produce identical bytes.
  bool deterministic = true;
  /// True when the backend honours set_error_bound as a pointwise absolute
  /// error guarantee (the property FRaZ's search relies on).
  bool error_bounded = true;
  /// True when decompression reproduces the input bit-exactly regardless of
  /// the bound (fpc).  Lossless backends have a flat ratio curve, so the
  /// tuner reports their fixed ratio instead of searching.
  bool lossless = false;
  /// True when an all-zero input compresses to the same size at every bound.
  /// The tuner then tunes all-zero data with one probe.  Otherwise, where
  /// that probe lands below the band, it also probes the top of the range:
  /// mgard codes its tolerance inside an LZ stream, and bound 1.0's bit
  /// pattern codes a byte shorter.
  bool zero_size_flat = false;
  /// True when the backend offers a blocked execution mode (block-local
  /// prediction state, per-group entropy streams) whose encode/decode can
  /// run intra-chunk parallel with thread-count-invariant bytes (sz's
  /// "<name>:mode=blocked" option).
  bool blocked_mode = false;

  /// Convenience probe: can the backend compress rank-\p dims data of \p t?
  bool supports(DType t, std::size_t dims) const noexcept {
    const bool dtype_ok = t == DType::kFloat32 ? supports_f32 : supports_f64;
    return dtype_ok && dims >= min_dims && dims <= max_dims;
  }
};

/// Abstract error-bounded compressor.
///
/// Thread-safety contract: unless capabilities().thread_safe says otherwise,
/// instances are NOT safe for concurrent use (the paper notes the same about
/// SZ/MGARD, whose C implementations use global state).  The parallel
/// orchestrator therefore gives each worker its own clone() — the same
/// discipline FRaZ applies by running each compression in its own
/// process/task.
class Compressor {
public:
  virtual ~Compressor() = default;

  /// Stable identifier ("sz", "zfp", "mgard").
  virtual std::string name() const = 0;

  /// Introspectable description of supported dtypes/ranks and behaviour.
  virtual Capabilities capabilities() const = 0;

  /// Snapshot of all published options.
  virtual Options get_options() const = 0;

  /// Apply a partial update; unknown keys in \p options are ignored unless
  /// they are namespaced to this compressor, in which case they must be valid
  /// (InvalidArgument otherwise).
  virtual void set_options(const Options& options) = 0;

  /// The single scalar knob FRaZ searches over.  For SZ/ZFP this is the
  /// absolute error bound; for MGARD it is the tolerance of the configured
  /// norm.
  virtual void set_error_bound(double bound) = 0;
  virtual double error_bound() const = 0;

  /// Capability probe: can this backend compress rank-\p dims data?
  bool supports_dims(std::size_t dims) const {
    const Capabilities c = capabilities();
    return dims >= c.min_dims && dims <= c.max_dims;
  }

  /// V2 hot path: compress \p input into the caller-owned \p out.  \p out is
  /// cleared first; its capacity is retained across calls (grow-only), so
  /// repeated probing against the same field reaches a zero-allocation
  /// steady state.  Never throws — failures come back as a non-ok Status.
  virtual Status compress_into(const ArrayView& input, Buffer& out) const noexcept = 0;

  /// V2 hot path: decompress a buffer this backend produced into \p out
  /// (replaced wholesale).  Never throws.
  virtual Status decompress_into(const std::uint8_t* data, std::size_t size,
                                 NdArray& out) const noexcept = 0;

  /// Deep copy with identical configuration (one per worker thread).
  virtual CompressorPtr clone() const = 0;
};

}  // namespace fraz::pressio

#endif  // FRAZ_PRESSIO_COMPRESSOR_HPP
