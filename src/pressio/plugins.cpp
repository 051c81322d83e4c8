#include <algorithm>
#include <cmath>
#include <memory>

#include "compressors/fpc/fpc.hpp"
#include "compressors/mgard/mgard.hpp"
#include "compressors/sz/sz.hpp"
#include "compressors/szx/szx.hpp"
#include "compressors/truncate/truncate.hpp"
#include "compressors/zfp/zfp.hpp"
#include "pressio/registry.hpp"
#include "util/error.hpp"

/// \file plugins.cpp
/// Built-in compressor plugins bridging the from-scratch codecs to the uniform
/// pressio interface, plus the process-wide registry.  Each V2 entry point
/// runs its validating, throwing codec through guarded() (util/status.hpp).

namespace fraz::pressio {

namespace {

// ---------------------------------------------------------------- SZ plugin
class SzPlugin final : public Compressor {
public:
  std::string name() const override { return "sz"; }

  Capabilities capabilities() const override {
    Capabilities c;
    c.name = "sz";
    c.min_dims = 1;
    c.max_dims = 3;
    c.blocked_mode = true;
    c.zero_size_flat = true;
    return c;
  }

  Options get_options() const override {
    return Options{
        {"sz:error_bound", opt_.error_bound},
        {"sz:regression", opt_.regression},
        {"sz:mode", std::string(opt_.mode == SzMode::kBlocked ? "blocked" : "serial")},
        {"sz:threads", static_cast<std::int64_t>(opt_.threads)}};
  }

  void set_options(const Options& options) override {
    if (options.contains("sz:error_bound")) {
      const double e = options.get<double>("sz:error_bound");
      require(e > 0, "sz:error_bound must be positive");
      opt_.error_bound = e;
    }
    if (options.contains("sz:regression"))
      opt_.regression = options.get<bool>("sz:regression");
    if (options.contains("sz:mode")) {
      const auto mode = options.get<std::string>("sz:mode");
      if (mode == "serial")
        opt_.mode = SzMode::kSerial;
      else if (mode == "blocked")
        opt_.mode = SzMode::kBlocked;
      else
        throw InvalidArgument("sz:mode must be 'serial' or 'blocked'");
    }
    if (options.contains("sz:threads")) {
      const auto threads = options.get<std::int64_t>("sz:threads");
      require(threads >= 0 && threads <= 1024, "sz:threads must be in [0, 1024]");
      opt_.threads = static_cast<unsigned>(threads);
    }
  }

  void set_error_bound(double bound) override {
    require(bound > 0, "sz: error bound must be positive");
    opt_.error_bound = bound;
  }
  double error_bound() const override { return opt_.error_bound; }

  Status compress_into(const ArrayView& input, Buffer& out) const noexcept override {
    return guarded([&] { sz_compress_into(input, opt_, out); });
  }

  Status decompress_into(const std::uint8_t* data, std::size_t size,
                         NdArray& out) const noexcept override {
    // sz:threads caps intra-chunk parallelism for v2 (blocked) frames; v1
    // frames ignore it.  Either configured mode decodes both formats.
    return guarded([&] { out = sz_decompress(data, size, opt_.threads); });
  }

  CompressorPtr clone() const override { return std::make_unique<SzPlugin>(*this); }

private:
  SzOptions opt_;
};

// --------------------------------------------------------------- ZFP plugin
class ZfpPlugin final : public Compressor {
public:
  std::string name() const override { return "zfp"; }

  Capabilities capabilities() const override {
    Capabilities c;
    c.name = "zfp";
    c.min_dims = 1;
    c.max_dims = 3;
    // Fixed-rate mode bounds the *rate*, not the pointwise error; only the
    // accuracy mode (which FRaZ tunes) is error-bounded.
    c.error_bounded = opt_.mode == ZfpMode::kAccuracy;
    c.zero_size_flat = true;
    return c;
  }

  Options get_options() const override {
    return Options{
        {"zfp:mode", std::string(opt_.mode == ZfpMode::kAccuracy ? "accuracy" : "rate")},
        {"zfp:tolerance", opt_.tolerance},
        {"zfp:rate", opt_.rate}};
  }

  void set_options(const Options& options) override {
    if (options.contains("zfp:mode")) {
      const auto mode = options.get<std::string>("zfp:mode");
      if (mode == "accuracy")
        opt_.mode = ZfpMode::kAccuracy;
      else if (mode == "rate")
        opt_.mode = ZfpMode::kFixedRate;
      else
        throw InvalidArgument("zfp:mode must be 'accuracy' or 'rate'");
    }
    if (options.contains("zfp:tolerance")) {
      const double t = options.get<double>("zfp:tolerance");
      require(t > 0, "zfp:tolerance must be positive");
      opt_.tolerance = t;
    }
    if (options.contains("zfp:rate")) {
      const double r = options.get<double>("zfp:rate");
      require(r > 0, "zfp:rate must be positive");
      opt_.rate = r;
    }
  }

  /// FRaZ tunes ZFP through its fixed-accuracy mode (the paper's approach:
  /// the built-in fixed-rate mode is the *baseline*, not the tuned target).
  void set_error_bound(double bound) override {
    require(bound > 0, "zfp: error bound must be positive");
    opt_.tolerance = bound;
  }
  double error_bound() const override { return opt_.tolerance; }

  Status compress_into(const ArrayView& input, Buffer& out) const noexcept override {
    return guarded([&] { zfp_compress_into(input, opt_, out); });
  }

  Status decompress_into(const std::uint8_t* data, std::size_t size,
                         NdArray& out) const noexcept override {
    return guarded([&] { out = zfp_decompress(data, size); });
  }

  CompressorPtr clone() const override { return std::make_unique<ZfpPlugin>(*this); }

private:
  ZfpOptions opt_;
};

// ------------------------------------------------------------- MGARD plugin
class MgardPlugin final : public Compressor {
public:
  std::string name() const override { return "mgard"; }

  Capabilities capabilities() const override {
    Capabilities c;
    c.name = "mgard";
    // The paper excludes MGARD from 1D (HACC/EXAALT) data.
    c.min_dims = 2;
    c.max_dims = 3;
    // The L2 mode targets mean squared error, not a pointwise bound.
    c.error_bounded = opt_.norm == MgardNorm::kInfinity;
    return c;
  }

  Options get_options() const override {
    return Options{
        {"mgard:norm", std::string(opt_.norm == MgardNorm::kInfinity ? "infinity" : "l2")},
        {"mgard:tolerance", opt_.tolerance}};
  }

  void set_options(const Options& options) override {
    if (options.contains("mgard:norm")) {
      const auto norm = options.get<std::string>("mgard:norm");
      if (norm == "infinity")
        opt_.norm = MgardNorm::kInfinity;
      else if (norm == "l2")
        opt_.norm = MgardNorm::kL2;
      else
        throw InvalidArgument("mgard:norm must be 'infinity' or 'l2'");
    }
    if (options.contains("mgard:tolerance")) {
      const double t = options.get<double>("mgard:tolerance");
      require(t > 0, "mgard:tolerance must be positive");
      opt_.tolerance = t;
    }
  }

  void set_error_bound(double bound) override {
    require(bound > 0, "mgard: error bound must be positive");
    opt_.tolerance = bound;
  }
  double error_bound() const override { return opt_.tolerance; }

  Status compress_into(const ArrayView& input, Buffer& out) const noexcept override {
    return guarded([&] { mgard_compress_into(input, opt_, out); });
  }

  Status decompress_into(const std::uint8_t* data, std::size_t size,
                         NdArray& out) const noexcept override {
    return guarded([&] { out = mgard_decompress(data, size); });
  }

  CompressorPtr clone() const override { return std::make_unique<MgardPlugin>(*this); }

private:
  MgardOptions opt_;
};

// ---------------------------------------------------------- truncate plugin
//
// The paper-intro strawman, wrapped as a tunable backend: the error bound is
// mapped to kept bits via the value magnitude (truncating m mantissa bits of
// v costs at most |v| * 2^-m), so the absolute bound is honoured —
// conservatively, with the blunt quality the paper's Fig. 1 criticism of
// non-error-bounded fixed-rate schemes predicts.
class TruncatePlugin final : public Compressor {
public:
  std::string name() const override { return "truncate"; }

  Capabilities capabilities() const override {
    Capabilities c;
    c.name = "truncate";
    c.min_dims = 1;
    c.max_dims = 3;
    // The bound->bits mapping is conservative, but with explicitly fixed
    // bits the coder offers no error control at all (the paper's strawman).
    c.error_bounded = fixed_bits_ == 0;
    c.zero_size_flat = true;
    return c;
  }

  Options get_options() const override {
    return Options{{"truncate:bits", static_cast<std::int64_t>(fixed_bits_)},
                   {"truncate:error_bound", bound_}};
  }

  void set_options(const Options& options) override {
    if (options.contains("truncate:bits")) {
      const auto bits = options.get<std::int64_t>("truncate:bits");
      require(bits >= 0 && bits <= 64, "truncate:bits must be in [0, 64] (0 = from bound)");
      fixed_bits_ = static_cast<unsigned>(bits);
    }
    if (options.contains("truncate:error_bound")) {
      const double e = options.get<double>("truncate:error_bound");
      require(e > 0, "truncate:error_bound must be positive");
      bound_ = e;
    }
  }

  void set_error_bound(double bound) override {
    require(bound > 0, "truncate: error bound must be positive");
    bound_ = bound;
    fixed_bits_ = 0;  // derive from the bound again
  }
  double error_bound() const override { return bound_; }

  Status compress_into(const ArrayView& input, Buffer& out) const noexcept override {
    return guarded([&] {
      TruncateOptions opt;
      opt.bits = fixed_bits_ != 0 ? fixed_bits_ : bits_for_bound(input);
      truncate_compress_into(input, opt, out);
    });
  }

  Status decompress_into(const std::uint8_t* data, std::size_t size,
                         NdArray& out) const noexcept override {
    return guarded([&] { out = truncate_decompress(data, size); });
  }

  CompressorPtr clone() const override { return std::make_unique<TruncatePlugin>(*this); }

private:
  /// Kept bits meeting the absolute bound: sign + exponent + m mantissa bits
  /// with maxabs * 2^-m <= bound.
  unsigned bits_for_bound(const ArrayView& input) const {
    const unsigned width = static_cast<unsigned>(dtype_size(input.dtype())) * 8;
    const unsigned ebits = input.dtype() == DType::kFloat32 ? 8 : 11;
    const double maxabs = max_abs(input);
    if (maxabs <= bound_) return 1 + ebits;  // exponent alone suffices
    const double m = std::ceil(std::log2(maxabs / bound_));
    const auto mantissa = static_cast<unsigned>(std::max(m, 0.0));
    return std::min(width, 1 + ebits + mantissa);
  }

  double bound_ = 1e-3;
  unsigned fixed_bits_ = 0;
};

// ----------------------------------------------------------- SZx plugin
//
// The ultra-fast tier: one blockwise streaming pass, no prediction or
// entropy stage (see szx.hpp).  Stateless per call, hence thread_safe.
class SzxPlugin final : public Compressor {
public:
  std::string name() const override { return "szx"; }

  Capabilities capabilities() const override {
    Capabilities c;
    c.name = "szx";
    c.min_dims = 1;
    c.max_dims = 8;  // block layout is rank-agnostic (flat 1D blocks)
    c.thread_safe = true;
    c.zero_size_flat = true;
    return c;
  }

  Options get_options() const override {
    return Options{{"szx:error_bound", opt_.error_bound}};
  }

  void set_options(const Options& options) override {
    if (options.contains("szx:error_bound")) {
      const double e = options.get<double>("szx:error_bound");
      require(e > 0, "szx:error_bound must be positive");
      opt_.error_bound = e;
    }
  }

  void set_error_bound(double bound) override {
    require(bound > 0, "szx: error bound must be positive");
    opt_.error_bound = bound;
  }
  double error_bound() const override { return opt_.error_bound; }

  Status compress_into(const ArrayView& input, Buffer& out) const noexcept override {
    return guarded([&] { szx_compress_into(input, opt_, out); });
  }

  Status decompress_into(const std::uint8_t* data, std::size_t size,
                         NdArray& out) const noexcept override {
    return guarded([&] { out = szx_decompress(data, size); });
  }

  CompressorPtr clone() const override { return std::make_unique<SzxPlugin>(*this); }

private:
  SzxOptions opt_;
};

// ----------------------------------------------------------- FPC plugin
//
// Lossless fast path for hard-to-compress floats.  Any error bound is
// trivially honoured (error_bounded stays true); the lossless flag tells the
// tuner the ratio curve is flat, so a search degenerates to one probe.
class FpcPlugin final : public Compressor {
public:
  std::string name() const override { return "fpc"; }

  Capabilities capabilities() const override {
    Capabilities c;
    c.name = "fpc";
    c.min_dims = 1;
    c.max_dims = 8;  // predictor stream is rank-agnostic
    c.thread_safe = true;
    c.lossless = true;
    c.zero_size_flat = true;
    return c;
  }

  Options get_options() const override {
    return Options{{"fpc:table_bits", static_cast<std::int64_t>(opt_.table_bits)}};
  }

  void set_options(const Options& options) override {
    if (options.contains("fpc:table_bits")) {
      const auto bits = options.get<std::int64_t>("fpc:table_bits");
      require(bits >= 8 && bits <= 20, "fpc:table_bits must be in [8, 20]");
      opt_.table_bits = static_cast<unsigned>(bits);
    }
  }

  /// Accepted and ignored: reconstruction is exact, so every positive bound
  /// holds.  Rejecting non-positive bounds keeps the tuner contract uniform.
  void set_error_bound(double bound) override {
    require(bound > 0, "fpc: error bound must be positive");
    bound_ = bound;
  }
  double error_bound() const override { return bound_; }

  Status compress_into(const ArrayView& input, Buffer& out) const noexcept override {
    return guarded([&] { fpc_compress_into(input, opt_, out); });
  }

  Status decompress_into(const std::uint8_t* data, std::size_t size,
                         NdArray& out) const noexcept override {
    return guarded([&] { out = fpc_decompress(data, size); });
  }

  CompressorPtr clone() const override { return std::make_unique<FpcPlugin>(*this); }

private:
  FpcOptions opt_;
  double bound_ = 1e-3;
};

}  // namespace

void Registry::register_factory(const std::string& name, Factory factory) {
  require(!factories_.count(name), "Registry: duplicate compressor '" + name + "'");
  factories_[name] = std::move(factory);
}

CompressorPtr Registry::create(const std::string& name) const {
  auto it = factories_.find(name);
  if (it == factories_.end()) throw Unsupported("Registry: unknown compressor '" + name + "'");
  return it->second();
}

CompressorPtr Registry::create(const std::string& name, const Options& options) const {
  CompressorPtr c = create(name);
  c->set_options(options);
  return c;
}

Result<CompressorPtr> Registry::try_create(const std::string& name,
                                           const Options& options) const noexcept {
  return guarded([&] { return create(name, options); });
}

bool Registry::contains(const std::string& name) const { return factories_.count(name) != 0; }

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, f] : factories_) out.push_back(name);
  return out;
}

Registry& registry() {
  static Registry r = [] {
    Registry reg;
    reg.register_factory("sz", [] { return std::make_unique<SzPlugin>(); });
    reg.register_factory("zfp", [] { return std::make_unique<ZfpPlugin>(); });
    reg.register_factory("mgard", [] { return std::make_unique<MgardPlugin>(); });
    reg.register_factory("truncate", [] { return std::make_unique<TruncatePlugin>(); });
    reg.register_factory("szx", [] { return std::make_unique<SzxPlugin>(); });
    reg.register_factory("fpc", [] { return std::make_unique<FpcPlugin>(); });
    return reg;
  }();
  return r;
}

}  // namespace fraz::pressio
