/// Micro-benchmarks and CI regression gates for the compressor backends and
/// their vectorized hot kernels.
///
/// Section 1 — backend bandwidth: compress / decompress MB/s for every
/// registered backend on one smooth synthetic field (the shape the paper's
/// Hurricane fields take locally).  The tentpole claim gated here: an szx
/// probe costs an order of magnitude less than an sz probe, so the `--check`
/// floor is szx compress bandwidth >= 4.5x sz compress bandwidth (§VI-B.3's
/// "ZFP compresses faster than SZ" observation stays visible alongside).
///
/// Section 2 — blocked sz vs serial sz: the PR-10 tentpole gate.  The
/// blocked v2 pipeline (block-local prediction, fused quantize+entropy,
/// 8-way interleaved rANS) against the serial v1 chain on an L2-spilling 3D
/// working set — the regime where the serial Lorenzo feedback and the
/// single-state rANS chain dominate.  Blocked runs at 1 thread and at
/// N = min(8, hardware threads); output byte-identity across the two is
/// asserted before timing (the gate must never reward a pipeline that
/// trades determinism for speed).  Absolute MB/s of all three compress runs
/// is printed; `--check` gates the 1-thread algorithmic speedup over
/// serial, the N-thread scaling over 1 thread, and blocked decompress >= 2x
/// serial at N threads.
///
/// Section 3 — probe regime: what the tuner actually runs.  Serial sz on one
/// chunk-shaped 3D input (2 planes of the hurricane TCf field) at 24
/// log-spaced bounds; MB/s over the sweep and the CRC of its frames are
/// printed and recorded, not gated.
///
/// Section 4 — kernel speedups: each SIMD kernel against its scalar
/// reference on identical inputs, with the bit-identity contract asserted
/// before timing (a bench that gates speed on diverging outputs would gate
/// nothing).  `--check` enforces >= 1.5x per kernel, only when the vector
/// path is actually active on this host; scalar-only builds skip the gates
/// rather than fail them.
///
/// Output ends with one JSON line; `--smoke` shrinks sizes for CI.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "codec/checksum.hpp"
#include "compressors/fpc/fpc.hpp"
#include "compressors/mgard/mgard.hpp"
#include "compressors/sz/sz.hpp"
#include "compressors/sz/sz_kernels.hpp"
#include "compressors/szx/szx.hpp"
#include "compressors/szx/szx_kernels.hpp"
#include "compressors/truncate/truncate.hpp"
#include "compressors/zfp/transform.hpp"
#include "compressors/zfp/transform_kernels.hpp"
#include "compressors/zfp/zfp.hpp"
#include "util/rng.hpp"

namespace {

using namespace fraz;

/// Keep a result alive without google-benchmark's DoNotOptimize.
inline void keep(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

/// Best-of-reps wall time of \p fn, with one untimed warm-up call.
template <typename Fn>
double best_seconds(unsigned reps, Fn&& fn) {
  fn();
  double best = 1e300;
  for (unsigned r = 0; r < reps; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

/// The smooth synthetic field: a product of sinusoids, the locally-linear
/// shape SZ's Lorenzo/regression predictors and szx's constant blocks both
/// thrive on — the regime where probe cost differences matter most.
NdArray smooth_field(std::size_t rows, std::size_t cols) {
  NdArray f(DType::kFloat32, {rows, cols});
  auto* p = static_cast<float*>(f.data());
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j)
      p[i * cols + j] = static_cast<float>(
          40.0 * std::sin(0.02 * static_cast<double>(i)) *
          std::cos(0.03 * static_cast<double>(j)));
  return f;
}

struct BackendResult {
  double compress_mbps = 0;
  double decompress_mbps = 0;
  double ratio = 0;
};

/// One backend's bandwidth via its direct API (no engine/tuner overhead —
/// this is the per-probe cost the tuner multiplies).
template <typename CompressFn, typename DecompressFn>
BackendResult run_backend(const NdArray& field, unsigned reps, CompressFn&& compress,
                          DecompressFn&& decompress) {
  const auto mb = static_cast<double>(field.size_bytes()) / 1e6;
  Buffer sealed;
  compress(field.view(), sealed);
  BackendResult result;
  result.ratio = static_cast<double>(field.size_bytes()) / static_cast<double>(sealed.size());
  result.compress_mbps = mb / best_seconds(reps, [&] {
    Buffer bytes;
    compress(field.view(), bytes);
    keep(bytes.data());
  });
  result.decompress_mbps = mb / best_seconds(reps, [&] {
    NdArray out = decompress(sealed.data(), sealed.size());
    keep(out.data());
  });
  return result;
}

struct KernelResult {
  double scalar_mbps = 0;
  double vector_mbps = 0;
  double speedup = 0;
  bool active = false;  ///< vector path dispatchable on this host
};

void print_kernel(const char* name, const KernelResult& k) {
  std::printf("%-22s %10.0f %10.0f %8.2fx %s\n", name, k.scalar_mbps, k.vector_mbps,
              k.speedup, k.active ? "" : "(vector path inactive)");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fraz;
  Cli cli("compressor backends + SIMD kernel micro-benchmarks");
  cli.add_int("rows", 512, "field rows");
  cli.add_int("cols", 512, "field columns");
  cli.add_int("reps", 9, "timed repetitions (best counts)");
  cli.add_flag("smoke", "tiny fast run for CI (overrides rows/cols/reps)");
  cli.add_flag("check", "exit nonzero unless szx compresses >= 4.5x faster than sz, "
                        "blocked sz clears 1.6x serial compress at 1 thread, 0.85x its "
                        "1-thread compress at N threads and 2x serial decompress, "
                        "and every active SIMD kernel clears 1.5x its scalar ref");
  if (!cli.parse(argc, argv)) return 0;

  const bool smoke = cli.get_flag("smoke");
  const auto rows = static_cast<std::size_t>(smoke ? 192 : cli.get_int("rows"));
  const auto cols = static_cast<std::size_t>(smoke ? 192 : cli.get_int("cols"));
  const auto reps = static_cast<unsigned>(smoke ? 5 : cli.get_int("reps"));

  bench::banner("micro-compressors",
                "backend compress/decompress bandwidth + SIMD kernel speedups",
                "szx probes ~an order of magnitude cheaper than sz; vector kernels "
                "beat their scalar references");

  const NdArray field = smooth_field(rows, cols);
  const double bound = value_range(field.view()) * 1e-3;

  // ------------------------------------------------------------- backends
  struct Entry {
    const char* name;
    BackendResult r;
  };
  std::vector<Entry> backends;
  {
    SzOptions opt;
    opt.error_bound = bound;
    backends.push_back({"sz", run_backend(field, reps,
        [&](const ArrayView& v, Buffer& out) { sz_compress_into(v, opt, out); },
        [](const std::uint8_t* data, std::size_t size) { return sz_decompress(data, size); })});
  }
  {
    SzxOptions opt;
    opt.error_bound = bound;
    backends.push_back({"szx", run_backend(field, reps,
        [&](const ArrayView& v, Buffer& out) { szx_compress_into(v, opt, out); },
        [](const std::uint8_t* data, std::size_t size) { return szx_decompress(data, size); })});
  }
  {
    FpcOptions opt;
    backends.push_back({"fpc", run_backend(field, reps,
        [&](const ArrayView& v, Buffer& out) { fpc_compress_into(v, opt, out); },
        [](const std::uint8_t* data, std::size_t size) { return fpc_decompress(data, size); })});
  }
  {
    ZfpOptions opt;
    opt.tolerance = bound;
    backends.push_back({"zfp", run_backend(field, reps,
        [&](const ArrayView& v, Buffer& out) { zfp_compress_into(v, opt, out); },
        [](const std::uint8_t* data, std::size_t size) { return zfp_decompress(data, size); })});
  }
  {
    MgardOptions opt;
    opt.tolerance = bound;
    backends.push_back({"mgard", run_backend(field, reps,
        [&](const ArrayView& v, Buffer& out) { mgard_compress_into(v, opt, out); },
        [](const std::uint8_t* data, std::size_t size) { return mgard_decompress(data, size); })});
  }
  {
    TruncateOptions opt;
    opt.bits = 16;
    backends.push_back({"truncate", run_backend(field, reps,
        [&](const ArrayView& v, Buffer& out) { truncate_compress_into(v, opt, out); },
        [](const std::uint8_t* data, std::size_t size) { return truncate_decompress(data, size); })});
  }

  std::printf("%-9s %14s %16s %8s\n", "backend", "compress_MB/s", "decompress_MB/s",
              "ratio");
  for (const Entry& e : backends)
    std::printf("%-9s %14.0f %16.0f %8.2f\n", e.name, e.r.compress_mbps,
                e.r.decompress_mbps, e.r.ratio);

  const double sz_mbps = backends[0].r.compress_mbps;
  const double szx_mbps = backends[1].r.compress_mbps;
  const double szx_vs_sz = sz_mbps > 0 ? szx_mbps / sz_mbps : 0;
  std::printf("szx/sz compress speedup: %.1fx\n\n", szx_vs_sz);

  // ------------------------------------------------ blocked sz vs serial sz
  // L2-spilling 3D cube (5.6 MB full / 2 MB smoke): big enough that both
  // pipelines stream from L3/DRAM, the regime the blocked mode targets.
  const std::size_t edge = smoke ? 80 : 112;
  NdArray cube(DType::kFloat32, {edge, edge, edge});
  {
    auto* p = static_cast<float*>(cube.data());
    const std::size_t cube_n = edge * edge * edge;
    for (std::size_t i = 0; i < cube_n; ++i)
      p[i] = static_cast<float>(40.0 * std::sin(0.002 * static_cast<double>(i)));
  }
  const double cube_mb = static_cast<double>(cube.size_bytes()) / 1e6;
  SzOptions serial_opt;
  serial_opt.error_bound = 1e-2;
  SzOptions blocked_opt = serial_opt;
  blocked_opt.mode = SzMode::kBlocked;
  // Never more threads than the host has cores: an oversubscribed run
  // measures the scheduler, not the pipeline.
  blocked_opt.threads = std::min(8u, std::max(1u, std::thread::hardware_concurrency()));
  SzOptions blocked_one = blocked_opt;
  blocked_one.threads = 1;

  Buffer serial_frame, blocked_frame;
  sz_compress_into(cube.view(), serial_opt, serial_frame);
  sz_compress_into(cube.view(), blocked_opt, blocked_frame);
  // Determinism before speed: the N-thread frame must match the 1-thread
  // frame byte for byte, or the speedups below gate nothing.
  {
    Buffer single;
    sz_compress_into(cube.view(), blocked_one, single);
    if (single.size() != blocked_frame.size() ||
        std::memcmp(single.data(), blocked_frame.data(), single.size()) != 0) {
      std::fprintf(stderr, "FAIL: blocked sz output differs across thread counts\n");
      return 1;
    }
  }
  // Both sides of each ratio gate are best-of at least 9: the blocked
  // 1-thread run is the noisiest of the three on a shared host.
  const unsigned cube_reps = std::max(reps, 9u);
  const auto compress_mbps = [&](const SzOptions& opt) {
    return cube_mb / best_seconds(cube_reps, [&] {
      Buffer b;
      sz_compress_into(cube.view(), opt, b);
      keep(b.data());
    });
  };
  const double serial_compress_mbps = compress_mbps(serial_opt);
  const double blocked1_compress_mbps = compress_mbps(blocked_one);
  const double blocked_compress_mbps = compress_mbps(blocked_opt);
  const double serial_decompress_mbps = cube_mb / best_seconds(cube_reps, [&] {
    NdArray a = sz_decompress(serial_frame.data(), serial_frame.size());
    keep(a.data());
  });
  const double blocked_decompress_mbps = cube_mb / best_seconds(cube_reps, [&] {
    NdArray a = sz_decompress(blocked_frame.data(), blocked_frame.size(), blocked_opt.threads);
    keep(a.data());
  });
  const double algorithmic_speedup =
      serial_compress_mbps > 0 ? blocked1_compress_mbps / serial_compress_mbps : 0;
  const double scaling_speedup =
      blocked1_compress_mbps > 0 ? blocked_compress_mbps / blocked1_compress_mbps : 0;
  const double blocked_decompress_speedup =
      serial_decompress_mbps > 0 ? blocked_decompress_mbps / serial_decompress_mbps : 0;
  std::printf("%-12s %7s %14s %16s\n", "sz mode", "threads", "compress_MB/s",
              "decompress_MB/s");
  std::printf("%-12s %7u %14.0f %16.0f\n", "serial", 1u, serial_compress_mbps,
              serial_decompress_mbps);
  std::printf("%-12s %7u %14.0f %16s\n", "blocked", 1u, blocked1_compress_mbps, "-");
  std::printf("%-12s %7u %14.0f %16.0f\n", "blocked", blocked_opt.threads,
              blocked_compress_mbps, blocked_decompress_mbps);
  std::printf("blocked compress: 1-thread/serial %.2fx, %u-thread/1-thread %.2fx; "
              "blocked/serial decompress %.2fx\n\n",
              algorithmic_speedup, blocked_opt.threads, scaling_speedup,
              blocked_decompress_speedup);

  // --------------------------------------------------------- probe regime
  // The smooth 2D field above sits at ratio ~24, where prediction is cheap;
  // a tuner probe is a small 3D chunk (the perfbench campaign packs 2-plane
  // chunks of 128x128) compressed at whatever bound the search tries, from
  // escape-heavy to near-constant code streams.  Same input in --smoke.
  data::FieldSpec probe_spec =
      data::field_by_name(data::dataset_by_name("hurricane"), "TCf");
  probe_spec.shape = {2, 128, 128};
  const NdArray probe_chunk = data::generate_field(probe_spec, 0);
  const double probe_range = value_range(probe_chunk.view());
  constexpr int kProbeBounds = 24;
  std::vector<std::uint32_t> probe_crcs(kProbeBounds);
  const double probe_mbps =
      kProbeBounds * static_cast<double>(probe_chunk.size_bytes()) / 1e6 /
      best_seconds(reps, [&] {
        for (int b = 0; b < kProbeBounds; ++b) {
          SzOptions opt;
          opt.error_bound = probe_range * std::pow(10.0, -6.0 + 5.0 * b / (kProbeBounds - 1));
          Buffer frame;
          sz_compress_into(probe_chunk.view(), opt, frame);
          probe_crcs[static_cast<std::size_t>(b)] = crc32(frame.data(), frame.size());
        }
      });
  const std::uint32_t probe_crc =
      crc32(reinterpret_cast<const std::uint8_t*>(probe_crcs.data()), kProbeBounds * 4);
  std::printf("probe regime: serial sz on a 2x128x128 hurricane chunk at %d bounds "
              "(1e-6..1e-1 x range): %.0f MB/s, frames crc %08x\n\n",
              kProbeBounds, probe_mbps, probe_crc);

  // -------------------------------------------------------------- kernels
  // Inputs sized in whole szx blocks / sz runs / zfp blocks; identical
  // buffers feed the scalar and vector paths and outputs are compared
  // byte-for-byte before anything is timed.  The working set stays
  // L2-resident on purpose: a DRAM-bound sweep measures memory bandwidth,
  // and the compute speedup the dispatch decision rests on disappears into
  // it (dequantize drops from ~1.8x to ~1.2x at 4 MB).
  const std::size_t n = 1u << 16;
  // Kernel timings are microseconds each; more repetitions cost nothing and
  // tighten the best-of estimate the 1.5x gate compares.
  const unsigned kreps = 15;
  std::vector<float> data(n);
  for (std::size_t i = 0; i < n; ++i)
    data[i] = static_cast<float>(40.0 * std::sin(0.002 * static_cast<double>(i)));
  const double mb = static_cast<double>(n * sizeof(float)) / 1e6;
  const double e = 1e-2, twoe = 2 * e;

  struct Named {
    const char* name;
    KernelResult r;
  };
  std::vector<Named> kernels;
  bool identical = true;

  {  // szx block kernels (128-element blocks)
    const bool active = szxk::simd_active();
    std::vector<std::uint32_t> qs(n), qv(n);
    std::vector<float> ds(n), dv(n);
    double base_min = 1e300;
    for (std::size_t b = 0; b + szxk::kBlock <= n; b += szxk::kBlock) {
      const auto ss = szxk::block_stats_scalar(data.data() + b, szxk::kBlock);
      const auto sv = active ? szxk::block_stats_vec(data.data() + b, szxk::kBlock) : ss;
      identical = identical && ss.min == sv.min && ss.max == sv.max &&
                  ss.all_finite == sv.all_finite;
      base_min = std::min(base_min, ss.min);
      szxk::quantize_scalar(data.data() + b, szxk::kBlock, ss.min, twoe, e, qs.data() + b);
      if (active)
        szxk::quantize_vec(data.data() + b, szxk::kBlock, ss.min, twoe, e, qv.data() + b);
      szxk::dequantize_scalar(qs.data() + b, szxk::kBlock, ss.min, twoe, ds.data() + b);
      if (active)
        szxk::dequantize_vec(qs.data() + b, szxk::kBlock, ss.min, twoe, dv.data() + b);
    }
    identical = identical && (!active || (std::memcmp(qs.data(), qv.data(), n * 4) == 0 &&
                                          std::memcmp(ds.data(), dv.data(), n * 4) == 0));

    KernelResult stats, quant, dequant;
    stats.active = quant.active = dequant.active = active;
    stats.scalar_mbps = mb / best_seconds(kreps, [&] {
      double acc = 0;
      for (std::size_t b = 0; b + szxk::kBlock <= n; b += szxk::kBlock)
        acc += szxk::block_stats_scalar(data.data() + b, szxk::kBlock).min;
      keep(&acc);
    });
    quant.scalar_mbps = mb / best_seconds(kreps, [&] {
      for (std::size_t b = 0; b + szxk::kBlock <= n; b += szxk::kBlock)
        szxk::quantize_scalar(data.data() + b, szxk::kBlock, base_min, twoe, e,
                              qs.data() + b);
      keep(qs.data());
    });
    dequant.scalar_mbps = mb / best_seconds(kreps, [&] {
      for (std::size_t b = 0; b + szxk::kBlock <= n; b += szxk::kBlock)
        szxk::dequantize_scalar(qs.data() + b, szxk::kBlock, base_min, twoe, ds.data() + b);
      keep(ds.data());
    });
    if (active) {
      stats.vector_mbps = mb / best_seconds(kreps, [&] {
        double acc = 0;
        for (std::size_t b = 0; b + szxk::kBlock <= n; b += szxk::kBlock)
          acc += szxk::block_stats_vec(data.data() + b, szxk::kBlock).min;
        keep(&acc);
      });
      quant.vector_mbps = mb / best_seconds(kreps, [&] {
        for (std::size_t b = 0; b + szxk::kBlock <= n; b += szxk::kBlock)
          szxk::quantize_vec(data.data() + b, szxk::kBlock, base_min, twoe, e,
                             qv.data() + b);
        keep(qv.data());
      });
      dequant.vector_mbps = mb / best_seconds(kreps, [&] {
        for (std::size_t b = 0; b + szxk::kBlock <= n; b += szxk::kBlock)
          szxk::dequantize_vec(qs.data() + b, szxk::kBlock, base_min, twoe, dv.data() + b);
        keep(dv.data());
      });
    }
    stats.speedup = stats.scalar_mbps > 0 ? stats.vector_mbps / stats.scalar_mbps : 0;
    quant.speedup = quant.scalar_mbps > 0 ? quant.vector_mbps / quant.scalar_mbps : 0;
    dequant.speedup =
        dequant.scalar_mbps > 0 ? dequant.vector_mbps / dequant.scalar_mbps : 0;
    kernels.push_back({"szx.block_stats", stats});
    kernels.push_back({"szx.quantize", quant});
    kernels.push_back({"szx.dequantize", dequant});
  }

  {  // sz regression-run kernels (32-element runs)
    const bool active = szk::simd_active();
    constexpr std::size_t kRun = 32;
    std::vector<std::uint32_t> cs(n), cv(n);
    std::vector<float> rs(n), rv(n);
    const double pred_step = 0.01;
    for (std::size_t b = 0; b + kRun <= n; b += kRun) {
      const double pred_base = static_cast<double>(data[b]);
      const auto es = szk::quantize_run_scalar(data.data() + b, kRun, pred_base, pred_step,
                                               twoe, e, cs.data() + b, rs.data() + b);
      if (active) {
        const auto ev = szk::quantize_run_vec(data.data() + b, kRun, pred_base, pred_step,
                                              twoe, e, cv.data() + b, rv.data() + b);
        identical = identical && es == ev;
      }
    }
    identical = identical && (!active || (std::memcmp(cs.data(), cv.data(), n * 4) == 0 &&
                                          std::memcmp(rs.data(), rv.data(), n * 4) == 0));

    KernelResult quant, recon;
    quant.active = recon.active = active;
    quant.scalar_mbps = mb / best_seconds(kreps, [&] {
      for (std::size_t b = 0; b + kRun <= n; b += kRun)
        szk::quantize_run_scalar(data.data() + b, kRun, static_cast<double>(data[b]),
                                 pred_step, twoe, e, cs.data() + b, rs.data() + b);
      keep(cs.data());
    });
    recon.scalar_mbps = mb / best_seconds(kreps, [&] {
      for (std::size_t b = 0; b + kRun <= n; b += kRun)
        szk::reconstruct_run_scalar(cs.data() + b, kRun, static_cast<double>(data[b]),
                                    pred_step, twoe, rs.data() + b);
      keep(rs.data());
    });
    if (active) {
      quant.vector_mbps = mb / best_seconds(kreps, [&] {
        for (std::size_t b = 0; b + kRun <= n; b += kRun)
          szk::quantize_run_vec(data.data() + b, kRun, static_cast<double>(data[b]),
                                pred_step, twoe, e, cv.data() + b, rv.data() + b);
        keep(cv.data());
      });
      recon.vector_mbps = mb / best_seconds(kreps, [&] {
        for (std::size_t b = 0; b + kRun <= n; b += kRun)
          szk::reconstruct_run_vec(cs.data() + b, kRun, static_cast<double>(data[b]),
                                   pred_step, twoe, rv.data() + b);
        keep(rv.data());
      });
      std::vector<float> check(n);
      for (std::size_t b = 0; b + kRun <= n; b += kRun)
        szk::reconstruct_run_vec(cs.data() + b, kRun, static_cast<double>(data[b]),
                                 pred_step, twoe, check.data() + b);
      for (std::size_t b = 0; b + kRun <= n; b += kRun)
        szk::reconstruct_run_scalar(cs.data() + b, kRun, static_cast<double>(data[b]),
                                    pred_step, twoe, rs.data() + b);
      identical = identical && std::memcmp(rs.data(), check.data(), n * 4) == 0;
    }
    quant.speedup = quant.scalar_mbps > 0 ? quant.vector_mbps / quant.scalar_mbps : 0;
    recon.speedup = recon.scalar_mbps > 0 ? recon.vector_mbps / recon.scalar_mbps : 0;
    kernels.push_back({"sz.quantize_run", quant});
    kernels.push_back({"sz.reconstruct_run", recon});
  }

  {  // zfp 4^3 block transforms, i32 (f32 path) and i64 (f64 path) lanes
    auto zfp_kernel = [&](auto zero, bool active) {
      using Int = decltype(zero);
      const std::size_t blocks = n / 64;
      std::vector<Int> bs(blocks * 64), bv(blocks * 64);
      Rng rng(11);
      for (auto& x : bs) x = static_cast<Int>(rng.below(1u << 20)) - (1 << 19);
      bv = bs;
      const double imb = static_cast<double>(blocks * 64 * sizeof(Int)) / 1e6;
      for (std::size_t b = 0; b < blocks; ++b) {
        zfp_detail::fwd_transform(bs.data() + b * 64, 3);
        if (active) zfpk::fwd_transform_vec(bv.data() + b * 64, 3);
      }
      identical = identical &&
                  (!active ||
                   std::memcmp(bs.data(), bv.data(), blocks * 64 * sizeof(Int)) == 0);
      for (std::size_t b = 0; b < blocks; ++b) {
        zfp_detail::inv_transform(bs.data() + b * 64, 3);
        if (active) zfpk::inv_transform_vec(bv.data() + b * 64, 3);
      }
      identical = identical &&
                  (!active ||
                   std::memcmp(bs.data(), bv.data(), blocks * 64 * sizeof(Int)) == 0);

      KernelResult k;
      k.active = active;
      // Forward+inverse pairs keep the buffer bounded across repetitions.
      k.scalar_mbps = 2 * imb / best_seconds(kreps, [&] {
        for (std::size_t b = 0; b < blocks; ++b) {
          zfp_detail::fwd_transform(bs.data() + b * 64, 3);
          zfp_detail::inv_transform(bs.data() + b * 64, 3);
        }
        keep(bs.data());
      });
      if (active) {
        k.vector_mbps = 2 * imb / best_seconds(kreps, [&] {
          for (std::size_t b = 0; b < blocks; ++b) {
            zfpk::fwd_transform_vec(bv.data() + b * 64, 3);
            zfpk::inv_transform_vec(bv.data() + b * 64, 3);
          }
          keep(bv.data());
        });
      }
      k.speedup = k.scalar_mbps > 0 ? k.vector_mbps / k.scalar_mbps : 0;
      return k;
    };
    kernels.push_back(
        {"zfp.transform_i32", zfp_kernel(std::int32_t{0}, zfpk::simd_active<std::int32_t>())});
    kernels.push_back(
        {"zfp.transform_i64", zfp_kernel(std::int64_t{0}, zfpk::simd_active<std::int64_t>())});
  }

  std::printf("%-22s %10s %10s %9s\n", "kernel", "scalar", "vector", "speedup");
  for (const Named& k : kernels) print_kernel(k.name, k.r);
  if (!identical) {
    std::fprintf(stderr, "FAIL: vector kernel output diverges from its scalar reference\n");
    return 1;
  }

  JsonWriter jw;
  jw.begin_object().field("bench", "micro_compressors").field("bytes", field.size_bytes());
  jw.key("backends").begin_object();
  for (const Entry& e : backends)
    jw.key(e.name)
        .begin_object()
        .field("compress_mbps", e.r.compress_mbps)
        .field("decompress_mbps", e.r.decompress_mbps)
        .field("ratio", e.r.ratio)
        .end_object();
  jw.end_object();
  jw.field("szx_vs_sz_compress", szx_vs_sz);
  jw.key("sz_blocked")
      .begin_object()
      .field("cube_bytes", cube.size_bytes())
      .field("threads", blocked_opt.threads)
      .field("serial_compress_mbps", serial_compress_mbps)
      .field("blocked_1t_compress_mbps", blocked1_compress_mbps)
      .field("blocked_compress_mbps", blocked_compress_mbps)
      .field("serial_decompress_mbps", serial_decompress_mbps)
      .field("blocked_decompress_mbps", blocked_decompress_mbps)
      .field("algorithmic_speedup", algorithmic_speedup)
      .field("scaling_speedup", scaling_speedup)
      .field("decompress_speedup", blocked_decompress_speedup)
      .end_object();
  jw.key("sz_probe_regime")
      .begin_object()
      .field("chunk_bytes", probe_chunk.size_bytes())
      .field("bounds", kProbeBounds)
      .field("compress_mbps", probe_mbps)
      .field("frames_crc", probe_crc)
      .end_object();
  jw.key("kernels").begin_object();
  for (const Named& k : kernels)
    jw.key(k.name)
        .begin_object()
        .field("scalar_mbps", k.r.scalar_mbps)
        .field("vector_mbps", k.r.vector_mbps)
        .field("speedup", k.r.speedup)
        .field("active", k.r.active)
        .end_object();
  jw.end_object().end_object();
  bench::json_line(jw);

  if (cli.get_flag("check")) {
    constexpr double kAlgorithmicFloor = 1.6;
    constexpr double kScalingFloor = 0.85;
    bool pass = true;
    // Measured 5.4-6.1x on an unloaded AVX2 host; the floor leaves margin
    // for noisy shared CI runners while still pinning the ~5x claim.  The
    // divide-free serial rANS encoder made sz faster: 5.2-5.5x full and
    // 4.7-4.8x smoke (was 6.6x / 5.7-5.9x) on a 4-vCPU Xeon VM.
    if (szx_vs_sz < 4.5) {
      std::fprintf(stderr, "FAIL: szx/sz compress speedup %.2f below the 4.5x floor\n",
                   szx_vs_sz);
      pass = false;
    }
    // Blocked vs serial, split per ROADMAP §1 with N = min(8, cores).  The
    // former gate, blocked at 8 threads / serial >= 2.5x, read 3.74x (267 vs
    // 71 MB/s, 4-vCPU Xeon VM) until the serial encoder's rANS stage lost
    // its std::map census and per-symbol divide: serial rose to 99-107 MB/s
    // with blocked unchanged, and the ratio fell to ~2.5x.  It measured the
    // serial encoder, and ran 8 threads on 4 cores.  The floors below are
    // set to fail on a 20% loss of blocked's own MB/s:
    //  - algorithmic, blocked 1-thread / serial: measured 2.47-2.57x
    //    (251-267 vs 99-107 MB/s, full and smoke); floor then 2.2x.  The
    //    serial encoder's row-pointer block loop, divide-free LZ match
    //    finder and sort-free rANS normalize then lifted the serial cube
    //    (smoke, shared 4-vCPU Xeon VM) from 42-64 to 61-94 MB/s with
    //    blocked unchanged (106-178 MB/s), and the ratio fell from
    //    2.50-3.32x to 1.59-2.00x, median ~1.8x.  Floor 1.6x.  A 20% loss
    //    of blocked's MB/s fails it from the median (1.8x -> 1.44x) but
    //    not from the top of that range (2.0x -> 1.60x), and the bottom of
    //    the range already fails (1.59x, 1 of 21 runs).  On a noisy host
    //    this ratio cannot both pass steadily and catch that loss; ROADMAP
    //    §1 has re-anchoring it on blocked's own MB/s;
    //  - scaling, blocked N-thread / 1-thread: measured 0.98-1.00x at N = 4
    //    on that VM, where four busy threads get ~1.3 cores; floor 0.85x.
    if (algorithmic_speedup < kAlgorithmicFloor) {
      std::fprintf(stderr,
                   "FAIL: blocked sz 1-thread compress at %.2fx serial, below the %.2fx floor\n",
                   algorithmic_speedup, kAlgorithmicFloor);
      pass = false;
    }
    if (blocked_opt.threads > 1 && scaling_speedup < kScalingFloor) {
      std::fprintf(stderr,
                   "FAIL: blocked sz %u-thread compress at %.2fx its 1-thread run, below the "
                   "%.2fx floor\n",
                   blocked_opt.threads, scaling_speedup, kScalingFloor);
      pass = false;
    }
    if (blocked_decompress_speedup < 2.0) {
      std::fprintf(stderr,
                   "FAIL: blocked sz decompress speedup %.2f below the 2x floor\n",
                   blocked_decompress_speedup);
      pass = false;
    }
    for (const Named& k : kernels) {
      if (!k.r.active) continue;  // scalar-only build/host: nothing to gate
      if (k.r.speedup < 1.5) {
        std::fprintf(stderr, "FAIL: %s speedup %.2f below the 1.5x floor\n", k.name,
                     k.r.speedup);
        pass = false;
      }
    }
    if (!pass) return 1;
  }
  return 0;
}
