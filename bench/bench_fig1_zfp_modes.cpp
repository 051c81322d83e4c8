/// Reproduction of Fig. 1: ZFP fixed-accuracy vs fixed-rate.
///
/// (b) rate-distortion: PSNR vs bit rate for both modes on the Hurricane
///     TCf analogue — fixed-accuracy should dominate fixed-rate across the
///     whole bit-rate axis (the paper reports up to ~30 dB difference).
/// (c)/(d) the CR=50:1 comparison: PSNR, max error, SSIM, ACF(error) for
///     both modes at the same compression ratio.

#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "compressors/zfp/zfp.hpp"
#include "metrics/acf.hpp"
#include "metrics/error_stats.hpp"
#include "metrics/ssim.hpp"

namespace {

using namespace fraz;

struct ModePoint {
  double bit_rate;
  double psnr;
  double max_err;
  double ssim_v;
  double acf;
  double ratio;
};

ModePoint evaluate(const ArrayView& field, const ZfpOptions& opt) {
  Buffer compressed;
  zfp_compress_into(field, opt, compressed);
  const NdArray decoded = zfp_decompress(compressed.data(), compressed.size());
  const ErrorStats stats = error_stats(field, decoded.view());
  ModePoint p;
  p.bit_rate = bit_rate(field.elements(), compressed.size());
  p.ratio = compression_ratio(field.size_bytes(), compressed.size());
  p.psnr = stats.psnr_db;
  p.max_err = stats.max_abs_error;
  p.ssim_v = ssim(field, decoded.view());
  p.acf = error_acf(field, decoded.view());
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fraz;
  Cli cli("Fig. 1 reproduction: ZFP fixed-accuracy vs fixed-rate");
  cli.add_string("scale", "small", "suite scale: tiny|small|medium");
  if (!cli.parse(argc, argv)) return 0;

  bench::banner("Fig. 1", "ZFP fixed-accuracy vs fixed-rate (Hurricane TCf analogue)",
                "fixed-accuracy PSNR above fixed-rate at every bit rate; at CR~50 "
                "fixed-accuracy has higher PSNR and far lower max error");

  const auto ds = data::dataset_by_name("hurricane", bench::parse_scale(cli.get_string("scale")));
  const NdArray field = data::generate_field(data::field_by_name(ds, "TCf"), 0);
  const ArrayView view = field.view();

  // ---- (b) rate distortion ----
  std::printf("\n[Fig. 1b] rate distortion (PSNR vs bit rate)\n");
  Table rd({"mode", "bit_rate", "psnr_db", "ratio"});
  // Fixed-rate: sweep rates directly.
  for (double rate : {0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0}) {
    ZfpOptions opt;
    opt.mode = ZfpMode::kFixedRate;
    opt.rate = rate;
    const ModePoint p = evaluate(view, opt);
    rd.add_row({"fixed-rate", Table::num(p.bit_rate, 2), Table::num(p.psnr, 1),
                Table::num(p.ratio, 1)});
  }
  // Fixed-accuracy: sweep tolerances to cover a similar bit-rate span.
  const double range = value_range(view);
  for (double frac : {3e-1, 1e-1, 3e-2, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6}) {
    ZfpOptions opt;
    opt.mode = ZfpMode::kAccuracy;
    opt.tolerance = range * frac;
    const ModePoint p = evaluate(view, opt);
    rd.add_row({"fixed-accuracy", Table::num(p.bit_rate, 2), Table::num(p.psnr, 1),
                Table::num(p.ratio, 1)});
  }
  rd.print(std::cout);

  // Shape check: compare PSNR at matched bit rates via interpolation-free
  // pairing (closest bit rates).
  std::printf("\n[Fig. 1c/1d] matched-ratio comparison at CR ~ 50:1\n");
  // Fixed-rate at CR 50 for f32: rate = 32/50 = 0.64 bits/value.
  ZfpOptions rate_opt;
  rate_opt.mode = ZfpMode::kFixedRate;
  rate_opt.rate = 32.0 / 50.0;
  const ModePoint fixed_rate = evaluate(view, rate_opt);

  // Fixed-accuracy: find the tolerance whose ratio lands nearest 50.
  ZfpOptions acc_opt;
  acc_opt.mode = ZfpMode::kAccuracy;
  ModePoint fixed_acc{};
  double best_dist = 1e300;
  // Tolerances beyond the value range are legitimate here: ZFP keeps
  // collapsing blocks to fewer bit planes, pushing the ratio past 50.
  for (double frac = 1e-4; frac < 8.0; frac *= 1.25) {
    acc_opt.tolerance = range * frac;
    const ModePoint p = evaluate(view, acc_opt);
    if (std::abs(p.ratio - 50.0) < best_dist) {
      best_dist = std::abs(p.ratio - 50.0);
      fixed_acc = p;
    }
  }

  Table cmp({"mode", "ratio", "psnr_db", "max_error", "ssim", "acf_error"});
  cmp.add_row({"fixed-accuracy", Table::num(fixed_acc.ratio, 1), Table::num(fixed_acc.psnr, 1),
               Table::num(fixed_acc.max_err, 3), Table::num(fixed_acc.ssim_v, 3),
               Table::num(fixed_acc.acf, 3)});
  cmp.add_row({"fixed-rate", Table::num(fixed_rate.ratio, 1), Table::num(fixed_rate.psnr, 1),
               Table::num(fixed_rate.max_err, 3), Table::num(fixed_rate.ssim_v, 3),
               Table::num(fixed_rate.acf, 3)});
  cmp.print(std::cout);

  const bool shape_holds = fixed_acc.psnr > fixed_rate.psnr &&
                           fixed_acc.max_err < fixed_rate.max_err;
  std::printf("\nshape check (accuracy-mode beats rate-mode at matched CR): %s\n",
              shape_holds ? "HOLDS" : "VIOLATED");
  return shape_holds ? 0 : 1;
}
