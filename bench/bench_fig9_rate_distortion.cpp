/// Reproduction of Fig. 9: rate-distortion (PSNR vs bit rate) of
/// SZ(FRaZ), ZFP(FRaZ), ZFP(fixed-rate), and MGARD(FRaZ) across all five
/// datasets.  MGARD is absent on HACC/EXAALT (1D), exactly as in the paper.
///
/// Expected shapes:
///  - ZFP(FRaZ) consistently above ZFP(fixed-rate) at matched bit rates;
///  - SZ(FRaZ) the best curve on most datasets;
///  - all curves increase monotonically with bit rate.

#include <algorithm>
#include <cmath>
#include <limits>
#include <cstdio>
#include <iostream>
#include <map>

#include "bench_common.hpp"
#include "core/tuner.hpp"
#include "metrics/error_stats.hpp"
#include "pressio/evaluate.hpp"
#include "pressio/options.hpp"

namespace {

using namespace fraz;

struct Point {
  double bit_rate = 0;
  double psnr = 0;
  bool valid = false;
};

/// FRaZ-tune `backend` to the target ratio, then measure fidelity.
Point fraz_point(const std::string& backend, const ArrayView& view, double target) {
  Point p;
  auto compressor = pressio::registry().create(backend);
  if (!compressor->supports_dims(view.dims())) return p;
  TunerConfig cfg;
  cfg.target_ratio = target;
  cfg.epsilon = 0.15;
  cfg.regions = 8;
  cfg.max_evals_per_region = 14;
  const Tuner tuner(*compressor, cfg);
  const TuneResult r = tuner.tune(view);
  if (r.error_bound <= 0) return p;
  compressor->set_error_bound(r.error_bound);
  const auto report = pressio::evaluate_fidelity(*compressor, view).value();
  p.bit_rate = report.probe.bit_rate;
  p.psnr = report.psnr_db;
  p.valid = true;
  return p;
}

/// ZFP's built-in fixed-rate mode at the equivalent rate.
Point fixed_rate_point(const ArrayView& view, double target) {
  Point p;
  auto compressor = pressio::registry().create("zfp");
  pressio::Options o;
  o.set("zfp:mode", std::string("rate"));
  o.set("zfp:rate", 32.0 / target);
  compressor->set_options(o);
  const auto report = pressio::evaluate_fidelity(*compressor, view).value();
  p.bit_rate = report.probe.bit_rate;
  p.psnr = report.psnr_db;
  p.valid = true;
  return p;
}

/// Linear interpolation of a curve's PSNR at the requested bitrate; NaN when
/// the bitrate lies outside the curve's support.
double interpolate_psnr(const std::vector<Point>& curve, double bitrate) {
  std::vector<Point> sorted = curve;
  std::sort(sorted.begin(), sorted.end(),
            [](const Point& a, const Point& b) { return a.bit_rate < b.bit_rate; });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    const Point& lo = sorted[i - 1];
    const Point& hi = sorted[i];
    if (bitrate >= lo.bit_rate && bitrate <= hi.bit_rate) {
      if (hi.bit_rate == lo.bit_rate) return lo.psnr;
      const double w = (bitrate - lo.bit_rate) / (hi.bit_rate - lo.bit_rate);
      return lo.psnr + w * (hi.psnr - lo.psnr);
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fraz;
  Cli cli("Fig. 9 reproduction: rate distortion across the five datasets");
  cli.add_string("scale", "small", "suite scale: tiny|small|medium");
  if (!cli.parse(argc, argv)) return 0;

  bench::banner("Fig. 9", "rate distortion: SZ(FRaZ), ZFP(FRaZ), ZFP(fixed-rate), MGARD(FRaZ)",
                "ZFP(FRaZ) above ZFP(fixed-rate); SZ(FRaZ) best on most datasets; "
                "MGARD missing on 1D HACC/EXAALT");

  const auto scale = bench::parse_scale(cli.get_string("scale"));
  const std::map<std::string, std::string> panels = {
      {"hurricane", "TCf"},       {"nyx", "temperature"}, {"cesm", "CLDHGH"},
      {"hacc", "x"},              {"exaalt", "x"},
  };
  const std::vector<double> targets = {4, 8, 16, 32, 64};
  // Rate-distortion curves live on the bitrate axis; infeasible targets
  // saturate to the closest achievable ratio, so fair "who wins" comparisons
  // interpolate PSNR at matched bitrates, like reading the paper's plots.
  const std::vector<double> probe_bitrates = {2.0, 4.0, 8.0};

  int zfp_wins = 0, zfp_comparisons = 0;
  int sz_best = 0, panels_counted = 0;

  for (const auto& [ds_name, field_name] : panels) {
    const auto ds = data::dataset_by_name(ds_name, scale);
    const NdArray field = data::generate_field(data::field_by_name(ds, field_name), 0);
    const ArrayView view = field.view();

    std::printf("\n[Fig. 9 panel] %s (%s)\n", ds_name.c_str(), field_name.c_str());
    Table t({"target", "curve", "bit_rate", "psnr_db"});
    std::map<std::string, std::vector<Point>> curves;
    for (double target : targets) {
      const Point sz = fraz_point("sz", view, target);
      const Point zfp = fraz_point("zfp", view, target);
      const Point zfp_rate = fixed_rate_point(view, target);
      const Point mgard = fraz_point("mgard", view, target);
      for (const auto& [label, point] :
           {std::pair<const char*, const Point&>{"SZ(FRaZ)", sz},
            {"ZFP(FRaZ)", zfp},
            {"ZFP(fixed-rate)", zfp_rate},
            {"MGARD(FRaZ)", mgard}}) {
        if (!point.valid) continue;
        t.add_row({Table::num(target, 0), label, Table::num(point.bit_rate, 2),
                   Table::num(point.psnr, 1)});
        curves[label].push_back(point);
      }
      if (zfp.valid && zfp_rate.valid) {
        ++zfp_comparisons;
        zfp_wins += zfp.psnr >= zfp_rate.psnr;
      }
    }
    t.print(std::cout);
    if (view.dims() == 1) std::printf("MGARD absent: 1D unsupported (as in the paper)\n");

    // Panel verdict: SZ is "best" when it wins the majority of matched-
    // bitrate comparisons against every other curve present.
    if (curves.count("SZ(FRaZ)") && curves.count("ZFP(FRaZ)")) {
      ++panels_counted;
      int wins = 0, comparisons = 0;
      for (const auto& [label, curve] : curves) {
        if (label == "SZ(FRaZ)") continue;
        for (double bitrate : probe_bitrates) {
          const double sz_psnr = interpolate_psnr(curves.at("SZ(FRaZ)"), bitrate);
          const double other = interpolate_psnr(curve, bitrate);
          if (std::isnan(sz_psnr) || std::isnan(other)) continue;
          ++comparisons;
          wins += sz_psnr >= other;
        }
      }
      if (comparisons > 0 && wins * 2 >= comparisons) ++sz_best;
    }
  }

  std::printf("\nshape checks:\n");
  std::printf("  ZFP(FRaZ) >= ZFP(fixed-rate) PSNR: %d/%d comparisons -> %s\n", zfp_wins,
              zfp_comparisons, zfp_wins * 2 >= zfp_comparisons ? "HOLDS" : "VIOLATED");
  std::printf("  SZ(FRaZ) best at matched bitrates: %d/%d panels -> %s\n", sz_best,
              panels_counted,
              sz_best * 2 >= panels_counted ? "HOLDS (most cases)" : "VIOLATED");
  return 0;
}
