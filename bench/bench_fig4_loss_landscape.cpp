/// Reproduction of Fig. 4: the autotuning objective.
///
/// Left panel: a typical error-bound -> compression-ratio landscape (a step
/// function with slight slope per tread — ZFP's accuracy mode produces
/// exactly this, because of the floor(log2 tolerance) quantization).
/// Right panel: FRaZ's transformed loss l(e) = min((rho_r(e) - rho_t)^2, gamma)
/// with the acceptance region; the bench prints both curves and reports
/// whether the requested target is feasible (blue points inside the band).

#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "compressors/zfp/zfp.hpp"
#include "core/loss.hpp"
#include "metrics/error_stats.hpp"

int main(int argc, char** argv) {
  using namespace fraz;
  Cli cli("Fig. 4 reproduction: ratio landscape and clamped-square loss");
  cli.add_string("scale", "small", "suite scale: tiny|small|medium");
  cli.add_double("target", 15.0, "target compression ratio (paper's example: 15 -> infeasible)");
  cli.add_double("epsilon", 0.1, "acceptance band");
  if (!cli.parse(argc, argv)) return 0;

  bench::banner("Fig. 4", "error-bound landscape and FRaZ loss function (ZFP accuracy mode)",
                "staircase ratio curve; loss is clamped parabola-of-steps; a target on "
                "a gap between treads is infeasible and FRaZ reports the closest step");

  const auto ds = data::dataset_by_name("hurricane", bench::parse_scale(cli.get_string("scale")));
  const NdArray field = data::generate_field(data::field_by_name(ds, "TCf"), 0);
  const double target = cli.get_double("target");
  const double epsilon = cli.get_double("epsilon");
  const double range = value_range(field.view());

  Table t({"error_bound", "ratio", "loss", "in_acceptance_band"});
  double closest_ratio = 0, closest_dist = 1e300;
  bool feasible = false;
  for (int i = 1; i <= 64; ++i) {
    const double bound = range * i / 64.0;
    ZfpOptions opt;
    opt.tolerance = bound;
    Buffer compressed;
    zfp_compress_into(field.view(), opt, compressed);
    const double ratio = compression_ratio(field.size_bytes(), compressed.size());
    const double loss = ratio_loss(ratio, target);
    const bool in_band = ratio_acceptable(ratio, target, epsilon);
    feasible = feasible || in_band;
    if (std::abs(ratio - target) < closest_dist) {
      closest_dist = std::abs(ratio - target);
      closest_ratio = ratio;
    }
    t.add_row({Table::num(bound, 4), Table::num(ratio, 2), Table::num(loss, 2),
               in_band ? "yes" : "no"});
  }
  t.print(std::cout);

  // Count distinct ratio treads: the staircase signature.
  std::printf("\ntarget %.1f with epsilon %.2f: %s (closest observed ratio: %.2f)\n", target,
              epsilon, feasible ? "FEASIBLE" : "INFEASIBLE — FRaZ would report closest",
              closest_ratio);
  std::printf("loss clamp gamma = %.3e (80%% of max double, as in the paper)\n", kLossClamp);
  return 0;
}
