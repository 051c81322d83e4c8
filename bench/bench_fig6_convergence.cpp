/// Reproduction of Fig. 6: per-time-step convergence of FRaZ on the
/// Hurricane CLOUD field, one feasible target (paper: rho_t = 8, "good
/// case") and one drifting-infeasible target (paper: rho_t = 15, "bad
/// case"), plus the §VI-B.1 warm-start observation (few retrains).
///
/// Expected shapes:
///  - good case: nearly all steps land inside the band; only a handful of
///    retrains across the series;
///  - bad case: many steps miss the band and oscillate around it, because
///    the achievable ratio set drifts away from the target over time.

#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "engine/engine.hpp"

namespace {

using namespace fraz;

void run_case(const char* label, double target, const std::vector<NdArray>& steps,
              double max_error_bound) {
  EngineConfig config;
  config.compressor = "sz";
  TunerConfig& cfg = config.tuner;
  cfg.target_ratio = target;
  cfg.epsilon = 0.1;
  cfg.regions = 8;
  cfg.max_evals_per_region = 16;
  cfg.max_error_bound = max_error_bound;  // U in the paper's Eq. 2 (0 = auto)
  // One field, its time steps warm-started from the last in-band bound
  // (Algorithm 3's time dimension).
  Engine engine(config);

  std::printf("\n[%s] target ratio %.1f, epsilon %.2f\n", label, target, cfg.epsilon);
  Table t({"step", "achieved_ratio", "in_band", "retrained", "compress_calls", "cache_hits"});
  int in_band = 0, retrains = 0, calls = 0, hits = 0;
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const TuneResult r = engine.tune("CLOUDf", steps[s].view()).value();
    const bool retrained = !r.from_prediction;
    in_band += r.feasible;
    retrains += retrained;
    calls += r.compress_calls;
    hits += r.probe_cache_hits;
    t.add_row({std::to_string(s), Table::num(r.achieved_ratio, 2), r.feasible ? "yes" : "no",
               retrained ? "yes" : "no", std::to_string(r.compress_calls),
               std::to_string(r.probe_cache_hits)});
  }
  t.print(std::cout);
  // "probes executed" is the cost the unified tuning stack minimizes: probes
  // the searches consumed minus those their memos answered for free.
  std::printf("steps in band: %d/%zu, retrains: %d, total compress calls: %d "
              "(%d cache hits, %d probes executed)\n",
              in_band, steps.size(), retrains, calls, hits, calls - hits);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fraz;
  Cli cli("Fig. 6 reproduction: good vs bad convergence across time steps");
  cli.add_string("scale", "small", "suite scale: tiny|small|medium");
  cli.add_int("steps", 12, "time steps to tune");
  cli.add_double("good-target", 8.0, "feasible target (paper: 8)");
  cli.add_double("bad-target", 15.0, "drifting-infeasible target (paper: 15)");
  cli.add_double("bad-max-bound", 1.0e-5,
                 "U for the bad case: user's max allowed error (paper Eq. 2); the "
                 "field's noise floor rises across steps, pushing the bound needed "
                 "for the target past U — the paper's drift-to-infeasible story");
  if (!cli.parse(argc, argv)) return 0;

  bench::banner("Fig. 6", "convergence across time steps (Hurricane CLOUD analogue, SZ)",
                "good target: >90% of steps in band, few retrains; bad target: "
                "oscillation around an infeasible objective");

  const auto ds = data::dataset_by_name("hurricane", bench::parse_scale(cli.get_string("scale")));
  const auto spec = data::field_by_name(ds, "CLOUDf");
  const auto steps = data::generate_series(spec, static_cast<int>(cli.get_int("steps")));

  run_case("good convergence case (Fig. 6b)", cli.get_double("good-target"), steps, 0.0);
  run_case("bad convergence case (Fig. 6a)", cli.get_double("bad-target"), steps,
           cli.get_double("bad-max-bound"));
  return 0;
}
