/// Reproduction of Fig. 7: sensitivity of FRaZ's runtime to the target
/// compression ratio rho_t in 2..29 on a Hurricane field series.
///
/// Expected shapes:
///  - low targets below the compressor's effective ratio floor never
///    converge: every step burns the full iteration budget, so total time
///    sits on a high plateau;
///  - feasible mid-range targets converge in a handful of calls (warm-start
///    reuse makes later steps nearly free) -> roughly 10x faster;
///  - compression time dominates total time (the search itself is cheap).

#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "engine/engine.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace fraz;
  Cli cli("Fig. 7 reproduction: runtime vs target compression ratio");
  cli.add_string("scale", "small", "suite scale: tiny|small|medium");
  cli.add_int("steps", 4, "time steps per target");
  cli.add_int("min-target", 2, "first target ratio");
  cli.add_int("max-target", 29, "last target ratio");
  if (!cli.parse(argc, argv)) return 0;

  bench::banner("Fig. 7", "sensitivity to the target objective (Hurricane CLOUD analogue, SZ)",
                "plateau of long runtimes below the ratio floor; fast convergence for "
                "feasible targets; compression time ~ total time");

  const auto ds = data::dataset_by_name("hurricane", bench::parse_scale(cli.get_string("scale")));
  const auto spec = data::field_by_name(ds, "CLOUDf");
  const auto steps = data::generate_series(spec, static_cast<int>(cli.get_int("steps")));

  Table t({"target", "total_time_s", "compress_time_s", "compress_calls", "steps_in_band"});
  auto compressor = pressio::registry().create("sz");
  for (int target = static_cast<int>(cli.get_int("min-target"));
       target <= static_cast<int>(cli.get_int("max-target")); ++target) {
    EngineConfig config;
    config.compressor = "sz";
    TunerConfig& cfg = config.tuner;
    cfg.target_ratio = target;
    cfg.epsilon = 0.1;
    cfg.regions = 8;
    cfg.max_evals_per_region = 12;
    // The paper searched the bound axis linearly (Dlib over [lo, U]); keep
    // that here so the low-target infeasibility plateau reproduces.  Serial
    // execution makes total time directly comparable with the estimated
    // compression time (as in the paper's single-node Fig. 7).
    cfg.log_scale_search = false;
    cfg.threads = 1;
    Engine engine(config);

    Timer timer;
    int calls = 0, in_band = 0;
    double last_bound = 0;
    for (const NdArray& step : steps) {
      const TuneResult r = engine.tune("CLOUDf", step.view()).value();
      calls += r.compress_calls;
      in_band += r.feasible;
      last_bound = r.error_bound;
    }
    const double total = timer.seconds();

    // Estimate pure compression time: one timed compression at the tuned
    // bound scaled by call count (the loop outside compression is trivial).
    compressor->set_error_bound(last_bound > 0 ? last_bound
                                               : value_range(steps[0].view()) * 0.01);
    Buffer archive;
    Timer ctimer;
    compressor->compress_into(steps[0].view(), archive).throw_if_error();
    const double one_compress = ctimer.seconds();
    const double compress_time = one_compress * calls;

    t.add_row({std::to_string(target), Table::num(total, 3), Table::num(compress_time, 3),
               std::to_string(calls),
               std::to_string(in_band) + "/" + std::to_string(steps.size())});
  }
  t.print(std::cout);
  std::printf("\nnote: targets below the SZ ratio floor on this field exhaust the\n"
              "iteration budget at every step (the paper's ~10x runtime plateau).\n");
  return 0;
}
