/// Use case 1 from the paper (§II-B): fit a multi-field, multi-step climate
/// campaign into a fixed storage allocation.
///
/// A CESM-like run produces six 2D fields over many time steps; the centre
/// grants a fixed byte budget.  The target compression ratio follows from
/// budget / raw size; one Engine then compresses every (field, step) at a
/// tuned bound (each field its own cache key, time steps warm-started from
/// the last in-band bound) and the example verifies that the compressed
/// campaign actually fits.
///
///   ./climate_storage_budget [--budget-mb 0.25] [--steps 6]

#include <cstdio>
#include <iostream>

#include "data/datasets.hpp"
#include "engine/engine.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace fraz;
  Cli cli("Fit a CESM-like campaign into a storage budget with FRaZ");
  cli.add_double("budget-mb", 0.25, "storage allocation for the whole campaign (MB)");
  cli.add_int("steps", 6, "time steps per field");
  cli.add_string("compressor", "sz", "backend: sz|zfp|mgard");
  if (!cli.parse(argc, argv)) return 0;

  const auto dataset = data::dataset_by_name("cesm");
  const int steps = static_cast<int>(cli.get_int("steps"));

  // Generate the campaign and compute the ratio the budget demands.
  std::vector<std::vector<NdArray>> series;
  std::size_t raw_bytes = 0;
  for (const auto& spec : dataset.fields) {
    series.push_back(data::generate_series(spec, steps));
    for (const auto& step : series.back()) raw_bytes += step.size_bytes();
  }
  const double budget_bytes = cli.get_double("budget-mb") * 1e6;
  const double required_ratio = static_cast<double>(raw_bytes) / budget_bytes;

  EngineConfig config;
  config.compressor = cli.get_string("compressor");
  config.tuner.epsilon = 0.08;  // stay close: overshooting wastes quality,
                                // undershooting busts the allocation
  // Any ratio in the band ρt(1±ε) is accepted, so aim the band's low edge at
  // the required ratio: the least compressed in-band archive still fits.
  config.tuner.target_ratio = required_ratio / (1.0 - config.tuner.epsilon);
  std::printf("campaign: %zu fields x %d steps = %.1f MB raw; budget %.2f MB -> "
              "required ratio %.1f:1, target %.1f:1\n",
              series.size(), steps, raw_bytes / 1e6, budget_bytes / 1e6, required_ratio,
              config.tuner.target_ratio);
  Engine engine(config);

  Table t({"field", "steps_in_band", "retrains", "mean_ratio", "bound_last_step"});
  std::size_t compressed_bytes = 0;
  Buffer archive;  // reused across every (field, step) archive
  for (std::size_t f = 0; f < series.size(); ++f) {
    const std::string& name = dataset.fields[f].name;
    int in_band = 0, retrains = 0;
    double ratio_sum = 0;
    CompressOutcome outcome;
    for (std::size_t s = 0; s < series[f].size(); ++s) {
      const Status st = engine.compress(name, series[f][s].view(), archive, &outcome);
      if (!st.ok()) {
        std::fprintf(stderr, "%s step %zu: %s\n", name.c_str(), s, st.to_string().c_str());
        return 1;
      }
      in_band += outcome.in_band;
      retrains += outcome.retrained;
      ratio_sum += outcome.achieved_ratio;
      compressed_bytes += archive.size();
    }
    t.add_row({name, std::to_string(in_band) + "/" + std::to_string(series[f].size()),
               std::to_string(retrains),
               Table::num(ratio_sum / static_cast<double>(series[f].size()), 2),
               Table::num(outcome.error_bound, 6)});
  }
  t.print(std::cout);

  const bool fits = compressed_bytes <= budget_bytes * 1.02;
  std::printf("\ncompressed campaign: %.2f MB (budget %.2f MB) -> %s\n",
              compressed_bytes / 1e6, budget_bytes / 1e6, fits ? "FITS" : "OVER BUDGET");
  return fits ? 0 : 1;
}
