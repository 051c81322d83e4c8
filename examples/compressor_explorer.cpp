/// Use case 2 from the paper (§II-B): pick the best-fit compressor for a
/// post-analysis quality requirement at a fixed compressed size.
///
/// Without FRaZ, users run trial-and-error per compressor to land on the
/// desired ratio before they can even compare quality.  With FRaZ, one call
/// per backend pins the ratio, and the comparison becomes apples-to-apples:
/// the example tunes every registered backend to the same target and prints
/// a quality scoreboard (PSNR / SSIM / max error / ACF).
///
///   ./compressor_explorer [--dataset nyx --field temperature] [--target 30]

#include <cstdio>
#include <iostream>

#include "core/tuner.hpp"
#include "data/datasets.hpp"
#include "pressio/evaluate.hpp"
#include "pressio/registry.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace fraz;
  Cli cli("Compare every compressor at one fixed compression ratio");
  cli.add_string("dataset", "nyx", "hurricane|hacc|cesm|exaalt|nyx");
  cli.add_string("field", "temperature", "field within the dataset");
  cli.add_double("target", 30.0, "target compression ratio");
  if (!cli.parse(argc, argv)) return 0;

  const auto dataset = data::dataset_by_name(cli.get_string("dataset"));
  const auto spec = data::field_by_name(dataset, cli.get_string("field"));
  const NdArray field = data::generate_field(spec, 0);
  const double target = cli.get_double("target");
  std::printf("dataset %s/%s, %zuD, %.1f KB raw, target ratio %.1f:1\n",
              dataset.name.c_str(), spec.name.c_str(), field.dims(),
              field.size_bytes() / 1024.0, target);

  TunerConfig config;
  config.target_ratio = target;
  config.epsilon = 0.1;
  config.max_error_bound = value_range(field.view()) * 16;  // generous U

  Table t({"compressor", "ratio", "in_band", "psnr_db", "ssim", "max_error", "acf_error"});
  for (const std::string& name : pressio::registry().names()) {
    auto compressor = pressio::registry().create(name);
    // Capability introspection replaces trial-and-error: ask the backend
    // up front whether it can handle this dtype/rank combination.
    if (!compressor->capabilities().supports(field.dtype(), field.dims())) {
      t.add_row({name, "-", "-", "-", "-", "-", "unsupported dtype/rank"});
      continue;
    }
    const Tuner tuner(*compressor, config);
    const TuneResult tuned = tuner.tune(field.view());
    compressor->set_error_bound(tuned.error_bound);
    const auto evaluated = pressio::evaluate_fidelity(*compressor, field.view());
    if (!evaluated.ok()) {
      t.add_row({name, "-", "-", "-", "-", "-", evaluated.status().to_string()});
      continue;
    }
    const pressio::FidelityReport& report = evaluated.value();
    t.add_row({name, Table::num(report.probe.ratio, 2), tuned.feasible ? "yes" : "no",
               Table::num(report.psnr_db, 1), Table::num(report.ssim, 3),
               Table::num(report.max_abs_error, 4), Table::num(report.acf_error, 3)});
  }
  t.print(std::cout);
  std::printf("\nhigher PSNR/SSIM and lower max error / ACF(error) = better fidelity\n"
              "at the same compressed size; pick the backend that wins your metric.\n");
  return 0;
}
