/// Reproduction of Fig. 10: visual quality on NYX temperature at CR ~ 85:1.
///
/// The paper wanted 100:1 but settled on 85:1, ZFP's closest feasible ratio;
/// this bench does the same search.  It reports PSNR, SSIM, and ACF(error)
/// for ZFP(FRaZ), ZFP(fixed-rate), SZ(FRaZ), and MGARD(FRaZ), and dumps the
/// middle slice of each reconstruction as a PGM image (plus the original)
/// under ./bench_artifacts/.
///
/// Expected shapes: ZFP(FRaZ) far better than ZFP(fixed-rate) on PSNR/SSIM;
/// SZ(FRaZ) best overall; MGARD(FRaZ) lowest quality on this dataset.

#include <cstdio>
#include <iostream>
#include <filesystem>
#include <string>

#include "bench_common.hpp"
#include "core/tuner.hpp"
#include "metrics/acf.hpp"
#include "metrics/error_stats.hpp"
#include "metrics/ssim.hpp"
#include "pressio/options.hpp"
#include "util/pgm.hpp"

namespace {

using namespace fraz;

struct Row {
  std::string label;
  double ratio = 0;
  double psnr = 0;
  double ssim_v = 0;
  double acf = 0;
  bool valid = false;
  NdArray decoded;
};

Row measure(const std::string& label, const pressio::Compressor& compressor,
            const ArrayView& view) {
  Row row;
  row.label = label;
  Buffer compressed;
  compressor.compress_into(view, compressed).throw_if_error();
  compressor.decompress_into(compressed.data(), compressed.size(), row.decoded).throw_if_error();
  const ErrorStats stats = error_stats(view, row.decoded.view());
  row.ratio = compression_ratio(view.size_bytes(), compressed.size());
  row.psnr = stats.psnr_db;
  row.ssim_v = ssim(view, row.decoded.view());
  row.acf = error_acf(view, row.decoded.view());
  row.valid = true;
  return row;
}

void dump_slice(const NdArray& field, const std::string& path) {
  const NdArray slice = field.slice2d(field.shape()[0] / 2);
  write_pgm(path, slice.to_doubles(), slice.shape()[1], slice.shape()[0]);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fraz;
  Cli cli("Fig. 10 reproduction: visual quality at CR ~ 85:1 (NYX temperature)");
  // Medium scale by default: CR 85 archives of the small field would sit
  // below the codecs' fixed overhead floor (the paper used a 512^3 field).
  cli.add_string("scale", "medium", "suite scale: tiny|small|medium");
  cli.add_double("target", 85.0, "target compression ratio (paper: 85)");
  cli.add_string("artifacts", "bench_artifacts", "output directory for PGM slices");
  if (!cli.parse(argc, argv)) return 0;

  bench::banner("Fig. 10", "visual quality at CR~85 (NYX temperature analogue)",
                "ZFP(FRaZ) >> ZFP(fixed-rate) on PSNR/SSIM; SZ(FRaZ) best; MGARD lowest");

  const auto ds = data::dataset_by_name("nyx", bench::parse_scale(cli.get_string("scale")));
  const NdArray field = data::generate_field(data::field_by_name(ds, "temperature"), 0);
  const ArrayView view = field.view();
  const double target = cli.get_double("target");

  const std::string artifacts = cli.get_string("artifacts");
  std::filesystem::create_directories(artifacts);
  dump_slice(field, artifacts + "/fig10_original.pgm");

  TunerConfig cfg;
  cfg.target_ratio = target;
  cfg.epsilon = 0.15;
  cfg.regions = 8;
  cfg.max_evals_per_region = 16;
  // ZFP needs tolerances above the value range to reach CR~85 (its accuracy
  // mode keeps collapsing blocks); the paper's remedy for a too-small U is
  // rerunning with the compressor's maximum allowed bound -- emulate that by
  // opening the cap to several times the range.
  cfg.max_error_bound = value_range(view) * 16.0;

  std::vector<Row> rows;
  for (const std::string backend : {"zfp", "sz", "mgard"}) {
    auto compressor = pressio::registry().create(backend);
    const Tuner tuner(*compressor, cfg);
    const TuneResult r = tuner.tune(view);
    if (r.error_bound <= 0) continue;
    compressor->set_error_bound(r.error_bound);
    rows.push_back(measure(backend + "(FRaZ)", *compressor, view));
    dump_slice(rows.back().decoded, artifacts + "/fig10_" + backend + "_fraz.pgm");
  }
  {
    auto compressor = pressio::registry().create("zfp");
    pressio::Options o;
    o.set("zfp:mode", std::string("rate"));
    o.set("zfp:rate", 32.0 / target);
    compressor->set_options(o);
    rows.push_back(measure("zfp(fixed-rate)", *compressor, view));
    dump_slice(rows.back().decoded, artifacts + "/fig10_zfp_fixed_rate.pgm");
  }

  Table t({"method", "ratio", "psnr_db", "ssim", "acf_error"});
  double zfp_fraz_psnr = 0, zfp_rate_psnr = 0, sz_psnr = 0, mgard_psnr = 1e300;
  for (const Row& row : rows) {
    t.add_row({row.label, Table::num(row.ratio, 1), Table::num(row.psnr, 1),
               Table::num(row.ssim_v, 3), Table::num(row.acf, 3)});
    if (row.label == "zfp(FRaZ)") zfp_fraz_psnr = row.psnr;
    if (row.label == "zfp(fixed-rate)") zfp_rate_psnr = row.psnr;
    if (row.label == "sz(FRaZ)") sz_psnr = row.psnr;
    if (row.label == "mgard(FRaZ)") mgard_psnr = row.psnr;
  }
  t.print(std::cout);
  std::printf("\nslice images written to %s/fig10_*.pgm\n", artifacts.c_str());

  std::printf("shape checks: ZFP(FRaZ) > ZFP(fixed-rate): %s; SZ best: %s; MGARD lowest: %s\n",
              zfp_fraz_psnr > zfp_rate_psnr ? "HOLDS" : "VIOLATED",
              sz_psnr >= zfp_fraz_psnr ? "HOLDS" : "VIOLATED",
              mgard_psnr <= std::min({zfp_fraz_psnr, sz_psnr}) ? "HOLDS" : "VIOLATED");
  return 0;
}
