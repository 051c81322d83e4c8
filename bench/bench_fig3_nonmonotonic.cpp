/// Reproduction of Fig. 3: the relationship between SZ's error bound and its
/// compression ratio on the Hurricane QCLOUDf.log10 field is NOT monotonic.
///
/// The paper plots a dense sweep plus two zoom windows and attributes the
/// wiggles to (a) prediction from decompressed data and (b) the Huffman →
/// dictionary-coder interaction.  This bench sweeps the analogue field,
/// prints the curve, and counts monotonicity violations — the reproduction
/// succeeds when violations exist (binary search would be unsound).

#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "compressors/sz/sz.hpp"
#include "metrics/error_stats.hpp"

int main(int argc, char** argv) {
  using namespace fraz;
  Cli cli("Fig. 3 reproduction: non-monotonic ratio vs error bound (SZ)");
  cli.add_string("scale", "small", "suite scale: tiny|small|medium");
  cli.add_int("points", 80, "sweep resolution");
  if (!cli.parse(argc, argv)) return 0;

  bench::banner("Fig. 3", "SZ compression ratio vs error bound (QCLOUDf.log10 analogue)",
                "ratio rises overall but with local decreases/spikes -> not monotonic");

  const auto ds = data::dataset_by_name("hurricane", bench::parse_scale(cli.get_string("scale")));
  const NdArray field =
      data::generate_field(data::field_by_name(ds, "QCLOUDf.log10"), 0);
  const int points = static_cast<int>(cli.get_int("points"));

  // The paper sweeps bounds up to ~0.55 on the log field; our analogue has a
  // comparable value range, sweep a matching span.
  const double hi = 0.55;
  const double lo = hi / points;

  std::vector<std::pair<double, double>> curve;
  Table t({"error_bound", "ratio"});
  for (int i = 1; i <= points; ++i) {
    const double bound = lo * i;
    SzOptions opt;
    opt.error_bound = bound;
    Buffer compressed;
    sz_compress_into(field.view(), opt, compressed);
    const double ratio = compression_ratio(field.size_bytes(), compressed.size());
    curve.emplace_back(bound, ratio);
    t.add_row({Table::num(bound, 4), Table::num(ratio, 2)});
  }
  t.print(std::cout);

  int violations = 0;
  double worst_drop = 0;
  for (std::size_t i = 1; i < curve.size(); ++i) {
    if (curve[i].second < curve[i - 1].second) {
      ++violations;
      worst_drop = std::max(worst_drop, curve[i - 1].second - curve[i].second);
    }
  }
  std::printf("\nmonotonicity violations: %d of %zu intervals (largest drop: %.2f)\n",
              violations, curve.size() - 1, worst_drop);
  std::printf("shape check (non-monotonic, as in the paper): %s\n",
              violations > 0 ? "HOLDS" : "VIOLATED");
  return violations > 0 ? 0 : 1;
}
