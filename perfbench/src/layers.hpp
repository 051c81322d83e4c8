#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

/// \file layers.hpp
/// Layer measurements of the traced run that do not depend on the workload:
/// direct single-thread calls into the entropy codecs, and the backend row
/// (each backend tuned to the target ratio on one campaign field).

#include <cstdint>
#include <string>
#include <vector>

#include "ndarray/ndarray.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Outcome of a layer measurement: its metrics plus the operations it ran
/// and how many gave a wrong result.
struct LayerResult {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

/// codec.* metrics.  The symbol stream is 2^20 u32 quantization codes
/// centred on 32768 with a two-sided geometric spread, P(|k|) ∝ 0.6^|k|
/// (≈2.6 bits/symbol), drawn from \p seed.  rANS and interleaved rANS MB/s
/// count 4 bytes per symbol; LZ runs on the same codes as 2-byte
/// little-endian words.  Each rate is the median over repeated calls; every
/// decode is checked against its input.
LayerResult measure_codecs(std::uint64_t seed);

/// compressors.<backend>.* metrics for sz, sz_blocked (single-thread), szx
/// and zfp: tune \p field to the target ratio, then time single-thread
/// compress and decompress at the tuned bound and report the achieved ratio
/// and PSNR.
LayerResult measure_backends(const fraz::NdArray& field);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_HPP
