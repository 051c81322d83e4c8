#include "pressio/evaluate.hpp"

#include <limits>

#include "metrics/acf.hpp"
#include "metrics/error_stats.hpp"
#include "metrics/ssim.hpp"
#include "util/timer.hpp"

namespace fraz::pressio {

Result<FidelityReport> evaluate_fidelity(const Compressor& compressor,
                                         const ArrayView& input) noexcept {
  return guarded([&]() -> Result<FidelityReport> {
    FidelityReport report;
    report.probe.input_bytes = input.size_bytes();

    Buffer compressed;
    Timer timer;
    Status s = compressor.compress_into(input, compressed);
    report.probe.seconds = timer.seconds();
    if (!s.ok()) return s;
    report.probe.compressed_bytes = compressed.size();
    report.probe.ratio = compression_ratio(report.probe.input_bytes, compressed.size());
    report.probe.bit_rate = bit_rate(input.elements(), compressed.size());

    timer.reset();
    NdArray decoded;
    s = compressor.decompress_into(compressed.data(), compressed.size(), decoded);
    report.seconds_decompress = timer.seconds();
    if (!s.ok()) return s;

    const ErrorStats stats = error_stats(input, decoded.view());
    report.psnr_db = stats.psnr_db;
    report.rmse = stats.rmse;
    report.max_abs_error = stats.max_abs_error;
    report.acf_error = error_acf(input, decoded.view());
    report.ssim = input.dims() >= 2 ? ssim(input, decoded.view())
                                    : std::numeric_limits<double>::quiet_NaN();
    return report;
  });
}

}  // namespace fraz::pressio
