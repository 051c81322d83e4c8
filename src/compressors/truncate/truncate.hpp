#ifndef FRAZ_COMPRESSORS_TRUNCATE_TRUNCATE_HPP
#define FRAZ_COMPRESSORS_TRUNCATE_TRUNCATE_HPP

/// \file truncate.hpp
/// Mantissa-truncation fixed-ratio compressor — the strawman the paper's
/// introduction dismisses: "fixed-ratio compression can be obtained by
/// simply truncating the mantissa of the floating-point numbers, [but] this
/// approach may not respect the user's diverse error constraints."
///
/// Each scalar keeps its top `bits` bits (sign, exponent, leading mantissa
/// bits); the rest are dropped and the kept prefixes are bit-packed.  The
/// ratio is exactly `width / bits` by construction, with no error control
/// whatsoever — which is precisely why it serves as the baseline showing
/// what FRaZ's error-bounded tuning buys (quality at equal ratio).

#include <cstdint>

#include "ndarray/ndarray.hpp"
#include "util/buffer.hpp"

namespace fraz {

/// Tuning knob of the truncation coder.
struct TruncateOptions {
  /// Bits kept per scalar (1..width).  Ratio = width/bits exactly.
  unsigned bits = 16;
};

/// Compress by keeping the top `bits` of every scalar, into a sealed
/// container in the caller's reusable \p out (cleared first, capacity
/// retained across calls).
void truncate_compress_into(const ArrayView& input, const TruncateOptions& options,
                            Buffer& out);

/// Reconstruct: kept prefix, dropped bits refilled with the midpoint pattern
/// (1 followed by zeros) to halve the expected truncation error.
NdArray truncate_decompress(const std::uint8_t* data, std::size_t size);

}  // namespace fraz

#endif  // FRAZ_COMPRESSORS_TRUNCATE_TRUNCATE_HPP
