#ifndef FRAZ_COMPRESSORS_FPC_FPC_HPP
#define FRAZ_COMPRESSORS_FPC_FPC_HPP

/// \file fpc.hpp
/// FPC-style lossless compressor for hard-to-compress floats (Burtscher &
/// Ratanaworabhan; SNIPPETS.md snippet 1 is the exemplar).
///
/// Two hash-table predictors race on every value: an FCM (finite context
/// method — "the same context produced this value last time") and a DFCM
/// (differential FCM — "the same *delta* context produced this delta").  The
/// winner is whichever prediction XORs against the true bit pattern to more
/// leading zero bytes; a 4-bit header per value records the chosen predictor
/// (1 bit) and the zero-byte count (3 bits), and only the non-zero low bytes
/// of the XOR residual are stored.  No quantization, no entropy stage:
/// exactly one hash + XOR + table update per value, which is why this is the
/// backend the tuner falls back to when smooth-field predictors (sz/zfp)
/// lose — rough, turbulent, or already-compressed data still moves at
/// memcpy-like speed and round-trips bit-exactly (NaN payloads included).
///
/// The compressor is lossless: `set_error_bound` is accepted (any bound is
/// trivially honoured) and ignored.

#include <cstdint>

#include "ndarray/ndarray.hpp"
#include "util/buffer.hpp"

namespace fraz {

/// Tuning knobs of the fpc coder.
struct FpcOptions {
  /// log2 of each predictor hash-table size, in [8, 20].  Bigger tables
  /// remember more contexts (better ratio on large fields) at the cost of
  /// cache footprint; 16 matches the reference implementation's sweet spot.
  unsigned table_bits = 16;
};

/// Compress into a sealed container in the caller's reusable \p out.
void fpc_compress_into(const ArrayView& input, const FpcOptions& options, Buffer& out);

/// Validate and reconstruct (bit-exact).  Throws CorruptStream on malformed
/// frames.
NdArray fpc_decompress(const std::uint8_t* data, std::size_t size);

}  // namespace fraz

#endif  // FRAZ_COMPRESSORS_FPC_FPC_HPP
