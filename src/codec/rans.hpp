#ifndef FRAZ_CODEC_RANS_HPP
#define FRAZ_CODEC_RANS_HPP

/// \file rans.hpp
/// Static range asymmetric numeral system (rANS) coder for 32-bit integer
/// symbols.
///
/// Role in the reproduction: SZ 2.1.7's fourth stage is Zstd, whose FSE
/// entropy backend approaches the order-0 entropy of the Huffman-coded
/// stream; plain Huffman's 1-bit-per-symbol floor caps the compression ratio
/// of nearly-constant quantization-code streams far below what the paper's
/// SZ achieves at extreme ratios.  The SZ pipeline therefore entropy-codes
/// its quantization codes with this rANS coder (entropy-optimal to within
/// ~0.01 bits/symbol), while the MGARD reproduction keeps the plain
/// Huffman+LZ backend of its 2019-era original.
///
/// Wire format:
///   varint  symbol_count
///   varint  distinct_count
///   repeated distinct_count times:
///     varint  symbol delta (ascending; first absolute)
///     varint  normalized frequency (1..2^17, sums to 2^17)
///   varint  payload byte count, payload bytes (decoder reads forward)
///
/// Deterministic: equal inputs produce equal bytes.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fraz {

/// Probability resolution: 2^17 slots, enough for the full 2^16+1 SZ code
/// alphabet to keep frequency >= 1 per code.
constexpr unsigned kRansProbBits = 17;

/// Encode \p n symbols.
std::vector<std::uint8_t> rans_encode(const std::uint32_t* symbols, std::size_t n);

inline std::vector<std::uint8_t> rans_encode(const std::vector<std::uint32_t>& symbols) {
  return rans_encode(symbols.data(), symbols.size());
}

/// Decode a buffer produced by rans_encode; throws CorruptStream on any
/// malformed input.  Uses a flattened decode loop (a dominant-symbol range
/// check, a slot lookup sized by the alphabet rather than the 2^17 scale,
/// hoisted renormalization bounds checks); bit-identical to rans_decode_ref.
std::vector<std::uint32_t> rans_decode(const std::uint8_t* data, std::size_t size);

/// Same decode, but the stream must declare exactly \p expected_count
/// symbols.  Callers that know the count (the sz decoder: the frame's
/// element count) must use this form: a one-symbol alphabet decodes with
/// zero payload bytes per symbol, so only this check stops a 14-byte header
/// from sizing the output.
std::vector<std::uint32_t> rans_decode(const std::uint8_t* data, std::size_t size,
                                       std::uint64_t expected_count);

inline std::vector<std::uint32_t> rans_decode(const std::vector<std::uint8_t>& data) {
  return rans_decode(data.data(), data.size());
}

/// Reference decoder (the original straightforward loop).  Kept as the
/// behavioural baseline the fast path is pinned against
/// (tests/test_simd_kernels.cpp) and as the bench comparison point.
std::vector<std::uint32_t> rans_decode_ref(const std::uint8_t* data, std::size_t size);

}  // namespace fraz

#endif  // FRAZ_CODEC_RANS_HPP
