#ifndef FRAZ_CODEC_RANS_TABLE_HPP
#define FRAZ_CODEC_RANS_TABLE_HPP

/// \file rans_table.hpp
/// Internal to rans.cpp and rans_interleaved.cpp: the one table builder,
/// payload encoder and alphabet parser both coders are built on.  They differ
/// only in probability resolution (2^17 single-state, 2^14 interleaved), in
/// state count and in their headers.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "codec/varint.hpp"

namespace fraz::rans_detail {

/// Renormalization interval: every state stays in [kStateLow, kStateLow*256).
constexpr std::uint32_t kStateLow = 1u << 23;

struct SymbolStats {
  std::uint32_t symbol;
  std::uint32_t freq;  // normalized, >= 1
  std::uint32_t cum;   // cumulative start
};

/// Append the alphabet section and the payload of symbols[0..n), n >= 1,
/// coded at 2^ProbBits with Ways interleaved states (symbol i belongs to
/// state i % Ways):
///   varint distinct count, then per symbol in ascending order a varint
///   symbol delta (first absolute) and a varint normalized frequency;
///   varint payload byte count, then Ways big-endian initial states (state 0
///   first) and the renormalization bytes in decode order.
/// Returns false, appending nothing, when there are more distinct symbols
/// than probability slots.
template <unsigned ProbBits, unsigned Ways>
bool encode_stream(const std::uint32_t* symbols, std::size_t n, std::vector<std::uint8_t>& out);

/// Append exactly what encode_stream<ProbBits, 1> appends for a stream of
/// n >= 1 copies of \p symbol, without its census or state loop.  The one
/// symbol owns all 2^ProbBits slots, and an encode step with freq ==
/// 2^ProbBits maps every state to itself (x_max is 2^31, so no renorm byte;
/// q * cmpl_freq is 0; cum is 0), so the payload is the initial state
/// kStateLow alone, whatever n is.
template <unsigned ProbBits>
void encode_one_symbol_stream(std::uint32_t symbol, std::vector<std::uint8_t>& out);

/// Read an alphabet section written by encode_stream into \p stats (left
/// empty when its distinct count is 0), assigning cumulative starts.  Throws
/// CorruptStream on more than 2^prob_bits symbols, a frequency outside
/// 1..2^prob_bits, or frequencies that do not sum to exactly 2^prob_bits.
void parse_alphabet(ByteReader& in, unsigned prob_bits, std::vector<SymbolStats>& stats);

}  // namespace fraz::rans_detail

#endif  // FRAZ_CODEC_RANS_TABLE_HPP
