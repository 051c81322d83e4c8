#include "codec/rans_interleaved.hpp"

#include <algorithm>

#include "codec/rans_table.hpp"
#include "codec/varint.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace fraz {

namespace {

using rans_detail::kStateLow;
using rans_detail::SymbolStats;

constexpr unsigned kProbBits = kRansInterleavedProbBits;
constexpr std::uint32_t kProbScale = 1u << kProbBits;
constexpr unsigned kWays = kRansWays;

constexpr std::uint8_t kModeRans = 0;
constexpr std::uint8_t kModeRaw = 1;

/// Shared front half of both decoders: header, mode routing, alphabet, and
/// the eight big-endian initial states.  Returns false when the caller is
/// already done (empty stream or raw mode, with \p out filled).
bool decode_prologue(const std::uint8_t* data, std::size_t size,
                     std::uint64_t& symbol_count, std::vector<SymbolStats>& stats,
                     const std::uint8_t*& payload, std::size_t& payload_size,
                     std::size_t& byte_pos, std::uint32_t* states,
                     std::vector<std::uint32_t>& out,
                     const std::uint64_t* expected_count) {
  ByteReader in(data, size, "rans_interleaved");
  symbol_count = in.varint();
  // Callers that know the count reject a hostile header here, before the
  // declared count sizes any allocation: a degenerate one-symbol alphabet
  // decodes with zero payload bytes per symbol, so nothing downstream bounds
  // symbol_count by the blob size.
  if (expected_count && symbol_count != *expected_count) in.fail("symbol count mismatch");
  if (in.u8() != kWays) in.fail("unsupported way count");
  if (symbol_count == 0) {
    in.expect_end();
    return false;
  }
  const std::uint8_t mode = in.u8();
  if (mode == kModeRaw) {
    out.reserve(std::min<std::uint64_t>(symbol_count, std::uint64_t{1} << 20));
    for (std::uint64_t i = 0; i < symbol_count; ++i) {
      const std::uint64_t v = in.varint();
      if (v > 0xffffffffull) in.fail("raw symbol overflow");
      out.push_back(static_cast<std::uint32_t>(v));
    }
    in.expect_end();
    return false;
  }
  if (mode != kModeRans) in.fail("unknown mode");

  rans_detail::parse_alphabet(in, kProbBits, stats);
  if (stats.empty()) in.fail("empty alphabet");
  const ByteReader section = in.section();
  in.expect_end("payload size mismatch");
  payload = section.data();
  payload_size = section.remaining();
  if (payload_size < 4 * kWays) in.fail("payload too small");
  byte_pos = 0;
  for (unsigned w = 0; w < kWays; ++w) {
    std::uint32_t s = 0;
    for (int b = 0; b < 4; ++b) s = (s << 8) | payload[byte_pos++];
    if (s < kStateLow) in.fail("bad initial state");
    states[w] = s;
  }
  return true;
}

void check_epilogue(const std::uint32_t* states, std::size_t byte_pos,
                    std::size_t payload_size) {
  for (unsigned w = 0; w < kWays; ++w)
    if (states[w] != kStateLow) throw CorruptStream("rans_interleaved: final state mismatch");
  if (byte_pos != payload_size) throw CorruptStream("rans_interleaved: trailing payload bytes");
}

}  // namespace

std::vector<std::uint8_t> rans_interleaved_encode(const std::uint32_t* symbols,
                                                  std::size_t n) {
  std::vector<std::uint8_t> out;
  put_varint(out, n);
  out.push_back(static_cast<std::uint8_t>(kWays));
  if (n == 0) return out;

  out.push_back(kModeRans);
  if (rans_detail::encode_stream<kProbBits, kWays>(symbols, n, out)) return out;
  // More distinct symbols than probability slots: the stream is close to
  // incompressible, so store it verbatim instead of failing.
  out.back() = kModeRaw;
  for (std::size_t i = 0; i < n; ++i) put_varint(out, symbols[i]);
  return out;
}

std::vector<std::uint32_t> rans_interleaved_decode_ref(const std::uint8_t* data,
                                                       std::size_t size) {
  std::uint64_t symbol_count = 0;
  std::vector<SymbolStats> stats;
  const std::uint8_t* payload = nullptr;
  std::size_t payload_size = 0, byte_pos = 0;
  std::uint32_t states[kWays];
  std::vector<std::uint32_t> out;
  if (!decode_prologue(data, size, symbol_count, stats, payload, payload_size,
                       byte_pos, states, out, nullptr))
    return out;

  std::vector<std::uint32_t> slot_to_index(kProbScale);
  for (std::uint32_t i = 0; i < stats.size(); ++i)
    for (std::uint32_t s = stats[i].cum; s < stats[i].cum + stats[i].freq; ++s)
      slot_to_index[s] = i;

  out.reserve(std::min<std::uint64_t>(symbol_count, std::uint64_t{1} << 20));
  for (std::uint64_t i = 0; i < symbol_count; ++i) {
    std::uint32_t& x = states[i % kWays];
    const std::uint32_t slot = x & (kProbScale - 1);
    const SymbolStats& s = stats[slot_to_index[slot]];
    out.push_back(s.symbol);
    x = s.freq * (x >> kProbBits) + slot - s.cum;
    while (x < kStateLow) {
      if (byte_pos >= payload_size) throw CorruptStream("rans_interleaved: truncated payload");
      x = (x << 8) | payload[byte_pos++];
    }
  }
  check_epilogue(states, byte_pos, payload_size);
  return out;
}

namespace {

void decode_into_impl(const std::uint8_t* data, std::size_t size,
                      std::vector<std::uint32_t>& out,
                      const std::uint64_t* expected_count) {
  std::uint64_t symbol_count = 0;
  std::vector<SymbolStats> stats;
  const std::uint8_t* payload = nullptr;
  std::size_t payload_size = 0, byte_pos = 0;
  std::uint32_t states[kWays];
  out.clear();
  if (!decode_prologue(data, size, symbol_count, stats, payload, payload_size,
                       byte_pos, states, out, expected_count))
    return;

  // Packed slot table: one 64-bit load per symbol replaces the two dependent
  // loads (slot -> index -> stats) of the reference loop.  2^14 entries =
  // 128 KiB, L2-resident; thread_local so back-to-back group decodes reuse
  // the warm allocation.  No clearing needed: the alphabet's frequencies sum
  // to exactly kProbScale, so the fill below covers every slot.
  thread_local std::vector<std::uint64_t> table;
  table.resize(kProbScale);
  for (const SymbolStats& s : stats) {
    const std::uint64_t entry = (static_cast<std::uint64_t>(s.symbol) << 32) |
                                (static_cast<std::uint64_t>(s.freq) << 16) | s.cum;
    std::fill(table.begin() + s.cum, table.begin() + s.cum + s.freq, entry);
  }

  out.resize(symbol_count);
  std::uint32_t* op = out.data();
  const std::uint64_t rounds = symbol_count / kWays;

  static const bool vec_ok = detail::rans_interleaved_vectorized() &&
                             simd::isa_runtime_ok(detail::rans_interleaved_isa());
  std::uint64_t done = 0;
  if (vec_ok && rounds > 0) {
    byte_pos = detail::rans_interleaved_decode_rounds_vec(
        table.data(), payload, payload_size, byte_pos, states, op, rounds);
    done = rounds * kWays;
  } else {
    // Scalar 8-way rounds: the eight state updates are mutually independent,
    // so the out-of-order core overlaps their load/multiply chains; only the
    // (rare) renormalization byte reads are ordered across lanes.
    for (std::uint64_t r = 0; r < rounds; ++r) {
      if (byte_pos + 3 * kWays <= payload_size) {
        for (unsigned w = 0; w < kWays; ++w) {
          std::uint32_t x = states[w];
          const std::uint32_t slot = x & (kProbScale - 1);
          const std::uint64_t e = table[slot];
          op[w] = static_cast<std::uint32_t>(e >> 32);
          x = static_cast<std::uint32_t>((e >> 16) & 0xffffu) * (x >> kProbBits) + slot -
              static_cast<std::uint32_t>(e & 0xffffu);
          while (x < kStateLow) x = (x << 8) | payload[byte_pos++];
          states[w] = x;
        }
      } else {
        for (unsigned w = 0; w < kWays; ++w) {
          std::uint32_t x = states[w];
          const std::uint32_t slot = x & (kProbScale - 1);
          const std::uint64_t e = table[slot];
          op[w] = static_cast<std::uint32_t>(e >> 32);
          x = static_cast<std::uint32_t>((e >> 16) & 0xffffu) * (x >> kProbBits) + slot -
              static_cast<std::uint32_t>(e & 0xffffu);
          while (x < kStateLow) {
            if (byte_pos >= payload_size)
              throw CorruptStream("rans_interleaved: truncated payload");
            x = (x << 8) | payload[byte_pos++];
          }
          states[w] = x;
        }
      }
      op += kWays;
    }
    done = rounds * kWays;
  }

  // Tail: fewer than kWays symbols, always bounds-checked.
  op = out.data() + done;
  for (std::uint64_t i = done; i < symbol_count; ++i) {
    std::uint32_t& x = states[i % kWays];
    const std::uint32_t slot = x & (kProbScale - 1);
    const std::uint64_t e = table[slot];
    *op++ = static_cast<std::uint32_t>(e >> 32);
    x = static_cast<std::uint32_t>((e >> 16) & 0xffffu) * (x >> kProbBits) + slot -
        static_cast<std::uint32_t>(e & 0xffffu);
    while (x < kStateLow) {
      if (byte_pos >= payload_size) throw CorruptStream("rans_interleaved: truncated payload");
      x = (x << 8) | payload[byte_pos++];
    }
  }
  check_epilogue(states, byte_pos, payload_size);
}

}  // namespace

void rans_interleaved_decode_into(const std::uint8_t* data, std::size_t size,
                                  std::vector<std::uint32_t>& out) {
  decode_into_impl(data, size, out, nullptr);
}

void rans_interleaved_decode_into(const std::uint8_t* data, std::size_t size,
                                  std::vector<std::uint32_t>& out,
                                  std::uint64_t expected_count) {
  decode_into_impl(data, size, out, &expected_count);
}

std::vector<std::uint32_t> rans_interleaved_decode(const std::uint8_t* data,
                                                   std::size_t size) {
  std::vector<std::uint32_t> out;
  rans_interleaved_decode_into(data, size, out);
  return out;
}

}  // namespace fraz
