#include "codec/rans.hpp"

#include <algorithm>

#include "codec/rans_table.hpp"
#include "codec/varint.hpp"
#include "util/error.hpp"

namespace fraz {

namespace {

using rans_detail::kStateLow;
using rans_detail::SymbolStats;

constexpr unsigned kProbBits = kRansProbBits;
constexpr std::uint32_t kProbScale = 1u << kProbBits;

/// Parse the header shared by both decoders up to the payload section.
/// Returns false for the empty-alphabet degenerate case.  A caller that
/// knows the count passes \p expected_count, so a hostile header is rejected
/// before the declared count sizes the output: a one-symbol alphabet decodes
/// with zero payload bytes per symbol, so nothing else bounds the count.
bool parse_header(ByteReader& in, std::uint64_t& symbol_count,
                  std::vector<SymbolStats>& stats, const std::uint64_t* expected_count) {
  symbol_count = in.varint();
  if (expected_count && symbol_count != *expected_count) in.fail("symbol count mismatch");
  rans_detail::parse_alphabet(in, kProbBits, stats);
  if (!stats.empty()) return true;
  if (symbol_count != 0) in.fail("empty alphabet with symbols");
  return false;
}

/// The payload section that ends the stream; at least the initial state.
ByteReader payload_section(ByteReader& in) {
  ByteReader payload = in.section();
  in.expect_end("payload size mismatch");
  if (payload.remaining() < 4) in.fail("payload too small");
  return payload;
}

}  // namespace

std::vector<std::uint8_t> rans_encode(const std::uint32_t* symbols, std::size_t n) {
  std::vector<std::uint8_t> out;
  put_varint(out, n);
  if (n == 0) {
    put_varint(out, 0);  // empty alphabet
    return out;
  }
  require(rans_detail::encode_stream<kProbBits, 1>(symbols, n, out),
          "rans: alphabet exceeds the probability table");
  return out;
}

namespace {

std::vector<std::uint32_t> decode_impl(const std::uint8_t* data, std::size_t size,
                                       const std::uint64_t* expected_count) {
  ByteReader in(data, size, "rans");
  std::uint64_t symbol_count = 0;
  std::vector<SymbolStats> stats;
  if (!parse_header(in, symbol_count, stats, expected_count)) return {};

  // Slot -> symbol index lookup table, filled range-by-range (memset speed
  // instead of a per-slot loop; dominated by the biggest symbol's range on
  // the nearly-constant code streams SZ produces).
  std::vector<std::uint32_t> slot_to_index(kProbScale);
  for (std::uint32_t i = 0; i < stats.size(); ++i)
    std::fill(slot_to_index.begin() + stats[i].cum,
              slot_to_index.begin() + stats[i].cum + stats[i].freq, i);

  const ByteReader section = payload_section(in);
  const std::uint8_t* payload = section.data();
  const std::size_t payload_size = section.remaining();
  std::uint32_t state = 0;
  std::size_t byte_pos = 0;
  for (int b = 0; b < 4; ++b) state = (state << 8) | payload[byte_pos++];

  // The decode chain is slot -> slot_to_index load -> stats load -> state
  // update, and the 512 KiB slot table is indexed by an effectively random
  // slot — a cache miss on the critical path.  SZ code streams are sharply
  // peaked, so the most frequent symbol owns most of the slot range: a
  // register-only range check answers those iterations without touching the
  // table, and only the tail of the distribution pays the indirection.
  const SymbolStats* dom = &stats[0];
  for (const SymbolStats& s : stats)
    if (s.freq > dom->freq) dom = &s;
  const std::uint32_t dom_cum = dom->cum;
  const std::uint32_t dom_freq = dom->freq;

  std::vector<std::uint32_t> out;
  out.reserve(std::min<std::uint64_t>(symbol_count, std::uint64_t{1} << 20));
  for (std::uint64_t i = 0; i < symbol_count; ++i) {
    const std::uint32_t slot = state & (kProbScale - 1);
    // Unsigned wrap makes one compare of slot - cum cover both range ends.
    const SymbolStats& s =
        slot - dom_cum < dom_freq ? *dom : stats[slot_to_index[slot]];
    out.push_back(s.symbol);
    state = s.freq * (state >> kProbBits) + slot - s.cum;
    if (state < kStateLow) {
      // Renormalization needs at most 3 bytes once state >= 1 (state == 0
      // only reachable from a corrupt initial state), so the common case
      // runs with the bounds check hoisted out of the byte loop.
      if (state != 0 && byte_pos + 3 <= payload_size) {
        do {
          state = (state << 8) | payload[byte_pos++];
        } while (state < kStateLow);
      } else {
        while (state < kStateLow) {
          if (byte_pos >= payload_size) throw CorruptStream("rans: truncated payload");
          state = (state << 8) | payload[byte_pos++];
        }
      }
    }
  }
  if (state != kStateLow) throw CorruptStream("rans: final state mismatch");
  if (byte_pos != payload_size) throw CorruptStream("rans: trailing payload bytes");
  return out;
}

}  // namespace

std::vector<std::uint32_t> rans_decode(const std::uint8_t* data, std::size_t size) {
  return decode_impl(data, size, nullptr);
}

std::vector<std::uint32_t> rans_decode(const std::uint8_t* data, std::size_t size,
                                       std::uint64_t expected_count) {
  return decode_impl(data, size, &expected_count);
}

std::vector<std::uint32_t> rans_decode_ref(const std::uint8_t* data, std::size_t size) {
  ByteReader in(data, size, "rans");
  std::uint64_t symbol_count = 0;
  std::vector<SymbolStats> stats;
  if (!parse_header(in, symbol_count, stats, nullptr)) return {};

  std::vector<std::uint32_t> slot_to_index(kProbScale);
  for (std::uint32_t i = 0; i < stats.size(); ++i)
    for (std::uint32_t s = stats[i].cum; s < stats[i].cum + stats[i].freq; ++s)
      slot_to_index[s] = i;

  ByteReader payload = payload_section(in);
  std::uint32_t state = 0;
  for (int b = 0; b < 4; ++b) state = (state << 8) | payload.u8();

  std::vector<std::uint32_t> out;
  out.reserve(std::min<std::uint64_t>(symbol_count, std::uint64_t{1} << 20));
  for (std::uint64_t i = 0; i < symbol_count; ++i) {
    const std::uint32_t slot = state & (kProbScale - 1);
    const SymbolStats& s = stats[slot_to_index[slot]];
    out.push_back(s.symbol);
    state = s.freq * (state >> kProbBits) + slot - s.cum;
    while (state < kStateLow) state = (state << 8) | payload.u8();
  }
  if (state != kStateLow) throw CorruptStream("rans: final state mismatch");
  payload.expect_end("trailing payload bytes");
  return out;
}

}  // namespace fraz
