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

/// Parse the header shared by both decoders.  Returns false for the
/// empty-alphabet degenerate case.
bool parse_header(const std::uint8_t* data, std::size_t size, std::size_t& pos,
                  std::uint64_t& symbol_count, std::vector<SymbolStats>& stats) {
  symbol_count = get_varint(data, size, pos);
  rans_detail::parse_alphabet(data, size, pos, kProbBits, stats);
  if (!stats.empty()) return true;
  if (symbol_count != 0) throw CorruptStream("rans: empty alphabet with symbols");
  return false;
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

std::vector<std::uint32_t> rans_decode(const std::uint8_t* data, std::size_t size) {
  std::size_t pos = 0;
  std::uint64_t symbol_count = 0;
  std::vector<SymbolStats> stats;
  if (!parse_header(data, size, pos, symbol_count, stats)) return {};

  // Slot -> symbol index lookup table, filled range-by-range (memset speed
  // instead of a per-slot loop; dominated by the biggest symbol's range on
  // the nearly-constant code streams SZ produces).
  std::vector<std::uint32_t> slot_to_index(kProbScale);
  for (std::uint32_t i = 0; i < stats.size(); ++i)
    std::fill(slot_to_index.begin() + stats[i].cum,
              slot_to_index.begin() + stats[i].cum + stats[i].freq, i);

  const std::uint64_t payload_size = get_varint(data, size, pos);
  if (pos + payload_size != size) throw CorruptStream("rans: payload size mismatch");
  const std::uint8_t* payload = data + pos;

  if (payload_size < 4) throw CorruptStream("rans: payload too small");
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

std::vector<std::uint32_t> rans_decode_ref(const std::uint8_t* data, std::size_t size) {
  std::size_t pos = 0;
  std::uint64_t symbol_count = 0;
  std::vector<SymbolStats> stats;
  if (!parse_header(data, size, pos, symbol_count, stats)) return {};

  std::vector<std::uint32_t> slot_to_index(kProbScale);
  for (std::uint32_t i = 0; i < stats.size(); ++i)
    for (std::uint32_t s = stats[i].cum; s < stats[i].cum + stats[i].freq; ++s)
      slot_to_index[s] = i;

  const std::uint64_t payload_size = get_varint(data, size, pos);
  if (pos + payload_size != size) throw CorruptStream("rans: payload size mismatch");
  const std::uint8_t* payload = data + pos;
  std::size_t byte_pos = 0;
  auto next_byte = [&]() -> std::uint32_t {
    if (byte_pos >= payload_size) throw CorruptStream("rans: truncated payload");
    return payload[byte_pos++];
  };

  if (payload_size < 4) throw CorruptStream("rans: payload too small");
  std::uint32_t state = 0;
  for (int b = 0; b < 4; ++b) state = (state << 8) | next_byte();

  std::vector<std::uint32_t> out;
  out.reserve(std::min<std::uint64_t>(symbol_count, std::uint64_t{1} << 20));
  for (std::uint64_t i = 0; i < symbol_count; ++i) {
    const std::uint32_t slot = state & (kProbScale - 1);
    const SymbolStats& s = stats[slot_to_index[slot]];
    out.push_back(s.symbol);
    state = s.freq * (state >> kProbBits) + slot - s.cum;
    while (state < kStateLow) state = (state << 8) | next_byte();
  }
  if (state != kStateLow) throw CorruptStream("rans: final state mismatch");
  if (byte_pos != payload_size) throw CorruptStream("rans: trailing payload bytes");
  return out;
}

}  // namespace fraz
