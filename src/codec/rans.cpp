#include "codec/rans.hpp"

#include <algorithm>
#include <memory>

#include "codec/rans_table.hpp"
#include "codec/varint.hpp"
#include "util/error.hpp"

namespace fraz {

namespace {

using rans_detail::kStateLow;
using rans_detail::SymbolStats;

constexpr unsigned kProbBits = kRansProbBits;
constexpr std::uint32_t kProbScale = 1u << kProbBits;
/// Smallest slot-lookup bucket table (2^10 entries of 2^7 slots each);
/// larger alphabets get more buckets, up to one per slot.
constexpr unsigned kMinBucketBits = 10;

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
  // A stream of one symbol (an sz chunk whose codes are all one value) needs
  // neither the census nor the state loop; the scan stops at the first
  // other symbol.
  const std::uint32_t first = symbols[0];
  if (std::all_of(symbols + 1, symbols + n, [first](std::uint32_t s) { return s == first; })) {
    rans_detail::encode_one_symbol_stream<kProbBits>(first, out);
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

  // Slot -> symbol lookup: a bucket table over the slot range names the
  // symbol owning each bucket's first slot, and a short forward scan over
  // the cumulative ranges finishes the search.  The ranges tile the scale
  // exactly, so every bucket start is written once and nothing is zeroed;
  // with at least two buckets per symbol the setup is O(alphabet), not the
  // 2^17-slot table the reference fills per call.
  unsigned bucket_bits = kMinBucketBits;
  while (bucket_bits < kProbBits && (std::size_t{1} << bucket_bits) < 2 * stats.size())
    ++bucket_bits;
  const unsigned bucket_shift = kProbBits - bucket_bits;
  const std::unique_ptr<std::uint32_t[]> bucket(new std::uint32_t[std::size_t{1} << bucket_bits]);
  for (std::uint32_t i = 0; i < stats.size(); ++i) {
    const std::uint32_t end = stats[i].cum + stats[i].freq;
    for (std::uint32_t b = (stats[i].cum + (1u << bucket_shift) - 1) >> bucket_shift;
         (b << bucket_shift) < end; ++b)
      bucket[b] = i;
  }

  const ByteReader section = payload_section(in);
  const std::uint8_t* payload = section.data();
  const std::size_t payload_size = section.remaining();
  std::uint32_t state = 0;
  std::size_t byte_pos = 0;
  for (int b = 0; b < 4; ++b) state = (state << 8) | payload[byte_pos++];

  // The decode chain is slot -> bucket load -> stats scan -> state update.
  // A register-only range check answers the most frequent symbol's slots
  // without touching the tables, and a predicted branch lets the state
  // update run ahead of the loads.  It pays even on the sz chunks where
  // that symbol holds only a fifth of the slots.
  const SymbolStats* dom = &stats[0];
  for (const SymbolStats& s : stats)
    if (s.freq > dom->freq) dom = &s;
  const std::uint32_t dom_cum = dom->cum;
  const std::uint32_t dom_freq = dom->freq;

  // Symbols are stored through a raw cursor; push_back's bookkeeping cost
  // ~15% of this loop.  The declared count is not trusted to size the
  // output (see parse_header), so it grows from a capped start.
  std::vector<std::uint32_t> out(std::min<std::uint64_t>(symbol_count, std::uint64_t{1} << 20));
  std::uint32_t* cursor = out.data();
  std::uint32_t* limit = cursor + out.size();
  for (std::uint64_t i = 0; i < symbol_count; ++i) {
    if (cursor == limit) {
      out.resize(std::min<std::uint64_t>(symbol_count, 2 * out.size()));
      cursor = out.data() + i;
      limit = out.data() + out.size();
    }
    const std::uint32_t slot = state & (kProbScale - 1);
    // Unsigned wrap makes one compare of slot - cum cover both range ends.
    const SymbolStats* s = dom;
    if (slot - dom_cum >= dom_freq) {
      s = &stats[bucket[slot >> bucket_shift]];
      while (slot - s->cum >= s->freq) ++s;
    }
    *cursor++ = s->symbol;
    state = s->freq * (state >> kProbBits) + slot - s->cum;
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
