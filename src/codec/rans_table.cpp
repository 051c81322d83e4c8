#include "codec/rans_table.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <utility>

#include "codec/rans.hpp"
#include "codec/rans_interleaved.hpp"
#include "codec/varint.hpp"
#include "util/error.hpp"

namespace fraz::rans_detail {

namespace {

using Census = std::vector<std::pair<std::uint32_t, std::uint64_t>>;

/// One symbol's encode step.  For every state x < 2^31 (the renormalized
/// range) and freq <= 2^ProbBits,
///   x / freq == (x * rcp_freq) >> rcp_shift,
/// which turns ((x / freq) << ProbBits) + (x % freq) + cum into
/// x + bias + (x / freq) * cmpl_freq, bit-identical to the division form.
struct EncSymbol {
  std::uint32_t x_max;      // renormalize while x >= x_max
  std::uint32_t rcp_freq;   // fixed-point 1/freq
  std::uint32_t bias;
  std::uint32_t cmpl_freq;  // 2^ProbBits - freq
  std::uint32_t rcp_shift;  // 32 + ceil(log2(freq)) - 1
};

/// Sorted (symbol, count) census.  A dense range counts in \p index
/// (offset by \p lo), which the caller then reuses as its symbol -> entry
/// index; \p index stays empty for sparse alphabets.
Census take_census(const std::uint32_t* symbols, std::size_t n,
                   std::vector<std::uint32_t>& index, std::uint32_t& lo) {
  std::uint32_t hi = lo = symbols[0];
  for (std::size_t i = 1; i < n; ++i) {
    lo = std::min(lo, symbols[i]);
    hi = std::max(hi, symbols[i]);
  }
  const std::uint64_t range = static_cast<std::uint64_t>(hi) - lo + 1;
  Census census;
  if (range <= (std::uint64_t{1} << 20) && n <= std::numeric_limits<std::uint32_t>::max()) {
    index.assign(static_cast<std::size_t>(range), 0);
    for (std::size_t i = 0; i < n; ++i) ++index[symbols[i] - lo];
    for (std::size_t v = 0; v < index.size(); ++v)
      if (index[v] != 0) census.emplace_back(lo + static_cast<std::uint32_t>(v), index[v]);
  } else {
    std::map<std::uint32_t, std::uint64_t> map_census;
    for (std::size_t i = 0; i < n; ++i) ++map_census[symbols[i]];
    census.assign(map_census.begin(), map_census.end());
  }
  return census;
}

/// Normalize a census sorted by symbol so the frequencies sum exactly to
/// \p scale.  Deterministic: rounding drift is absorbed by the symbols with
/// the largest frequencies, visiting them in descending (frequency, symbol)
/// order.  The first symbol in that order takes a surplus whole, and almost
/// always has room for an overshoot too, so it is found in one pass; only an
/// overshoot it cannot absorb sorts the alphabet.
std::vector<SymbolStats> normalize(const Census& census, std::uint64_t total,
                                   std::uint32_t scale) {
  std::vector<SymbolStats> stats;
  stats.reserve(census.size());
  std::int64_t assigned = 0;
  std::size_t heaviest = 0;
  for (const auto& [symbol, count] : census) {
    auto freq = static_cast<std::uint32_t>(count * scale / total);
    if (freq == 0) freq = 1;
    // The census ascends by symbol, so a tie keeps the smaller symbol.
    if (stats.empty() || freq > stats[heaviest].freq) heaviest = stats.size();
    stats.push_back({symbol, freq, 0});
    assigned += freq;
  }
  std::int64_t drift = static_cast<std::int64_t>(scale) - assigned;
  SymbolStats& first = stats[heaviest];
  if (drift > 0 || (drift < 0 && first.freq - 1 >= static_cast<std::uint64_t>(-drift))) {
    first.freq = static_cast<std::uint32_t>(first.freq + drift);
    drift = 0;
  }
  if (drift != 0) {
    std::vector<std::size_t> order(stats.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return stats[a].freq != stats[b].freq ? stats[a].freq > stats[b].freq
                                            : stats[a].symbol < stats[b].symbol;
    });
    for (std::size_t i = 0; drift != 0; i = (i + 1) % order.size()) {
      SymbolStats& s = stats[order[i]];
      if (s.freq > 1) {
        const auto take =
            static_cast<std::uint32_t>(std::min<std::int64_t>(-drift, s.freq - 1));
        s.freq -= take;
        drift += take;
      }
    }
  }
  std::uint32_t cum = 0;
  for (auto& s : stats) {
    s.cum = cum;
    cum += s.freq;
  }
  return stats;
}

template <unsigned ProbBits>
EncSymbol make_entry(const SymbolStats& s) {
  EncSymbol e{};
  e.x_max = ((kStateLow >> ProbBits) << 8) * s.freq;
  e.cmpl_freq = (1u << ProbBits) - s.freq;
  if (s.freq < 2) {
    // freq == 1: q == x, so fold the (x << ProbBits) expansion into bias.
    e.rcp_freq = ~0u;
    e.rcp_shift = 32;
    e.bias = s.cum + (1u << ProbBits) - 1;
  } else {
    std::uint32_t shift = 0;
    while (s.freq > (1u << shift)) ++shift;
    e.rcp_freq = static_cast<std::uint32_t>(
        ((std::uint64_t{1} << (shift + 31)) + s.freq - 1) / s.freq);
    e.rcp_shift = 32 + shift - 1;
    e.bias = s.cum;
  }
  return e;
}

/// Call step(lane) for lane = sizeof...(L)-1 down to 0, each lane a
/// compile-time constant.
template <typename Step, std::size_t... L>
void for_lanes_down(Step&& step, std::index_sequence<L...>) {
  (step(std::integral_constant<std::size_t, sizeof...(L) - 1 - L>{}), ...);
}

/// Append the payload of keys[0..n): varint byte count, then the bytes.
/// Key i codes with entries[index[keys[i] - lo]].
template <unsigned ProbBits, unsigned Ways>
void put_payload(const std::uint32_t* keys, std::size_t n, const std::uint32_t* index,
                 std::uint32_t lo, const EncSymbol* entries, std::vector<std::uint8_t>& out) {
  // Encode in reverse so the decoder emits forward: renormalization bytes
  // are emitted before each encode step and the whole payload is reversed
  // once at the end, which makes every state's byte sequence exactly that of
  // a single-state rANS over its own symbol subsequence.
  //
  // The renorm is branchless: a state below 2^31 drops under
  // x_max >= 2^(31 - ProbBits) within kMaxRenorm bytes, so every candidate
  // byte is stored and the cursor advances by however many were needed.
  // Bytes are staged on the stack a block at a time, so the only heap buffer
  // is the output.
  constexpr unsigned kMaxRenorm = (ProbBits + 7) / 8;
  constexpr std::size_t kBlock = 4096;
  static_assert(kBlock % Ways == 0, "blocks hold whole rounds");
  std::uint8_t stage[kMaxRenorm * (kBlock + Ways)];
  std::uint8_t* pp = stage;
  const auto encode = [&](std::uint32_t& x, std::uint32_t key) {
    const EncSymbol e = entries[index[key - lo]];
    unsigned renorm = 0;
    for (unsigned b = 0; b < kMaxRenorm; ++b) {
      pp[b] = static_cast<std::uint8_t>(x >> (8 * b));
      renorm += static_cast<unsigned>(x >= (std::uint64_t{e.x_max} << (8 * b)));
    }
    pp += renorm;
    x >>= 8 * renorm;
    const auto q = static_cast<std::uint32_t>((std::uint64_t{x} * e.rcp_freq) >> e.rcp_shift);
    x += e.bias + q * e.cmpl_freq;
  };
  const std::size_t start = out.size();
  std::uint32_t states[Ways];
  for (auto& x : states) x = kStateLow;
  // The trailing partial round first, then whole rounds whose lanes are
  // compile-time indices, so the states can live in registers.
  std::size_t end = n - n % Ways;
  for (std::size_t i = n; i-- > end;) encode(states[i % Ways], keys[i]);
  while (end > 0) {
    const std::size_t begin = end > kBlock ? end - kBlock : 0;
    for (std::size_t i = end; i > begin; i -= Ways)
      for_lanes_down([&](auto lane) { encode(states[lane], keys[i - Ways + lane]); },
                     std::make_index_sequence<Ways>{});
    out.insert(out.end(), stage, pp);
    pp = stage;
    end = begin;
  }
  out.insert(out.end(), stage, pp);
  // Flush states Ways-1..0 LSB-first; after the reversal the decoder reads
  // state 0 first, each big-endian.
  for (unsigned w = Ways; w-- > 0;)
    for (int b = 0; b < 4; ++b) out.push_back(static_cast<std::uint8_t>(states[w] >> (8 * b)));
  std::reverse(out.begin() + static_cast<std::ptrdiff_t>(start), out.end());
  std::vector<std::uint8_t> size_prefix;
  put_varint(size_prefix, out.size() - start);
  out.insert(out.begin() + static_cast<std::ptrdiff_t>(start), size_prefix.begin(),
             size_prefix.end());
}

}  // namespace

template <unsigned ProbBits, unsigned Ways>
bool encode_stream(const std::uint32_t* symbols, std::size_t n, std::vector<std::uint8_t>& out) {
  std::vector<std::uint32_t> index;
  std::uint32_t lo = 0;
  const Census census = take_census(symbols, n, index, lo);
  if (census.size() > (1u << ProbBits)) return false;

  const std::vector<SymbolStats> stats = normalize(census, n, 1u << ProbBits);
  std::vector<EncSymbol> entries;
  entries.reserve(stats.size());
  put_varint(out, stats.size());
  std::uint32_t prev = 0;
  for (const SymbolStats& s : stats) {
    put_varint(out, s.symbol - prev);
    put_varint(out, s.freq);
    prev = s.symbol;
    if (!index.empty()) index[s.symbol - lo] = static_cast<std::uint32_t>(entries.size());
    entries.push_back(make_entry<ProbBits>(s));
  }
  if (!index.empty()) {
    put_payload<ProbBits, Ways>(symbols, n, index.data(), lo, entries.data(), out);
  } else {
    // Sparse alphabet: code each symbol's rank in the sorted alphabet
    // through an identity index.
    std::vector<std::uint32_t> ranks(n);
    for (std::size_t i = 0; i < n; ++i)
      ranks[i] = static_cast<std::uint32_t>(
          std::lower_bound(stats.begin(), stats.end(), symbols[i],
                           [](const SymbolStats& s, std::uint32_t v) { return s.symbol < v; }) -
          stats.begin());
    index.resize(stats.size());
    std::iota(index.begin(), index.end(), 0u);
    put_payload<ProbBits, Ways>(ranks.data(), n, index.data(), 0, entries.data(), out);
  }
  return true;
}

template bool encode_stream<kRansProbBits, 1>(const std::uint32_t*, std::size_t,
                                              std::vector<std::uint8_t>&);
template bool encode_stream<kRansInterleavedProbBits, kRansWays>(const std::uint32_t*,
                                                                 std::size_t,
                                                                 std::vector<std::uint8_t>&);

template <unsigned ProbBits>
void encode_one_symbol_stream(std::uint32_t symbol, std::vector<std::uint8_t>& out) {
  put_varint(out, 1);  // distinct count
  put_varint(out, symbol);
  put_varint(out, 1u << ProbBits);
  put_varint(out, 4);  // payload bytes: the state, big-endian
  for (int b = 3; b >= 0; --b) out.push_back(static_cast<std::uint8_t>(kStateLow >> (8 * b)));
}

template void encode_one_symbol_stream<kRansProbBits>(std::uint32_t,
                                                      std::vector<std::uint8_t>&);

void parse_alphabet(ByteReader& in, unsigned prob_bits, std::vector<SymbolStats>& stats) {
  const std::uint32_t scale = 1u << prob_bits;
  const std::uint64_t distinct = in.varint();
  if (distinct > scale) in.fail("alphabet too large");
  stats.resize(distinct);
  if (distinct == 0) return;
  std::uint32_t symbol = 0, cum = 0;
  for (std::uint64_t i = 0; i < distinct; ++i) {
    const std::uint64_t delta = in.varint();
    const std::uint64_t freq = in.varint();
    // freq <= scale - cum keeps every slot range inside the table, so a
    // hostile table cannot wrap the running sum back onto the scale.
    if (freq == 0 || freq > scale - cum) in.fail("bad frequency");
    symbol = i == 0 ? static_cast<std::uint32_t>(delta)
                    : symbol + static_cast<std::uint32_t>(delta);
    stats[i] = {symbol, static_cast<std::uint32_t>(freq), cum};
    cum += static_cast<std::uint32_t>(freq);
  }
  if (cum != scale) in.fail("frequencies do not sum to scale");
}

}  // namespace fraz::rans_detail
