#include "codec/huffman.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <queue>

#include "codec/bitstream.hpp"
#include "codec/varint.hpp"
#include "util/error.hpp"

namespace fraz {

namespace {

constexpr unsigned kMaxCodeLength = 32;

struct SymbolLength {
  std::uint32_t symbol;
  unsigned length;
};

/// Compute Huffman code lengths for the given (symbol, frequency) pairs.
/// Ties are broken deterministically by symbol value.  If the tree depth
/// exceeds kMaxCodeLength the frequencies are repeatedly halved (flattening
/// the tree) until it fits; this only matters for pathological inputs.
std::vector<SymbolLength> code_lengths(std::vector<std::pair<std::uint32_t, std::uint64_t>> freq) {
  if (freq.empty()) return {};
  if (freq.size() == 1) return {{freq[0].first, 1}};

  for (;;) {
    struct Node {
      std::uint64_t weight;
      std::uint32_t tiebreak;  // min symbol in subtree: deterministic ordering
      int left = -1, right = -1;
      std::uint32_t symbol = 0;
      bool leaf = false;
    };
    std::vector<Node> nodes;
    nodes.reserve(freq.size() * 2);
    using Handle = std::pair<std::pair<std::uint64_t, std::uint32_t>, int>;  // ((w, tie), index)
    std::priority_queue<Handle, std::vector<Handle>, std::greater<>> heap;
    for (const auto& [sym, f] : freq) {
      Node n;
      n.weight = f;
      n.tiebreak = sym;
      n.symbol = sym;
      n.leaf = true;
      nodes.push_back(n);
      heap.push({{f, sym}, static_cast<int>(nodes.size() - 1)});
    }
    while (heap.size() > 1) {
      const auto a = heap.top();
      heap.pop();
      const auto b = heap.top();
      heap.pop();
      Node parent;
      parent.weight = a.first.first + b.first.first;
      parent.tiebreak = std::min(a.first.second, b.first.second);
      parent.left = a.second;
      parent.right = b.second;
      nodes.push_back(parent);
      heap.push({{parent.weight, parent.tiebreak}, static_cast<int>(nodes.size() - 1)});
    }

    // Depth-first traversal to collect leaf depths.
    std::vector<SymbolLength> lengths;
    lengths.reserve(freq.size());
    unsigned max_depth = 0;
    std::vector<std::pair<int, unsigned>> stack{{heap.top().second, 0}};
    while (!stack.empty()) {
      auto [idx, depth] = stack.back();
      stack.pop_back();
      const Node& n = nodes[static_cast<std::size_t>(idx)];
      if (n.leaf) {
        lengths.push_back({n.symbol, std::max(depth, 1u)});
        max_depth = std::max(max_depth, depth);
      } else {
        stack.push_back({n.left, depth + 1});
        stack.push_back({n.right, depth + 1});
      }
    }
    if (max_depth <= kMaxCodeLength) return lengths;
    for (auto& [sym, f] : freq) f = (f + 1) / 2;  // flatten and retry
  }
}

/// Canonical code assignment: codes ordered by (length, symbol).
struct Canonical {
  std::vector<SymbolLength> sorted;          // by (length, symbol)
  std::vector<std::uint32_t> codes;          // parallel to sorted
  std::uint32_t first_code[kMaxCodeLength + 2] = {};
  std::uint32_t first_index[kMaxCodeLength + 2] = {};
  std::uint32_t count[kMaxCodeLength + 2] = {};
};

Canonical canonicalize(std::vector<SymbolLength> lengths) {
  Canonical c;
  std::sort(lengths.begin(), lengths.end(), [](const SymbolLength& a, const SymbolLength& b) {
    return a.length != b.length ? a.length < b.length : a.symbol < b.symbol;
  });
  c.sorted = std::move(lengths);
  c.codes.resize(c.sorted.size());
  for (const auto& sl : c.sorted) c.count[sl.length]++;

  std::uint32_t code = 0;
  std::uint32_t index = 0;
  for (unsigned len = 1; len <= kMaxCodeLength; ++len) {
    c.first_code[len] = code;
    c.first_index[len] = index;
    for (std::uint32_t i = 0; i < c.count[len]; ++i) c.codes[index + i] = code + i;
    code = (code + c.count[len]) << 1;
    index += c.count[len];
  }
  return c;
}

}  // namespace

std::vector<std::uint8_t> huffman_encode(const std::uint32_t* symbols, std::size_t n) {
  // Stage 1: frequency census.
  std::map<std::uint32_t, std::uint64_t> census;
  for (std::size_t i = 0; i < n; ++i) census[symbols[i]]++;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> freq(census.begin(), census.end());

  // Stage 2: code lengths + canonical codes.
  Canonical canon = canonicalize(code_lengths(std::move(freq)));

  // Symbol -> (code, length) lookup for encoding.
  std::map<std::uint32_t, std::pair<std::uint32_t, unsigned>> encode_table;
  for (std::size_t i = 0; i < canon.sorted.size(); ++i)
    encode_table[canon.sorted[i].symbol] = {canon.codes[i], canon.sorted[i].length};

  // Stage 3: header.
  std::vector<std::uint8_t> out;
  put_varint(out, n);
  // Dictionary sorted by symbol for delta coding.
  std::vector<SymbolLength> by_symbol = canon.sorted;
  std::sort(by_symbol.begin(), by_symbol.end(),
            [](const SymbolLength& a, const SymbolLength& b) { return a.symbol < b.symbol; });
  put_varint(out, by_symbol.size());
  std::uint32_t prev = 0;
  for (std::size_t i = 0; i < by_symbol.size(); ++i) {
    put_varint(out, by_symbol[i].symbol - (i == 0 ? 0 : prev));
    put_varint(out, by_symbol[i].length);
    prev = by_symbol[i].symbol;
  }

  // Stage 4: payload. Huffman codes are written MSB-first so canonical
  // numeric order matches lexicographic bit order during decode.
  BitWriter writer;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& [code, length] = encode_table.at(symbols[i]);
    for (unsigned b = length; b-- > 0;) writer.write_bit((code >> b) & 1u);
  }
  const std::vector<std::uint8_t> payload = writer.take();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

namespace {

/// Parse the dictionary header shared by both decoders.  Returns false for
/// the empty-dictionary degenerate case (out stays empty).
bool parse_dictionary(ByteReader& in, std::uint64_t& symbol_count, Canonical& canon) {
  symbol_count = in.varint();
  const std::uint64_t distinct = in.varint();
  if (distinct == 0) {
    if (symbol_count != 0) in.fail("empty dictionary with symbols");
    return false;
  }
  std::vector<SymbolLength> lengths;
  lengths.reserve(std::min<std::uint64_t>(distinct, std::uint64_t{1} << 20));
  std::uint32_t symbol = 0;
  for (std::uint64_t i = 0; i < distinct; ++i) {
    const std::uint64_t delta = in.varint();
    const std::uint64_t length = in.varint();
    if (length == 0 || length > kMaxCodeLength) in.fail("bad code length");
    symbol = (i == 0) ? static_cast<std::uint32_t>(delta)
                      : symbol + static_cast<std::uint32_t>(delta);
    lengths.push_back({symbol, static_cast<unsigned>(length)});
  }
  canon = canonicalize(std::move(lengths));
  return true;
}

/// The original bit-by-bit canonical walk over a BitReader, one symbol.
std::uint32_t decode_one_slow(BitReader& reader, const Canonical& canon) {
  std::uint32_t code = 0;
  for (unsigned len = 1; len <= kMaxCodeLength; ++len) {
    code = (code << 1) | reader.read_bit();
    if (canon.count[len] != 0 && code < canon.first_code[len] + canon.count[len]) {
      const std::uint32_t idx = canon.first_index[len] + (code - canon.first_code[len]);
      return canon.sorted[idx].symbol;
    }
  }
  throw CorruptStream("huffman: invalid code word");
}

/// Width of the fast-path prefix table.  Canonical Huffman over the nearly
/// geometric quantization-code alphabet rarely exceeds 11 bits, so almost
/// every symbol resolves with one table load.
constexpr unsigned kFastBits = 11;

}  // namespace

std::vector<std::uint32_t> huffman_decode(const std::uint8_t* data, std::size_t size) {
  ByteReader in(data, size, "huffman");
  std::uint64_t symbol_count = 0;
  Canonical canon;
  if (!parse_dictionary(in, symbol_count, canon)) return {};

  // The fast path assumes the canonical assignment is prefix-free, which
  // holds exactly when the Kraft sum does not exceed 1.  Encoder output
  // always satisfies this; hostile dictionaries take the reference walk.
  std::uint64_t kraft = 0;
  for (const auto& sl : canon.sorted) kraft += std::uint64_t{1} << (kMaxCodeLength - sl.length);
  const bool fast_ok =
      kraft <= (std::uint64_t{1} << kMaxCodeLength) && canon.sorted.size() < (1u << 24);

  std::vector<std::uint32_t> out;
  out.reserve(std::min<std::uint64_t>(symbol_count, std::uint64_t{1} << 20));

  if (!fast_ok) {
    BitReader reader(in.data(), in.remaining());
    for (std::uint64_t i = 0; i < symbol_count; ++i)
      out.push_back(decode_one_slow(reader, canon));
    return out;
  }

  // Prefix table: indexed by the next kFastBits stream bits (LSB-first read
  // order, i.e. the bit-reverse of the MSB-first code), each hit packs
  // (length << 24) | sorted_index.  Codes longer than kFastBits and slots
  // near the end of the stream fall back to the bit-by-bit walk.
  std::vector<std::uint32_t> table(std::size_t{1} << kFastBits, 0);
  for (std::size_t i = 0; i < canon.sorted.size(); ++i) {
    const unsigned len = canon.sorted[i].length;
    if (len > kFastBits) continue;
    const std::uint32_t code = canon.codes[i];
    std::uint32_t rev = 0;
    for (unsigned b = 0; b < len; ++b) rev |= ((code >> b) & 1u) << (len - 1 - b);
    const std::uint32_t entry = (len << 24) | static_cast<std::uint32_t>(i);
    for (std::size_t t = rev; t < table.size(); t += std::size_t{1} << len)
      table[t] = entry;
  }

  const std::uint8_t* payload = in.data();
  const std::size_t payload_size = in.remaining();
  std::uint64_t buf = 0;      // next stream bits, LSB first
  unsigned nbits = 0;         // valid bits in buf
  std::size_t byte_pos = 0;
  for (std::uint64_t i = 0; i < symbol_count; ++i) {
    while (nbits <= 56 && byte_pos < payload_size) {
      buf |= static_cast<std::uint64_t>(payload[byte_pos++]) << nbits;
      nbits += 8;
    }
    if (nbits >= kFastBits) {
      const std::uint32_t e = table[buf & ((1u << kFastBits) - 1)];
      if (e != 0) {
        const unsigned len = e >> 24;
        buf >>= len;
        nbits -= len;
        out.push_back(canon.sorted[e & 0xffffffu].symbol);
        continue;
      }
    }
    // Long code or stream tail: the reference walk over the buffered bits.
    std::uint32_t code = 0;
    unsigned matched_len = 0;
    for (unsigned len = 1; len <= kMaxCodeLength; ++len) {
      if (nbits == 0) {
        if (byte_pos < payload_size) {
          buf = payload[byte_pos++];
          nbits = 8;
        } else {
          throw CorruptStream("BitReader: read past end of stream");
        }
      }
      code = (code << 1) | static_cast<std::uint32_t>(buf & 1u);
      buf >>= 1;
      --nbits;
      if (canon.count[len] != 0 && code < canon.first_code[len] + canon.count[len]) {
        matched_len = len;
        out.push_back(
            canon.sorted[canon.first_index[len] + (code - canon.first_code[len])].symbol);
        break;
      }
    }
    if (matched_len == 0) throw CorruptStream("huffman: invalid code word");
  }
  return out;
}

std::vector<std::uint32_t> huffman_decode_ref(const std::uint8_t* data, std::size_t size) {
  ByteReader in(data, size, "huffman");
  std::uint64_t symbol_count = 0;
  Canonical canon;
  if (!parse_dictionary(in, symbol_count, canon)) return {};

  BitReader reader(in.data(), in.remaining());
  std::vector<std::uint32_t> out;
  out.reserve(std::min<std::uint64_t>(symbol_count, std::uint64_t{1} << 20));
  for (std::uint64_t i = 0; i < symbol_count; ++i)
    out.push_back(decode_one_slow(reader, canon));
  return out;
}

}  // namespace fraz
