#include "codec/lz.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "codec/varint.hpp"
#include "util/error.hpp"

namespace fraz {

namespace {

constexpr std::size_t kMinMatch = 4;
/// The decoder's up-front reserve is at most this many output bytes per
/// input byte: the declared output size comes from the stream, so reserving
/// it outright would let a few hostile bytes size an allocation.  Outputs
/// that expand further just grow the vector as matches are copied.
constexpr std::uint64_t kMaxReserveExpansion = 64;
constexpr std::size_t kHashBits = 16;
constexpr std::size_t kHashSize = 1u << kHashBits;

std::uint32_t hash4(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

/// Length of the common prefix of a and b, at most limit: 8 bytes per
/// compare, the first differing byte located by counting zero bits.
std::size_t match_length(const std::uint8_t* a, const std::uint8_t* b, std::size_t limit) noexcept {
  std::size_t n = 0;
  for (; n + 8 <= limit; n += 8) {
    std::uint64_t x, y;
    std::memcpy(&x, a + n, 8);
    std::memcpy(&y, b + n, 8);
    if (const std::uint64_t diff = x ^ y; diff != 0) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
      return n + static_cast<std::size_t>(__builtin_clzll(diff) >> 3);
#else
      return n + static_cast<std::size_t>(__builtin_ctzll(diff) >> 3);
#endif
    }
  }
  while (n < limit && a[n] == b[n]) ++n;
  return n;
}

/// The sequence loop over chain tables of \p Index: head[h] = most recent
/// position with hash h, prev[slot(i)] = the previous position with the
/// same hash as i, -1 for none.  slot(i) is i % prev.size() in whatever
/// form is cheapest for the window (see lz_compress).
template <typename Index, typename Slot>
void compress_sequences(const std::uint8_t* data, std::size_t size, const LzOptions& options,
                        std::size_t prev_size, Slot slot, std::vector<std::uint8_t>& out) {
  std::vector<Index> head(kHashSize, -1);
  std::vector<Index> prev(prev_size, -1);

  auto insert = [&](std::size_t pos) {
    if (pos + 4 > size) return;
    const std::uint32_t h = hash4(data + pos);
    prev[slot(pos)] = head[h];
    head[h] = static_cast<Index>(pos);
  };

  std::size_t pos = 0;
  std::size_t literal_start = 0;

  auto flush_sequence = [&](std::size_t match_pos, std::size_t match_off, std::size_t match_len) {
    put_varint(out, match_pos - literal_start);
    out.insert(out.end(), data + literal_start, data + match_pos);
    if (match_len > 0) {
      put_varint(out, match_off);
      put_varint(out, match_len - kMinMatch);
    }
  };

  while (pos < size) {
    std::size_t best_len = 0;
    std::size_t best_off = 0;
    if (pos + kMinMatch <= size) {
      const std::size_t limit = size - pos;
      Index candidate = head[hash4(data + pos)];
      unsigned chain = options.max_chain;
      while (candidate >= 0 && chain-- > 0) {
        const auto cpos = static_cast<std::size_t>(candidate);
        if (pos - cpos > options.window) break;
        const std::size_t len = match_length(data + cpos, data + pos, limit);
        if (len > best_len) {
          best_len = len;
          best_off = pos - cpos;
          if (len >= 1024) break;  // long enough; stop searching
        }
        candidate = prev[slot(cpos)];
      }
    }

    if (best_len >= kMinMatch) {
      flush_sequence(pos, best_off, best_len);
      // Index positions covered by the match (bounded effort for long matches).
      const std::size_t end = pos + best_len;
      const std::size_t index_end = std::min(end, pos + 64);
      for (std::size_t p = pos; p < index_end; ++p) insert(p);
      pos = end;
      literal_start = pos;
    } else {
      insert(pos);
      ++pos;
    }
  }
  if (literal_start < size) {
    // Trailing literals with no match.  A stream that ends exactly on a
    // match emits nothing more: the decoder already has every byte.
    put_varint(out, size - literal_start);
    out.insert(out.end(), data + literal_start, data + size);
  }
}

/// Run compress_sequences with the narrowest chain index that holds every
/// position.
template <typename Slot>
void compress_with_slot(const std::uint8_t* data, std::size_t size, const LzOptions& options,
                        std::size_t prev_size, Slot slot, std::vector<std::uint8_t>& out) {
  if (size <= static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()))
    compress_sequences<std::int32_t>(data, size, options, prev_size, slot, out);
  else
    compress_sequences<std::int64_t>(data, size, options, prev_size, slot, out);
}

}  // namespace

std::vector<std::uint8_t> lz_compress(const std::uint8_t* data, std::size_t size,
                                      const LzOptions& options) {
  require(options.window > 0, "lz_compress: window must be positive");
  std::vector<std::uint8_t> out;
  out.reserve(size / 2 + 16);
  put_varint(out, size);

  if (size == 0) return out;

  // prev holds one slot per position of the last min(window, size) bytes.
  // The ring index pos % window is a mask for power-of-two windows (every
  // production caller), and only other windows pay the divide.  While the
  // input fits the window every pos < size <= window, so both forms are pos.
  const std::size_t window = options.window;
  const std::size_t prev_size = std::min(window, size);
  if ((window & (window - 1)) == 0)
    compress_with_slot(data, size, options, prev_size,
                       [mask = window - 1](std::size_t pos) { return pos & mask; }, out);
  else
    compress_with_slot(data, size, options, prev_size,
                       [window](std::size_t pos) { return pos % window; }, out);
  return out;
}

std::vector<std::uint8_t> lz_decompress(const std::uint8_t* data, std::size_t size) {
  ByteReader in(data, size, "lz");
  const std::uint64_t out_size = in.varint();
  std::vector<std::uint8_t> out;
  out.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
      out_size, static_cast<std::uint64_t>(size) * kMaxReserveExpansion)));

  // Output room checks are `len > out_size - out.size()` (out.size() <=
  // out_size always holds), which cannot wrap.
  while (out.size() < out_size) {
    const std::uint64_t literal_count = in.varint();
    if (literal_count > out_size - out.size()) in.fail("literal overrun");
    const std::uint8_t* literals = in.take(literal_count, "truncated literal run");
    out.insert(out.end(), literals, literals + literal_count);
    if (out.size() == out_size) break;

    const std::uint64_t offset = in.varint();
    const std::uint64_t extra = in.varint();
    if (offset == 0 || offset > out.size()) in.fail("bad match offset");
    const std::uint64_t room = out_size - out.size();
    if (room < kMinMatch || extra > room - kMinMatch) in.fail("match overrun");
    const std::uint64_t length = extra + kMinMatch;
    // Byte-by-byte copy: overlapping matches (offset < length) are legal and
    // replicate the most recent bytes, as in every LZ77 family coder.
    std::size_t src = out.size() - offset;
    for (std::uint64_t i = 0; i < length; ++i) out.push_back(out[src + i]);
  }
  return out;
}

}  // namespace fraz
