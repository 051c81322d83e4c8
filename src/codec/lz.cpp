#include "codec/lz.hpp"

#include <algorithm>
#include <cstring>

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

std::size_t match_length(const std::uint8_t* a, const std::uint8_t* b, std::size_t limit) noexcept {
  std::size_t n = 0;
  while (n < limit && a[n] == b[n]) ++n;
  return n;
}

}  // namespace

std::vector<std::uint8_t> lz_compress(const std::uint8_t* data, std::size_t size,
                                      const LzOptions& options) {
  require(options.window > 0, "lz_compress: window must be positive");
  std::vector<std::uint8_t> out;
  out.reserve(size / 2 + 16);
  put_varint(out, size);

  if (size == 0) return out;

  // Hash-chain match finder: head[h] = most recent position with hash h;
  // prev[i % window] = previous position with the same hash as i.
  std::vector<std::int64_t> head(kHashSize, -1);
  std::vector<std::int64_t> prev(std::min(options.window, size), -1);
  const std::size_t prev_size = prev.size();

  auto insert = [&](std::size_t pos) {
    if (pos + 4 > size) return;
    const std::uint32_t h = hash4(data + pos);
    prev[pos % prev_size] = head[h];
    head[h] = static_cast<std::int64_t>(pos);
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
      std::int64_t candidate = head[hash4(data + pos)];
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
        candidate = prev[cpos % prev_size];
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
  if (literal_start < size || size == 0) {
    // Trailing literals with no match.
    put_varint(out, size - literal_start);
    out.insert(out.end(), data + literal_start, data + size);
  } else if (literal_start == size) {
    // Stream ended exactly on a match: emit an empty trailing literal run so
    // the decoder's loop shape stays uniform only when bytes remain — here
    // the decoder already has everything, so nothing to emit.
  }
  return out;
}

std::vector<std::uint8_t> lz_decompress(const std::uint8_t* data, std::size_t size) {
  std::size_t pos = 0;
  const std::uint64_t out_size = get_varint(data, size, pos);
  std::vector<std::uint8_t> out;
  out.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
      out_size, static_cast<std::uint64_t>(size) * kMaxReserveExpansion)));

  // Every length check below is `len > limit - used` (used <= limit always
  // holds), which cannot wrap the way `used + len > limit` does.
  while (out.size() < out_size) {
    const std::uint64_t literal_count = get_varint(data, size, pos);
    if (literal_count > size - pos) throw CorruptStream("lz: truncated literal run");
    if (literal_count > out_size - out.size()) throw CorruptStream("lz: literal overrun");
    out.insert(out.end(), data + pos, data + pos + literal_count);
    pos += literal_count;
    if (out.size() == out_size) break;

    const std::uint64_t offset = get_varint(data, size, pos);
    const std::uint64_t extra = get_varint(data, size, pos);
    if (offset == 0 || offset > out.size()) throw CorruptStream("lz: bad match offset");
    const std::uint64_t room = out_size - out.size();
    if (room < kMinMatch || extra > room - kMinMatch)
      throw CorruptStream("lz: match overrun");
    const std::uint64_t length = extra + kMinMatch;
    // Byte-by-byte copy: overlapping matches (offset < length) are legal and
    // replicate the most recent bytes, as in every LZ77 family coder.
    std::size_t src = out.size() - offset;
    for (std::uint64_t i = 0; i < length; ++i) out.push_back(out[src + i]);
  }
  return out;
}

}  // namespace fraz
