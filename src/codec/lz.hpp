#ifndef FRAZ_CODEC_LZ_HPP
#define FRAZ_CODEC_LZ_HPP

/// \file lz.hpp
/// Byte-oriented LZ77 dictionary coder with hash-chain match finding.
///
/// This reproduces SZ's stage-4 dictionary encoder (Gzip/Zstd in the paper):
/// it consumes the Huffman-coded byte stream and exploits repeated byte
/// sequences.  The interaction between stage 3 and this stage — a tiny change
/// in the error bound reshapes the Huffman tree, which changes which byte
/// patterns repeat — is the mechanism behind the paper's non-monotonic
/// compression-ratio curves (Fig. 3), so a real dictionary coder (not a stub)
/// is essential for faithful behaviour.
///
/// Wire format:
///   varint  decompressed_size
///   repeated sequences until decompressed_size bytes are produced:
///     varint  literal_count
///     raw     literals
///     if output incomplete:
///       varint  match_offset (1..window)
///       varint  match_length - kMinMatch

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fraz {

/// Compression effort knobs (defaults mirror a mid-level Gzip effort).
struct LzOptions {
  /// Maximum hash-chain links traversed per position.
  unsigned max_chain = 32;
  /// Sliding window size in bytes (offsets never exceed this).
  std::size_t window = 1u << 16;
};

/// Compress \p data.  The match finder keeps hash chains over the last
/// min(window, size) positions: 32-bit chain tables while size < 2^31 (64-bit
/// above), and each position's chain slot is pos & (window - 1) for a
/// power-of-two window and pos % window only for other windows.  Table
/// width and slot form change the cost, never the output.
std::vector<std::uint8_t> lz_compress(const std::uint8_t* data, std::size_t size,
                                      const LzOptions& options = {});

inline std::vector<std::uint8_t> lz_compress(const std::vector<std::uint8_t>& data,
                                             const LzOptions& options = {}) {
  return lz_compress(data.data(), data.size(), options);
}

/// Decompress a buffer produced by lz_compress.  Throws CorruptStream on any
/// malformed input (bad offsets, truncation, size mismatch).
std::vector<std::uint8_t> lz_decompress(const std::uint8_t* data, std::size_t size);

inline std::vector<std::uint8_t> lz_decompress(const std::vector<std::uint8_t>& data) {
  return lz_decompress(data.data(), data.size());
}

}  // namespace fraz

#endif  // FRAZ_CODEC_LZ_HPP
