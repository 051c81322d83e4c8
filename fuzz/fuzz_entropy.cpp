/// Fuzz the entropy-coder decoders over raw untrusted bytes.  Archives carry
/// Huffman- or rANS-coded blocks inside compressed chunks; the decoders'
/// contract is decode-or-CorruptStream for any input — no crash, no
/// out-of-bounds table walk, no unbounded output from a tiny input's
/// declared symbol count.
///
/// rANS inputs go through the expected-count overload, as the sz decoder
/// does with a frame's element count: a one-symbol alphabet decodes with no
/// payload byte per symbol, so only the caller's count bounds the output.
/// Here that count is the one the stream declares, capped at 2^20 symbols;
/// a stream declaring more is rejected before it decodes.
#include <algorithm>

#include "codec/huffman.hpp"
#include "codec/rans.hpp"
#include "codec/varint.hpp"
#include "fuzz_driver.hpp"
#include "util/error.hpp"

namespace {

constexpr std::uint64_t kMaxSymbols = std::uint64_t{1} << 20;

}  // namespace

void fraz_fuzz_one(const std::uint8_t* data, std::size_t size) {
  // First byte routes so the fuzzer evolves distinct corpora per decoder.
  if (size == 0) return;
  const bool use_rans = (data[0] & 1) != 0;
  ++data;
  --size;
  try {
    if (use_rans) {
      const std::uint64_t declared = fraz::ByteReader(data, size, "fuzz").varint();
      (void)fraz::rans_decode(data, size, std::min(declared, kMaxSymbols));
    } else {
      (void)fraz::huffman_decode(data, size);
    }
  } catch (const fraz::CorruptStream&) {
    // Rejection is the expected outcome for malformed bytes.
  }
}
