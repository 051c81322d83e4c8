/// Micro-benchmarks and CI regression gates for the codec substrate:
/// Huffman, rANS, the LZ77 dictionary coder, CRC-32, and the bit stream —
/// the building blocks whose throughput bounds SZ/MGARD bandwidth.
///
/// The decode-side gates pin the flattened fast paths against their
/// reference implementations on the same SZ-like quantization-code stream:
/// outputs are asserted bit-identical before timing, then `--check`
/// enforces huffman_decode >= 1.5x huffman_decode_ref, rans_decode >=
/// 1.05x rans_decode_ref, and rans_interleaved_decode >= 1.5x its
/// reference.  The single-state rANS decode loop is a serial state chain
/// (slot -> symbol lookup -> state update, each iteration depending on the
/// last), so its fast path can only shorten the lookup: a bucket table
/// sized by the alphabet instead of the reference's 512 KiB slot table, a
/// register-only check of the dominant symbol's slots, hoisted
/// renormalization bounds checks.  The 8-way interleaved coder breaks the
/// chain itself (eight independent states per round, SIMD renorm), which
/// is why its gate sits at the Huffman tier.
///
/// The rans_decode_chunk row decodes one archive chunk's worth of codes
/// (23k), where the reference's per-call table fill is a large share of a
/// decode that the 2^18-symbol row amortizes.  Its floor is 2/3 of the
/// smallest of 54 smoke runs on a 4-vCPU Xeon VM, which read 1.40-1.96x
/// (the 512 KiB-table fast path it replaced read 1.10-1.40x).
///
/// crc32 is gated at >= 3x crc32_bytewise, the byte-at-a-time loop it
/// replaced, timed in the same process (30 smoke runs read 4.5-5.4x).
///
/// The encode-side gate: rans_encode >= 0.25x rans_interleaved_encode.  Both
/// encoders share one table builder and one divide-free payload loop
/// (codec/rans_table.cpp); the single-state one is a serial state chain, so
/// it sits below the 8-way coder, measured ~0.5x (~770 vs ~1400 MB/s on a
/// 4-vCPU Xeon VM).  The std::map census and per-symbol divide it replaced
/// measured ~0.1x (136 MB/s), which the floor fails.
///
/// Output ends with one JSON line; `--smoke` shrinks sizes for CI.

#include <array>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "codec/bitstream.hpp"
#include "codec/checksum.hpp"
#include "codec/huffman.hpp"
#include "codec/lz.hpp"
#include "codec/rans.hpp"
#include "codec/rans_interleaved.hpp"
#include "util/rng.hpp"

namespace {

using namespace fraz;

/// Symbols of one archive chunk (the perfbench step's mean is ~23k).
constexpr std::size_t kChunkSymbols = 23000;
/// rans_decode over rans_decode_ref on a chunk-sized stream.
constexpr double kChunkFloor = 0.9;

inline void keep(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

template <typename Fn>
double best_seconds(unsigned reps, Fn&& fn) {
  fn();
  double best = 1e300;
  for (unsigned r = 0; r < reps; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

/// Byte-at-a-time CRC-32, the classic table loop crc32() replaced: the
/// reference its sliced loop is timed against.
std::uint32_t crc32_bytewise(const std::uint8_t* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) c = table[(c ^ data[i]) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

/// SZ-like code stream: sharply peaked around the radius, the distribution
/// both entropy stages were built for.
std::vector<std::uint32_t> quantization_codes(std::size_t n) {
  Rng rng(1);
  std::vector<std::uint32_t> codes(n);
  for (auto& c : codes) {
    const double g = rng.normal() * 3.0;
    c = static_cast<std::uint32_t>(32768 + static_cast<std::int64_t>(g));
  }
  return codes;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fraz;
  Cli cli("entropy/dictionary codec micro-benchmarks");
  cli.add_int("symbols", 1 << 18, "quantization codes per stream");
  cli.add_int("reps", 9, "timed repetitions (best counts)");
  cli.add_flag("smoke", "tiny fast run for CI (overrides symbols/reps)");
  cli.add_flag("check", "exit nonzero unless huffman_decode >= 1.5x its reference, "
                        "rans_decode >= 1.05x its reference (0.9x on a chunk-sized "
                        "stream), rans_interleaved_decode >= 1.5x its reference, "
                        "rans_encode >= 0.25x rans_interleaved_encode, and "
                        "crc32 >= 3x a bytewise CRC-32 loop");
  if (!cli.parse(argc, argv)) return 0;

  const bool smoke = cli.get_flag("smoke");
  const auto n = static_cast<std::size_t>(smoke ? (1 << 15) : cli.get_int("symbols"));
  const auto reps = static_cast<unsigned>(smoke ? 7 : cli.get_int("reps"));

  bench::banner("micro-codecs",
                "Huffman/rANS encode+decode, LZ, CRC-32, bit stream",
                "table-driven Huffman decode, the flattened rANS loop and sliced "
                "CRC-32 beat their bit-identical references");

  const std::vector<std::uint32_t> codes = quantization_codes(n);
  const double mb = static_cast<double>(n * 4) / 1e6;
  // One archive chunk's worth of codes, the perfbench chunks' mean count: a
  // decode's per-call setup is a real share here, which the long stream
  // amortizes away.  Same size with --smoke.
  const std::vector<std::uint32_t> chunk_codes = quantization_codes(kChunkSymbols);
  const double chunk_mb = static_cast<double>(kChunkSymbols * 4) / 1e6;

  const auto huff = huffman_encode(codes);
  const auto rans = rans_encode(codes);
  const auto chunk_rans = rans_encode(chunk_codes);
  const auto irans = rans_interleaved_encode(codes);

  // Bit-identity first: a decode gate on diverging outputs gates nothing.
  if (huffman_decode(huff) != huffman_decode_ref(huff.data(), huff.size()) ||
      huffman_decode(huff) != codes) {
    std::fprintf(stderr, "FAIL: huffman fast/ref decode mismatch\n");
    return 1;
  }
  if (rans_decode(rans) != rans_decode_ref(rans.data(), rans.size()) ||
      rans_decode(rans) != codes) {
    std::fprintf(stderr, "FAIL: rans fast/ref decode mismatch\n");
    return 1;
  }
  if (rans_decode(chunk_rans) != rans_decode_ref(chunk_rans.data(), chunk_rans.size()) ||
      rans_decode(chunk_rans) != chunk_codes) {
    std::fprintf(stderr, "FAIL: chunk-sized rans fast/ref decode mismatch\n");
    return 1;
  }
  if (rans_interleaved_decode(irans) !=
          rans_interleaved_decode_ref(irans.data(), irans.size()) ||
      rans_interleaved_decode(irans) != codes) {
    std::fprintf(stderr, "FAIL: interleaved rans fast/ref decode mismatch\n");
    return 1;
  }

  struct Row {
    const char* name;
    double mbps;
  };
  std::vector<Row> rows;
  const auto time_mbps_reps = [&](const char* name, double bytes_mb, unsigned r, auto&& fn) {
    const double mbps = bytes_mb / best_seconds(r, fn);
    rows.push_back({name, mbps});
    return mbps;
  };
  const auto time_mbps = [&](const char* name, double bytes_mb, auto&& fn) {
    return time_mbps_reps(name, bytes_mb, reps, fn);
  };

  time_mbps("huffman_encode", mb, [&] {
    auto b = huffman_encode(codes);
    keep(b.data());
  });
  const double huff_fast = time_mbps("huffman_decode", mb, [&] {
    auto s = huffman_decode(huff);
    keep(s.data());
  });
  const double huff_ref = time_mbps("huffman_decode_ref", mb, [&] {
    auto s = huffman_decode_ref(huff.data(), huff.size());
    keep(s.data());
  });
  const double rans_enc = time_mbps("rans_encode", mb, [&] {
    auto b = rans_encode(codes);
    keep(b.data());
  });
  const double rans_fast = time_mbps("rans_decode", mb, [&] {
    auto s = rans_decode(rans);
    keep(s.data());
  });
  const double rans_ref = time_mbps("rans_decode_ref", mb, [&] {
    auto s = rans_decode_ref(rans.data(), rans.size());
    keep(s.data());
  });
  // A chunk decode takes well under a millisecond: more reps for the best.
  const unsigned chunk_reps = 8 * reps;
  const double chunk_fast = time_mbps_reps("rans_decode_chunk", chunk_mb, chunk_reps, [&] {
    auto s = rans_decode(chunk_rans);
    keep(s.data());
  });
  const double chunk_ref = time_mbps_reps("rans_decode_chunk_ref", chunk_mb, chunk_reps, [&] {
    auto s = rans_decode_ref(chunk_rans.data(), chunk_rans.size());
    keep(s.data());
  });
  const double irans_enc = time_mbps("rans_interleaved_encode", mb, [&] {
    auto b = rans_interleaved_encode(codes);
    keep(b.data());
  });
  const double irans_fast = time_mbps("rans_interleaved_decode", mb, [&] {
    auto s = rans_interleaved_decode(irans);
    keep(s.data());
  });
  const double irans_ref = time_mbps("rans_interleaved_decode_ref", mb, [&] {
    auto s = rans_interleaved_decode_ref(irans.data(), irans.size());
    keep(s.data());
  });

  // LZ consumes the entropy stage's output — the realistic dictionary input.
  const double huff_mb = static_cast<double>(huff.size()) / 1e6;
  const auto lz = lz_compress(huff);
  time_mbps("lz_compress", huff_mb, [&] {
    auto b = lz_compress(huff);
    keep(b.data());
  });
  time_mbps("lz_decompress", huff_mb, [&] {
    auto b = lz_decompress(lz);
    keep(b.data());
  });

  double crc_fast = 0, crc_ref = 0;
  {
    Rng rng(2);
    std::vector<std::uint8_t> blob(1u << 20);
    for (auto& b : blob) b = static_cast<std::uint8_t>(rng.below(256));
    const double blob_mb = static_cast<double>(blob.size()) / 1e6;
    if (crc32(blob) != crc32_bytewise(blob.data(), blob.size())) {
      std::fprintf(stderr, "FAIL: crc32 sliced/bytewise mismatch\n");
      return 1;
    }
    crc_fast = time_mbps("crc32", blob_mb, [&] {
      auto c = crc32(blob);
      keep(&c);
    });
    crc_ref = time_mbps("crc32_bytewise", blob_mb, [&] {
      auto c = crc32_bytewise(blob.data(), blob.size());
      keep(&c);
    });
  }
  {
    Rng rng(3);
    std::vector<std::pair<std::uint64_t, unsigned>> writes;
    std::size_t bits = 0;
    for (int i = 0; i < 4096; ++i) {
      const unsigned width = 1 + static_cast<unsigned>(rng.below(31));
      writes.emplace_back(rng.next() & ((1ull << width) - 1), width);
      bits += width;
    }
    time_mbps("bitstream_roundtrip", static_cast<double>(bits / 8) / 1e6, [&] {
      BitWriter w;
      for (const auto& [value, width] : writes) w.write_bits(value, width);
      const auto bytes = w.take();
      BitReader r(bytes);
      std::uint64_t sink = 0;
      for (const auto& [value, width] : writes) sink ^= r.read_bits(width);
      keep(&sink);
    });
  }

  std::printf("%-20s %10s\n", "codec", "MB/s");
  for (const Row& r : rows) std::printf("%-20s %10.0f\n", r.name, r.mbps);
  const double huff_speedup = huff_ref > 0 ? huff_fast / huff_ref : 0;
  const double rans_speedup = rans_ref > 0 ? rans_fast / rans_ref : 0;
  const double chunk_speedup = chunk_ref > 0 ? chunk_fast / chunk_ref : 0;
  const double irans_speedup = irans_ref > 0 ? irans_fast / irans_ref : 0;
  const double encode_ratio = irans_enc > 0 ? rans_enc / irans_enc : 0;
  const double crc_speedup = crc_ref > 0 ? crc_fast / crc_ref : 0;
  std::printf("huffman fast/ref: %.2fx; rans fast/ref: %.2fx; rans chunk fast/ref: %.2fx; "
              "rans_interleaved fast/ref: %.2fx; rans/interleaved encode: %.2fx; "
              "crc32 sliced/bytewise: %.2fx\n",
              huff_speedup, rans_speedup, chunk_speedup, irans_speedup, encode_ratio,
              crc_speedup);

  JsonWriter jw;
  jw.begin_object()
      .field("bench", "micro_codecs")
      .field("symbols", n);
  jw.key("codecs").begin_object();
  for (const Row& r : rows) jw.field(r.name, r.mbps);
  jw.end_object();
  jw.field("huffman_decode_speedup", huff_speedup)
      .field("rans_decode_speedup", rans_speedup)
      .field("rans_decode_chunk_speedup", chunk_speedup)
      .field("rans_interleaved_decode_speedup", irans_speedup)
      .field("rans_encode_vs_interleaved", encode_ratio)
      .field("crc32_speedup", crc_speedup)
      .end_object();
  bench::json_line(jw);

  if (cli.get_flag("check")) {
    bool pass = true;
    if (huff_speedup < 1.5) {
      std::fprintf(stderr, "FAIL: huffman decode speedup %.2f below the 1.5x floor\n",
                   huff_speedup);
      pass = false;
    }
    if (rans_speedup < 1.05) {
      std::fprintf(stderr, "FAIL: rans decode speedup %.2f below the 1.05x floor\n",
                   rans_speedup);
      pass = false;
    }
    if (chunk_speedup < kChunkFloor) {
      std::fprintf(stderr,
                   "FAIL: chunk-sized rans decode speedup %.2f below the %.2fx floor\n",
                   chunk_speedup, kChunkFloor);
      pass = false;
    }
    if (irans_speedup < 1.5) {
      std::fprintf(stderr,
                   "FAIL: interleaved rans decode speedup %.2f below the 1.5x floor\n",
                   irans_speedup);
      pass = false;
    }
    if (encode_ratio < 0.25) {
      std::fprintf(stderr,
                   "FAIL: rans encode at %.2fx the interleaved encoder, below the 0.25x floor\n",
                   encode_ratio);
      pass = false;
    }
    if (crc_speedup < 3.0) {
      std::fprintf(stderr, "FAIL: crc32 at %.2fx its bytewise reference, below the 3x floor\n",
                   crc_speedup);
      pass = false;
    }
    if (!pass) return 1;
  }
  return 0;
}
