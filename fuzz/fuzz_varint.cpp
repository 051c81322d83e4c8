/// Fuzz the ByteReader primitives every decoder is built on: varint, u32,
/// u64 and f64 must either return a value and advance the cursor, or throw
/// CorruptStream — truncation and overlong varint encodings included — and
/// never read out of bounds.
#include "codec/varint.hpp"
#include "fuzz_driver.hpp"
#include "util/error.hpp"

void fraz_fuzz_one(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return;
  // Walk the buffer as an alternating stream of each primitive; the first
  // byte picks the starting phase so the fuzzer can aim at each read.
  unsigned phase = data[0] & 3u;
  fraz::ByteReader in(data + 1, size - 1, "fuzz");
  try {
    while (in.remaining() > 0) {
      const std::size_t before = in.remaining();
      switch (phase++ & 3u) {
        case 0: (void)in.varint(); break;
        case 1: (void)in.u32(); break;
        case 2: (void)in.u64(); break;
        default: (void)in.f64(); break;
      }
      if (in.remaining() >= before) __builtin_trap();  // must advance
    }
  } catch (const fraz::CorruptStream&) {
    // Rejection is the expected outcome for malformed bytes.
  }
}
