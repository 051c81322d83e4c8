/// Seed-corpus generator: every fuzz target starts from inputs produced by
/// the matching *writer*, so the fuzzer begins at valid bytes and mutates
/// toward the interesting edges instead of spending its budget rediscovering
/// magic numbers.  Usage:
///
///     fraz_make_corpus <output-dir>
///
/// writes one subdirectory per fuzz target (archive_format/, bound_store/,
/// serve_protocol/, varint/, entropy/, szx/, fpc/, sz2/, container/).  The checked-in copy
/// lives at tests/corpus/ and doubles as the negative-path unit-test input
/// set.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "archive/archive.hpp"
#include "codec/checksum.hpp"
#include "codec/huffman.hpp"
#include "codec/rans.hpp"
#include "codec/varint.hpp"
#include "compressors/container.hpp"
#include "compressors/fpc/fpc.hpp"
#include "compressors/sz/sz.hpp"
#include "compressors/szx/szx.hpp"
#include "engine/bound_store.hpp"
#include "ndarray/ndarray.hpp"
#include "pressio/registry.hpp"

namespace fs = std::filesystem;
using namespace fraz;

namespace {

bool write_file(const fs::path& path, const void* data, std::size_t size) {
  std::ofstream out(path, std::ios::binary);
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
  if (!out) {
    std::fprintf(stderr, "make_corpus: cannot write %s\n", path.string().c_str());
    return false;
  }
  return true;
}

NdArray smooth_field() {
  NdArray field(DType::kFloat32, Shape{6, 8, 4});
  float* p = static_cast<float*>(field.data());
  for (std::size_t i = 0; i < field.elements(); ++i)
    p[i] = std::sin(static_cast<float>(i) * 0.05f) * 10.0f;
  return field;
}

/// archive_wrong_shape.fraz: \p archive with chunk 0 replaced by a frame of
/// the same size, with a valid CRC, that declares 2048^3 f32 elements (32
/// GiB) where the manifest holds a 3×8×4 chunk.  The manifest's chunk CRC
/// still matches (every valid frame ends in its own CRC), so only the check
/// of the frame header against the manifest stops the read, before any
/// decoder sizes memory from the frame.
bool emit_wrong_shape_archive(const fs::path& dir, const Buffer& archive) {
  auto reader = archive::ArchiveReader::open(archive.data(), archive.size());
  if (!reader.ok()) return false;
  const archive::ChunkEntry& entry = reader.value().fields().at(0).chunks.at(0);
  Buffer frame;
  for (std::size_t payload = entry.size; payload-- > 0 && frame.size() != entry.size;)
    seal_container_into(CompressorId::kTruncate, DType::kFloat32, Shape{2048, 2048, 2048},
                        std::vector<std::uint8_t>(payload, 0), frame);
  if (frame.size() != entry.size) return false;
  std::vector<std::uint8_t> forged(archive.data(), archive.data() + archive.size());
  std::copy(frame.data(), frame.data() + frame.size(),
            forged.begin() + static_cast<std::ptrdiff_t>(reader.value().info().chunk_region +
                                                         entry.offset));
  return write_file(dir / "archive_wrong_shape.fraz", forged.data(), forged.size());
}

/// Writers emit only v3, so this writes archive_v3.fraz and its footer, and
/// the wrong-shape archive derived from it.  The
/// older-format seeds in the same directory (archive_v1.fraz,
/// archive_v2.fraz, footer_v2.bin and the golden_v2_*.fraz archives) are
/// frozen: they were written while v1/v2 could still be written, tests pin
/// their CRCs, and this generator never touches them.
bool emit_archives(const fs::path& dir) {
  const NdArray field = smooth_field();
  archive::ArchiveWriteConfig config;
  config.engine.compressor = "truncate";
  config.engine.tuner.target_ratio = 2.5;
  config.engine.tuner.epsilon = 0.3;
  config.chunk_extent = 3;
  config.threads = 1;
  archive::ArchiveWriter writer(std::move(config));
  Buffer bytes;
  auto written = writer.write(field.view(), bytes);
  if (!written.ok()) {
    std::fprintf(stderr, "make_corpus: pack failed: %s\n",
                 written.status().to_string().c_str());
    return false;
  }
  if (!write_file(dir / "archive_v3.fraz", bytes.data(), bytes.size())) return false;
  // The bare footer is its own seed: the open path's first parse step.
  const std::size_t tail = bytes.size() < 48 ? bytes.size() : 48;
  if (!write_file(dir / "footer_v3.bin", bytes.data() + bytes.size() - tail, tail))
    return false;
  return emit_wrong_shape_archive(dir, bytes);
}

bool emit_bound_store(const fs::path& dir) {
  BoundStore store;
  store.put("temperature", 10.0, 1.5e-3);
  store.put("pressure", 8.0, 2.0e-4);
  store.put("velocity/x", 12.0, 7.5e-5);
  Buffer block;
  store.serialize(block);
  if (!write_file(dir / "bounds.frzb", block.data(), block.size())) return false;
  BoundStore empty;
  Buffer empty_block;
  empty.serialize(empty_block);
  return write_file(dir / "bounds_empty.frzb", empty_block.data(), empty_block.size());
}

bool emit_serve_protocol(const fs::path& dir) {
  const std::string session =
      "PING\n"
      "INFO\n"
      "STATS\n"
      "METRICS\n"
      "METRICS PROM\n"
      "GET temperature 0 4\n"
      "CHUNK temperature 1\n"
      "GET temperature 18446744073709551615 1\n"
      "QUIT\n";
  const std::string hostile =
      "GET temperature -1 4\n"
      "GET temperature 0x10 4\n"
      "CHUNK temperature 99999999999999999999\n"
      "METRICS JUNK\n"
      "NOSUCHVERB a b c\n"
      "\n"
      "GET\n";
  return write_file(dir / "session.txt", session.data(), session.size()) &&
         write_file(dir / "hostile.txt", hostile.data(), hostile.size());
}

bool emit_varint(const fs::path& dir) {
  Buffer bytes;
  bytes.push_back(0);  // phase selector: start at ByteReader::varint
  for (const std::uint64_t v : {0ull, 1ull, 127ull, 128ull, 300ull, 1ull << 32,
                                0xffffffffffffffffull})
    put_varint(bytes, v);
  put_u32(bytes, 0xdeadbeefu);
  put_u64(bytes, 0x0123456789abcdefull);
  put_f64(bytes, 3.14159);
  return write_file(dir / "primitives.bin", bytes.data(), bytes.size());
}

bool emit_entropy(const fs::path& dir) {
  std::vector<std::uint32_t> symbols;
  for (std::uint32_t i = 0; i < 256; ++i) symbols.push_back(i % 7);
  const std::vector<std::uint8_t> huff = huffman_encode(symbols);
  const std::vector<std::uint8_t> rans = rans_encode(symbols);
  std::vector<std::uint8_t> huff_seed{0x00};  // router byte: huffman
  huff_seed.insert(huff_seed.end(), huff.begin(), huff.end());
  std::vector<std::uint8_t> rans_seed{0x01};  // router byte: rans
  rans_seed.insert(rans_seed.end(), rans.begin(), rans.end());
  // A one-symbol alphabet at the whole 2^17 scale leaves the state at 2^23
  // after every symbol, so its 2^24 declared symbols (64 MiB) consume no
  // payload byte; the harness must reject it from the count alone.
  std::vector<std::uint8_t> declared_count_seed{0x01};
  put_varint(declared_count_seed, std::uint64_t{1} << 24);  // symbol count
  put_varint(declared_count_seed, 1);                        // distinct
  put_varint(declared_count_seed, 0);                        // symbol 0
  put_varint(declared_count_seed, std::uint64_t{1} << 17);   // frequency
  put_varint(declared_count_seed, 4);                        // payload size
  declared_count_seed.insert(declared_count_seed.end(), {0, 0x80, 0, 0});  // state 2^23
  return write_file(dir / "huffman.bin", huff_seed.data(), huff_seed.size()) &&
         write_file(dir / "rans.bin", rans_seed.data(), rans_seed.size()) &&
         write_file(dir / "rans_declared_count.bin", declared_count_seed.data(),
                    declared_count_seed.size());
}

bool emit_szx(const fs::path& dir) {
  const NdArray field = smooth_field();
  SzxOptions tight;
  tight.error_bound = 1e-4;  // packed blocks with wide codes
  SzxOptions loose;
  loose.error_bound = 15.0;  // mostly constant blocks
  Buffer frame_tight, frame_loose;
  szx_compress_into(field.view(), tight, frame_tight);
  szx_compress_into(field.view(), loose, frame_loose);

  // A frame with a raw block: one NaN demotes its whole block.
  NdArray special(DType::kFloat64, Shape{260});
  double* p = static_cast<double*>(special.data());
  for (std::size_t i = 0; i < special.elements(); ++i)
    p[i] = std::sin(static_cast<double>(i) * 0.02) * 5.0;
  p[7] = std::nan("");
  Buffer frame_raw;
  szx_compress_into(special.view(), SzxOptions{1e-3}, frame_raw);

  return write_file(dir / "tight.szx", frame_tight.data(), frame_tight.size()) &&
         write_file(dir / "loose.szx", frame_loose.data(), frame_loose.size()) &&
         write_file(dir / "raw_block.szx", frame_raw.data(), frame_raw.size());
}

bool emit_fpc(const fs::path& dir) {
  const NdArray field = smooth_field();
  Buffer frame_f32;
  fpc_compress_into(field.view(), FpcOptions{}, frame_f32);

  // Rough doubles: residual bytes at every header length.
  NdArray rough(DType::kFloat64, Shape{128});
  double* p = static_cast<double*>(rough.data());
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < rough.elements(); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    p[i] = static_cast<double>(static_cast<std::int64_t>(x)) * 1e-3;
  }
  FpcOptions small_table;
  small_table.table_bits = 8;  // forces hash collisions -> mispredictions
  Buffer frame_f64;
  fpc_compress_into(rough.view(), small_table, frame_f64);

  return write_file(dir / "smooth_f32.fpc", frame_f32.data(), frame_f32.size()) &&
         write_file(dir / "rough_f64.fpc", frame_f64.data(), frame_f64.size());
}

bool emit_sz2(const fs::path& dir) {
  // Blocked (v2) frames across ranks plus one serial (v1) frame, so the
  // fuzzer mutates both sides of the version routing.
  const NdArray field = smooth_field();
  SzOptions blocked;
  blocked.error_bound = 1e-3;
  blocked.mode = SzMode::kBlocked;
  Buffer frame_3d;
  sz_compress_into(field.view(), blocked, frame_3d);

  NdArray plane(DType::kFloat64, Shape{40, 36});
  double* pd = static_cast<double*>(plane.data());
  for (std::size_t i = 0; i < plane.elements(); ++i)
    pd[i] = std::cos(static_cast<double>(i) * 0.03) * 7.0;
  SzOptions loose = blocked;
  loose.error_bound = 5.0;  // near-constant codes -> tiny rANS alphabets
  Buffer frame_2d;
  sz_compress_into(plane.view(), loose, frame_2d);

  // Rough 1D data at a tight bound: most elements escape into the raw
  // section, exercising the flags/raws framing.
  NdArray rough(DType::kFloat32, Shape{1500});
  float* pf = static_cast<float*>(rough.data());
  std::uint64_t x = 0x243f6a8885a308d3ull;
  for (std::size_t i = 0; i < rough.elements(); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    pf[i] = static_cast<float>(static_cast<std::int64_t>(x)) * 1e-12f;
  }
  SzOptions tight = blocked;
  tight.error_bound = 1e-6;
  Buffer frame_raws;
  sz_compress_into(rough.view(), tight, frame_raws);

  SzOptions serial;
  serial.error_bound = 1e-3;
  Buffer frame_v1;
  sz_compress_into(field.view(), serial, frame_v1);

  return write_file(dir / "blocked_3d.sz2", frame_3d.data(), frame_3d.size()) &&
         write_file(dir / "blocked_2d_loose.sz2", frame_2d.data(), frame_2d.size()) &&
         write_file(dir / "blocked_1d_raws.sz2", frame_raws.data(), frame_raws.size()) &&
         write_file(dir / "serial_v1.sz2", frame_v1.data(), frame_v1.size());
}

/// One valid frame per registered backend, plus the forged frame whose
/// payload-size varint (9 x 0xFF, then the CRC's low byte 0x01) runs into
/// its own CRC and so declares 2^64 - 1 payload bytes.  The extent is
/// scanned until the CRC over the first 19 bytes ends in 0x01.
bool emit_container(const fs::path& dir) {
  const NdArray field = smooth_field();
  for (const std::string& name : pressio::registry().names()) {
    const auto backend = pressio::registry().create(name);
    backend->set_error_bound(1e-2);
    Buffer frame;
    const Status status = backend->compress_into(field.view(), frame);
    if (!status.ok()) {
      std::fprintf(stderr, "make_corpus: %s failed: %s\n", name.c_str(),
                   status.to_string().c_str());
      return false;
    }
    if (!write_file(dir / (name + ".frame"), frame.data(), frame.size())) return false;
  }
  for (std::uint64_t extent = 128;; ++extent) {
    Buffer forged;
    put_u32(forged, 0x5a615246u);  // "FRaZ"
    forged.push_back(1);           // version
    forged.push_back(static_cast<std::uint8_t>(CompressorId::kSz));
    forged.push_back(0);  // f32
    put_varint(forged, 1);
    put_varint(forged, extent);
    for (int i = 0; i < 9; ++i) forged.push_back(0xff);
    const std::uint32_t crc = crc32(forged.data(), forged.size());
    if ((crc & 0xffu) != 0x01u) continue;
    put_u32(forged, crc);
    return write_file(dir / "forged_payload_size.frame", forged.data(), forged.size());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: fraz_make_corpus <output-dir>\n");
    return 2;
  }
  const fs::path root(argv[1]);
  bool ok = true;
  const struct {
    const char* name;
    bool (*emit)(const fs::path&);
  } targets[] = {
      {"archive_format", emit_archives},   {"bound_store", emit_bound_store},
      {"serve_protocol", emit_serve_protocol}, {"varint", emit_varint},
      {"entropy", emit_entropy},           {"szx", emit_szx},
      {"fpc", emit_fpc},                   {"sz2", emit_sz2},
      {"container", emit_container},
  };
  for (const auto& target : targets) {
    const fs::path dir = root / target.name;
    std::error_code ec;
    fs::create_directories(dir, ec);
    ok = target.emit(dir) && ok;
  }
  return ok ? 0 : 1;
}
