/// Negative-path tests for every untrusted-byte surface, driven by the
/// checked-in fuzz seed corpus (tests/corpus/, regenerated by
/// fraz_make_corpus).  These are the Tier-1 shadow of the fuzz harnesses:
/// the same interesting inputs the fuzzers start from must parse (or fail)
/// deterministically here, with no fuzzing toolchain required.
///
/// The corrupted-archive cases are the regression tests for the manifest
/// tiling validation: a hand-tampered v3 field table with overlapping or
/// past-EOF chunk offsets must come back as a corrupt_stream Status from
/// ArchiveReader::open — never UB, never a crash in a later read.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "archive/archive.hpp"
#include "archive/format.hpp"
#include "codec/checksum.hpp"
#include "codec/huffman.hpp"
#include "codec/lz.hpp"
#include "codec/rans.hpp"
#include "codec/rans_interleaved.hpp"
#include "codec/varint.hpp"
#include "compressors/container.hpp"
#include "compressors/fpc/fpc.hpp"
#include "compressors/sz/sz.hpp"
#include "compressors/szx/szx.hpp"
#include "engine/bound_store.hpp"
#include "ndarray/ndarray.hpp"
#include "pressio/registry.hpp"
#include "serve/protocol.hpp"
#include "test_helpers.hpp"

namespace fs = std::filesystem;
using namespace fraz;

namespace {

std::vector<std::uint8_t> read_corpus_file(const std::string& rel) {
  const fs::path path = fs::path(FRAZ_TEST_CORPUS_DIR) / rel;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing corpus file " << path
                         << " — run fraz_make_corpus tests/corpus";
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  return bytes;
}

std::vector<std::string> corpus_lines(const std::string& rel) {
  const std::vector<std::uint8_t> bytes = read_corpus_file(rel);
  std::vector<std::string> lines;
  std::string line;
  for (const std::uint8_t byte : bytes) {
    if (byte == '\n') {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      lines.push_back(line);
      line.clear();
    } else {
      line.push_back(static_cast<char>(byte));
    }
  }
  if (!line.empty()) lines.push_back(line);
  return lines;
}

// ----------------------------------------------------------- BoundStore

void seed_sentinel(BoundStore& store) { store.put("sentinel", 4.0, 0.125); }

TEST(UntrustedBoundStore, CorpusSeedsDeserialize) {
  const auto block = read_corpus_file("bound_store/bounds.frzb");
  BoundStore store;
  seed_sentinel(store);
  ASSERT_TRUE(store.deserialize(block.data(), block.size()).ok());
  EXPECT_EQ(store.size(), 3u);
  EXPECT_DOUBLE_EQ(store.get("temperature", 10.0), 1.5e-3);
  // deserialize replaces, so the sentinel is gone after a successful load.
  EXPECT_EQ(store.get("sentinel", 4.0), 0.0);

  const auto empty = read_corpus_file("bound_store/bounds_empty.frzb");
  BoundStore store2;
  ASSERT_TRUE(store2.deserialize(empty.data(), empty.size()).ok());
  EXPECT_EQ(store2.size(), 0u);
}

TEST(UntrustedBoundStore, EveryTruncationFailsAndLeavesStoreIntact) {
  const auto block = read_corpus_file("bound_store/bounds.frzb");
  ASSERT_GT(block.size(), 0u);
  for (std::size_t len = 0; len < block.size(); ++len) {
    BoundStore store;
    seed_sentinel(store);
    const Status status = store.deserialize(block.data(), len);
    EXPECT_FALSE(status.ok()) << "truncation at " << len << " accepted";
    EXPECT_EQ(store.size(), 1u) << "failed deserialize modified the store";
    EXPECT_DOUBLE_EQ(store.get("sentinel", 4.0), 0.125);
  }
}

TEST(UntrustedBoundStore, EverySingleBitFlipFailsAndLeavesStoreIntact) {
  // CRC-32 detects all single-bit errors, and the magic/version bytes fail
  // even earlier — so every one-bit corruption must be rejected cleanly.
  const auto block = read_corpus_file("bound_store/bounds.frzb");
  for (std::size_t i = 0; i < block.size(); ++i) {
    std::vector<std::uint8_t> bad = block;
    bad[i] ^= 0x01;
    BoundStore store;
    seed_sentinel(store);
    const Status status = store.deserialize(bad.data(), bad.size());
    EXPECT_FALSE(status.ok()) << "bit flip at byte " << i << " accepted";
    EXPECT_EQ(store.size(), 1u);
    EXPECT_DOUBLE_EQ(store.get("sentinel", 4.0), 0.125);
  }
}

TEST(UntrustedBoundStore, HostileNameLengthRejectedNotOverflowed) {
  // Regression: the CRC is attacker-computable, so a name length near 2^64
  // must be caught by the parser's own bounds check — the old
  // `pos + len > size` form wrapped below `size` and passed, sizing a string
  // from the hostile length.
  Buffer block;
  put_u32(block, 0x427a5246u);  // "FRzB"
  block.push_back(1);           // version
  put_varint(block, 1);         // one entry
  put_varint(block, ~std::uint64_t{0});
  put_f64(block, 10.0);
  put_f64(block, 1e-3);
  put_u32(block, crc32(block.data(), block.size()));
  BoundStore store;
  seed_sentinel(store);
  const Status status = store.deserialize(block.data(), block.size());
  EXPECT_EQ(status.code(), StatusCode::kCorruptStream) << status.to_string();
  EXPECT_DOUBLE_EQ(store.get("sentinel", 4.0), 0.125);
}

// -------------------------------------------------- serve protocol parser

TEST(UntrustedServeProtocol, CorpusReplayIsTotal) {
  for (const char* file : {"serve_protocol/session.txt", "serve_protocol/hostile.txt"}) {
    for (const std::string& line : corpus_lines(file)) {
      const serve::Request request = serve::parse_request(line);
      if (request.kind == serve::RequestKind::kBad) {
        EXPECT_FALSE(request.error.empty())
            << "kBad with no error for line: " << line;
      }
    }
  }
}

TEST(UntrustedServeProtocol, RejectsNonNumericIndices) {
  for (const char* line : {"GET temperature -1 4", "GET temperature 0x10 4",
                           "GET temperature 1e3 4", "CHUNK temperature -7",
                           "CHUNK temperature 99999999999999999999",  // 20 digits
                           "GET temperature 0 4extra"}) {
    const serve::Request request = serve::parse_request(line);
    EXPECT_EQ(request.kind, serve::RequestKind::kBad) << line;
    EXPECT_FALSE(request.error.empty()) << line;
  }
}

TEST(UntrustedServeProtocol, RejectsMalformedFrames) {
  EXPECT_EQ(serve::parse_request("GET").kind, serve::RequestKind::kBad);
  EXPECT_EQ(serve::parse_request("GET temperature 0").kind,
            serve::RequestKind::kBad);
  EXPECT_EQ(serve::parse_request("CHUNK temperature 0 9").kind,
            serve::RequestKind::kBad);
  EXPECT_EQ(serve::parse_request("METRICS JUNK").kind, serve::RequestKind::kBad);
  EXPECT_EQ(serve::parse_request("NOSUCHVERB a b").kind,
            serve::RequestKind::kBad);
  EXPECT_EQ(serve::parse_request("").kind, serve::RequestKind::kBlank);
  EXPECT_EQ(serve::parse_request("   ").kind, serve::RequestKind::kBlank);
}

TEST(UntrustedServeProtocol, RejectsOversizedLinesWithoutAllocating) {
  std::string line(serve::kMaxRequestLine + 1, 'A');
  const serve::Request request = serve::parse_request(line);
  EXPECT_EQ(request.kind, serve::RequestKind::kBad);
  EXPECT_NE(request.error.find("too long"), std::string::npos);
  // Exactly at the cap is still parsed (and rejected only as an unknown verb).
  line.resize(serve::kMaxRequestLine);
  EXPECT_NE(serve::parse_request(line).error.find("unknown"), std::string::npos);
}

TEST(UntrustedServeProtocol, ParsesWellFormedRequests) {
  serve::Request get = serve::parse_request("GET velocity/x 3 5");
  EXPECT_EQ(get.kind, serve::RequestKind::kGet);
  EXPECT_EQ(get.field, "velocity/x");
  EXPECT_EQ(get.first, 3u);
  EXPECT_EQ(get.count, 5u);

  serve::Request chunk = serve::parse_request("CHUNK temperature 7");
  EXPECT_EQ(chunk.kind, serve::RequestKind::kChunk);
  EXPECT_EQ(chunk.field, "temperature");
  EXPECT_EQ(chunk.first, 7u);

  EXPECT_EQ(serve::parse_request("PING").kind, serve::RequestKind::kPing);
  EXPECT_EQ(serve::parse_request("METRICS").kind, serve::RequestKind::kMetrics);
  EXPECT_EQ(serve::parse_request("METRICS PROM").kind,
            serve::RequestKind::kMetricsProm);
  // The largest 19-digit index is in range and must round-trip.
  serve::Request big = serve::parse_request("GET t 9223372036854775807 1");
  EXPECT_EQ(big.kind, serve::RequestKind::kGet);
  EXPECT_EQ(big.first, 9223372036854775807ull);
}

// ------------------------------------------------- corrupted v3 archives

struct ParsedArchive {
  std::vector<std::uint8_t> bytes;
  archive::Footer footer;
  archive::ArchiveInfo info;
};

ParsedArchive build_v3_archive() {
  const NdArray field = testhelpers::make_field(DType::kFloat32, Shape{10, 6, 4});
  archive::ArchiveWriteConfig config;
  config.engine.compressor = "truncate";
  config.engine.tuner.target_ratio = 2.5;
  config.engine.tuner.epsilon = 0.3;
  config.chunk_extent = 3;
  config.threads = 1;
  archive::ArchiveWriter writer(std::move(config));
  Buffer packed;
  auto written = writer.write(field.view(), packed);
  EXPECT_TRUE(written.ok()) << written.status().to_string();

  ParsedArchive out;
  out.bytes.assign(packed.begin(), packed.end());
  const std::size_t tail = std::min<std::size_t>(archive::kFooterBytes, out.bytes.size());
  out.footer = archive::parse_footer(out.bytes.data() + out.bytes.size() - tail,
                                     tail, out.bytes.size());
  out.info = archive::parse_manifest(out.bytes.data() + out.footer.manifest_offset,
                                     out.footer.manifest_size, out.footer);
  EXPECT_GE(out.info.fields.at(0).chunks.size(), 2u)
      << "corruption test needs a multi-chunk archive";
  return out;
}

/// Re-emit \p parsed's chunk region with a tampered manifest and a footer
/// fixed up to frame it, so only the *field table* is corrupt.
std::vector<std::uint8_t> splice_manifest(const ParsedArchive& parsed,
                                          const std::vector<archive::FieldInfo>& fields) {
  Buffer manifest;
  archive::encode_manifest_fields(fields, manifest);
  std::vector<std::uint8_t> out(parsed.bytes.begin(),
                                parsed.bytes.begin() +
                                    static_cast<std::ptrdiff_t>(parsed.footer.manifest_offset));
  out.insert(out.end(), manifest.begin(), manifest.end());
  Buffer footer;
  const std::uint64_t total = parsed.footer.manifest_offset + manifest.size() +
                              archive::kFooterBytes;
  archive::encode_footer(parsed.footer.manifest_offset, manifest.size(),
                         parsed.footer.raw_bytes, total,
                         parsed.footer.achieved_ratio, footer);
  out.insert(out.end(), footer.begin(), footer.end());
  return out;
}

TEST(UntrustedArchive, SplicedPristineManifestStillOpens) {
  // Control: the tamper rig itself must round-trip an untouched field table,
  // so a rejection below is attributable to the corruption, not the rig.
  const ParsedArchive parsed = build_v3_archive();
  const auto spliced = splice_manifest(parsed, parsed.info.fields);
  auto reader = archive::ArchiveReader::open(spliced.data(), spliced.size());
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  EXPECT_EQ(reader.value().fields().at(0).chunks.size(),
            parsed.info.fields.at(0).chunks.size());
}

TEST(UntrustedArchive, OverlappingChunkOffsetsRejectedAtOpen) {
  const ParsedArchive parsed = build_v3_archive();
  auto fields = parsed.info.fields;
  // Chunk 1 claims the same region as chunk 0: the index no longer tiles.
  fields.at(0).chunks.at(1).offset = fields.at(0).chunks.at(0).offset;
  const auto corrupt = splice_manifest(parsed, fields);
  auto reader = archive::ArchiveReader::open(corrupt.data(), corrupt.size());
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruptStream)
      << reader.status().to_string();
}

TEST(UntrustedArchive, ChunkPastEndOfRegionRejectedAtOpen) {
  const ParsedArchive parsed = build_v3_archive();
  auto fields = parsed.info.fields;
  // The last chunk claims more payload than the region holds.
  fields.at(0).chunks.back().size += 1u << 20;
  const auto corrupt = splice_manifest(parsed, fields);
  auto reader = archive::ArchiveReader::open(corrupt.data(), corrupt.size());
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruptStream)
      << reader.status().to_string();
}

TEST(UntrustedArchive, GapInChunkTilingRejectedAtOpen) {
  const ParsedArchive parsed = build_v3_archive();
  auto fields = parsed.info.fields;
  // Chunk 1 skips a byte: offsets must tile the region with no gaps.
  fields.at(0).chunks.at(1).offset += 1;
  const auto corrupt = splice_manifest(parsed, fields);
  auto reader = archive::ArchiveReader::open(corrupt.data(), corrupt.size());
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruptStream);
}

TEST(UntrustedArchive, CorpusArchivesOpenAndTruncationsFail) {
  for (const char* name :
       {"archive_format/archive_v1.fraz", "archive_format/archive_v2.fraz",
        "archive_format/archive_v3.fraz"}) {
    const auto bytes = read_corpus_file(name);
    auto reader = archive::ArchiveReader::open(bytes.data(), bytes.size());
    ASSERT_TRUE(reader.ok()) << name << ": " << reader.status().to_string();
    // Dropping the final footer byte must fail cleanly, as must a handful
    // of interior truncations (every prefix would be slow at this size).
    for (const std::size_t len :
         {bytes.size() - 1, bytes.size() / 2, std::size_t{47}, std::size_t{1},
          std::size_t{0}}) {
      auto bad = archive::ArchiveReader::open(bytes.data(), len);
      EXPECT_FALSE(bad.ok()) << name << " truncated to " << len << " accepted";
    }
  }
}

TEST(UntrustedArchive, CorpusWrongShapeFrameFailsItsChunkReadOnly) {
  // Chunk 0's frame has a valid CRC and declares 2^33 f32 elements where
  // the manifest holds 3×8×4: the read fails on the header check, before
  // the backend would size its output from the frame.
  const auto bytes = read_corpus_file("archive_format/archive_wrong_shape.fraz");
  auto reader = archive::ArchiveReader::open(bytes.data(), bytes.size());
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  const archive::FieldInfo& field = reader.value().fields().at(0);
  const auto forged = reader.value().read_chunk(field.name, 0);
  ASSERT_FALSE(forged.ok());
  EXPECT_EQ(forged.status().code(), StatusCode::kCorruptStream);
  EXPECT_NE(forged.status().message().find("manifest"), std::string::npos)
      << forged.status().to_string();
  for (std::size_t i = 1; i < field.chunk_count; ++i)
    EXPECT_TRUE(reader.value().read_chunk(field.name, i).ok()) << "chunk " << i;
}

// ------------------------------------------ varint / entropy decoder edges

TEST(UntrustedCodecs, VarintTruncationThrowsCorruptStream) {
  Buffer bytes;
  put_varint(bytes, 0xffffffffffffffffull);
  put_u32(bytes, 0xdeadbeefu);
  put_f64(bytes, 2.5);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    ByteReader in(bytes.data(), len, "test");
    if (len < 10) {
      EXPECT_THROW(in.varint(), CorruptStream);
    } else {
      EXPECT_NO_THROW(in.varint());
      if (len < 14) {
        EXPECT_THROW(in.u32(), CorruptStream);
      }
    }
  }
}

TEST(UntrustedCodecs, EntropyCorpusRoundTripsAndTruncationsThrow) {
  for (const char* name : {"entropy/huffman.bin", "entropy/rans.bin"}) {
    const auto seed = read_corpus_file(name);
    ASSERT_GT(seed.size(), 1u);
    const std::uint8_t* payload = seed.data() + 1;  // skip harness router byte
    const std::size_t size = seed.size() - 1;
    std::vector<std::uint32_t> symbols;
    if (seed[0] == 0x00)
      EXPECT_NO_THROW(symbols = huffman_decode(payload, size));
    else
      EXPECT_NO_THROW(symbols = rans_decode(payload, size));
    EXPECT_EQ(symbols.size(), 256u);
    for (const std::size_t len : {size - 1, size / 2, std::size_t{3}, std::size_t{0}}) {
      if (seed[0] == 0x00)
        EXPECT_THROW(huffman_decode(payload, len), CorruptStream);
      else
        EXPECT_THROW(rans_decode(payload, len), CorruptStream);
    }
  }
}

TEST(UntrustedBackends, SzxCorpusDecodesAndTruncationsThrow) {
  for (const char* name : {"szx/tight.szx", "szx/loose.szx", "szx/raw_block.szx"}) {
    const auto seed = read_corpus_file(name);
    ASSERT_GT(seed.size(), 4u) << name;
    EXPECT_NO_THROW((void)szx_decompress(seed.data(), seed.size())) << name;
    for (const std::size_t len :
         {seed.size() - 1, seed.size() / 2, std::size_t{5}, std::size_t{0}})
      EXPECT_THROW(szx_decompress(seed.data(), len), CorruptStream) << name;
  }
}

TEST(UntrustedBackends, Sz2CorpusDecodesAndEveryTruncationThrows) {
  // The v2 blocked frames plus the v1 control seed: each must decode, and a
  // cut at EVERY byte boundary must throw — never crash, never succeed with
  // a frame whose checksum cannot have matched.
  for (const char* name : {"sz2/blocked_3d.sz2", "sz2/blocked_2d_loose.sz2",
                           "sz2/blocked_1d_raws.sz2", "sz2/serial_v1.sz2"}) {
    const auto seed = read_corpus_file(name);
    ASSERT_GT(seed.size(), 8u) << name;
    EXPECT_NO_THROW((void)sz_decompress(seed.data(), seed.size())) << name;
    for (std::size_t len = 0; len < seed.size(); ++len)
      EXPECT_THROW(sz_decompress(seed.data(), len), CorruptStream)
          << name << " truncated to " << len;
  }
}

TEST(UntrustedBackends, Sz2BitFlipsComeBackAsStatusNeverThrow) {
  // The Status surface the serving path relies on: through the plugin's
  // noexcept decompress_into, a corrupted frame is data, not an exception.
  // (The container checksum catches every single-bit flip; deeper payload
  // corruption is the fuzzer's job, with these same seeds.)
  const auto plugin = pressio::registry().create("sz");
  for (const char* name : {"sz2/blocked_3d.sz2", "sz2/serial_v1.sz2"}) {
    const auto seed = read_corpus_file(name);
    NdArray out;
    ASSERT_TRUE(plugin->decompress_into(seed.data(), seed.size(), out).ok()) << name;
    std::vector<std::uint8_t> mutated = seed;
    for (std::size_t bit = 0; bit < mutated.size() * 8; bit += 97) {
      mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      const Status s = plugin->decompress_into(mutated.data(), mutated.size(), out);
      EXPECT_FALSE(s.ok()) << name << " bit " << bit << " slipped past the checksum";
      mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
  }
}

/// sz payload header for the hand-built hostile frames below: stored error
/// bound (raw f64) plus the informational regression flag byte.
std::vector<std::uint8_t> sz_payload_header() {
  std::vector<std::uint8_t> h(sizeof(double));
  const double e = 0.5;
  std::memcpy(h.data(), &e, sizeof e);
  h.push_back(0);
  return h;
}

TEST(UntrustedBackends, SzHostileSectionLengthsRejectedNotOverflowed) {
  // Regression: sz section lengths are attacker-chosen 64-bit varints and
  // the container CRC is attacker-computable, so a length near 2^64 must be
  // caught by the decoder's own bounds checks — the old `pos + len > size`
  // form wrapped below `size` and passed, handing the section readers an
  // out-of-bounds span.  One hostile length per frame; every frame must come
  // back as CorruptStream.
  std::vector<std::uint8_t> huge_varint;
  put_varint(huge_varint, ~std::uint64_t{0});
  const auto seal = [](const std::vector<std::uint8_t>& payload, std::uint8_t version) {
    Buffer frame;
    seal_container_into(CompressorId::kSz, DType::kFloat32, Shape{8}, payload.data(),
                        payload.size(), frame, version);
    return std::vector<std::uint8_t>(frame.begin(), frame.end());
  };
  // v2 group blob carrying one hostile section length; Shape{8} is a single
  // block in a single group, so flag_bytes = 1 is the valid prefix.
  const auto v2_frame = [&](const std::vector<std::uint8_t>& blob, bool hostile_outer) {
    std::vector<std::uint8_t> payload = sz_payload_header();
    put_varint(payload, 1);  // group count for Shape{8}
    if (hostile_outer) {
      payload.insert(payload.end(), huge_varint.begin(), huge_varint.end());
    } else {
      put_varint(payload, blob.size());
      payload.insert(payload.end(), blob.begin(), blob.end());
    }
    return seal(payload, 2);
  };

  std::vector<std::vector<std::uint8_t>> frames;
  {
    // v1: hostile flag-section length right after the header.
    std::vector<std::uint8_t> payload = sz_payload_header();
    payload.insert(payload.end(), huge_varint.begin(), huge_varint.end());
    frames.push_back(seal(payload, 1));
  }
  frames.push_back(v2_frame({}, true));  // v2: hostile group blob size
  {
    std::vector<std::uint8_t> blob;
    put_varint(blob, 1);  // flag bytes
    blob.push_back(0);    // Lorenzo block
    blob.insert(blob.end(), huge_varint.begin(), huge_varint.end());  // coeff bytes
    frames.push_back(v2_frame(blob, false));
  }
  {
    std::vector<std::uint8_t> blob;
    put_varint(blob, 1);
    blob.push_back(0);
    put_varint(blob, 0);  // coeff bytes
    blob.insert(blob.end(), huge_varint.begin(), huge_varint.end());  // entropy bytes
    frames.push_back(v2_frame(blob, false));
  }
  for (std::size_t i = 0; i < frames.size(); ++i)
    EXPECT_THROW((void)sz_decompress(frames[i].data(), frames[i].size()), CorruptStream)
        << "hostile frame " << i;
}

TEST(UntrustedBackends, SzHostileSymbolCountRejectedBeforeAllocation) {
  // Regression: a v2 group's entropy stream with a degenerate one-symbol
  // alphabet consumes zero payload bytes per symbol, so the blob size does
  // not bound its declared count.  The decoder hands the group element count
  // to the codec, which must reject the mismatch before sizing its output —
  // the 10^15 declared here would otherwise be a ~4 PB resize attempt.
  auto entropy = rans_interleaved_encode(std::vector<std::uint32_t>(8, 512));
  ASSERT_EQ(entropy[0], 8u);  // 1-byte varint count, spliced out below
  std::vector<std::uint8_t> hostile;
  put_varint(hostile, std::uint64_t{1000000000000000ull});
  hostile.insert(hostile.end(), entropy.begin() + 1, entropy.end());

  std::vector<std::uint8_t> blob;
  put_varint(blob, 1);  // flag bytes
  blob.push_back(0);    // Lorenzo block
  put_varint(blob, 0);  // coeff bytes
  put_varint(blob, hostile.size());
  blob.insert(blob.end(), hostile.begin(), hostile.end());
  put_varint(blob, 0);  // raw bytes

  std::vector<std::uint8_t> payload = sz_payload_header();
  put_varint(payload, 1);  // group count
  put_varint(payload, blob.size());
  payload.insert(payload.end(), blob.begin(), blob.end());
  Buffer frame;
  seal_container_into(CompressorId::kSz, DType::kFloat32, Shape{8}, payload.data(),
                      payload.size(), frame, 2);
  EXPECT_THROW((void)sz_decompress(frame.data(), frame.size()), CorruptStream);
}

TEST(UntrustedBackends, SzV1RegressionFlagsOn1DDecodeAsPinned) {
  // The v1 encoder never flags 1D blocks for regression, but a hostile frame
  // may, and the decoder predicts those blocks point by point with the full
  // plane c0 + c1*x + c2*0 + c3*0.  Block 0 carries ordinary coefficients;
  // block 2's c2 overflows to +inf, so c2*0 makes its predictions NaN — a
  // decoder that dropped the zero terms would decode finite values there.
  // The decoded bytes are pinned by CRC-32.
  constexpr std::size_t kN = 600;  // three 256-point v1 blocks
  const double e = 1e300;
  std::vector<std::uint32_t> codes(kN);
  std::vector<std::uint8_t> raws;
  for (std::size_t i = 0; i < kN; ++i) {
    codes[i] = i % 50 == 7 ? 0u : 32768u + static_cast<std::uint32_t>(i % 3) - 1u;
    if (codes[i] == 0) {
      const double raw = 0.25 * static_cast<double>(i);
      raws.insert(raws.end(), reinterpret_cast<const std::uint8_t*>(&raw),
                  reinterpret_cast<const std::uint8_t*>(&raw) + sizeof raw);
    }
  }
  std::vector<std::uint8_t> coeffs;
  for (const std::int64_t q : {5, -3, 2, 1}) put_varint(coeffs, zigzag_encode(q));
  for (const std::int64_t q : {std::int64_t{0}, std::int64_t{1}, std::int64_t{1} << 62,
                               std::int64_t{0}})
    put_varint(coeffs, zigzag_encode(q));
  std::vector<std::uint8_t> entropy = rans_encode(codes);

  std::vector<std::uint8_t> assembled(sizeof e);
  std::memcpy(assembled.data(), &e, sizeof e);
  assembled.push_back(1);     // regression enabled (informational)
  put_varint(assembled, 1);   // flag bytes
  assembled.push_back(0x5);   // blocks 0 and 2 flagged
  for (const auto* section : {&coeffs, &entropy, &raws}) {
    put_varint(assembled, section->size());
    assembled.insert(assembled.end(), section->begin(), section->end());
  }
  const std::vector<std::uint8_t> payload = lz_compress(assembled);
  Buffer frame;
  seal_container_into(CompressorId::kSz, DType::kFloat64, Shape{kN}, payload.data(),
                      payload.size(), frame, 1);
  const NdArray decoded = sz_decompress(frame.data(), frame.size());
  ASSERT_EQ(decoded.elements(), kN);
  for (std::size_t i = 512; i < kN; ++i)
    EXPECT_EQ(std::isnan(decoded.at_flat(i)), codes[i] != 0) << i;
  EXPECT_EQ(crc32(static_cast<const std::uint8_t*>(decoded.data()), decoded.size_bytes()),
            0x3431731au);
}

TEST(UntrustedBackends, MgardHostileStreamLengthsRejectedNotOverflowed) {
  // Regression: mgard's code- and raw-stream lengths are 64-bit varints
  // inside an LZ-wrapped payload under an attacker-computable container
  // CRC.  A length near 2^64 must be rejected by the decoder, not wrap the
  // `pos + len > size` check and hand huffman_decode an out-of-bounds span.
  std::vector<std::uint8_t> huge_varint;
  put_varint(huge_varint, ~std::uint64_t{0});
  const auto frame = [&](bool hostile_raw) {
    Buffer assembled;
    assembled.push_back(0);  // norm tag
    put_f64(assembled, 1.0);  // tolerance
    put_varint(assembled, 1);  // levels
    if (hostile_raw) {
      const std::vector<std::uint32_t> codes(16, 1);
      const std::vector<std::uint8_t> huff = huffman_encode(codes);
      put_varint(assembled, huff.size());
      assembled.append(huff.data(), huff.size());
    }
    assembled.append(huge_varint.data(), huge_varint.size());
    const std::vector<std::uint8_t> packed = lz_compress(assembled.data(), assembled.size());
    Buffer sealed;
    seal_container_into(CompressorId::kMgard, DType::kFloat32, Shape{4, 4}, packed.data(),
                        packed.size(), sealed);
    return sealed;
  };
  const auto mgard = pressio::registry().create("mgard");
  for (const bool hostile_raw : {false, true}) {
    const Buffer sealed = frame(hostile_raw);
    NdArray out;
    const Status status = mgard->decompress_into(sealed.data(), sealed.size(), out);
    EXPECT_EQ(status.code(), StatusCode::kCorruptStream)
        << (hostile_raw ? "raw" : "code") << " stream: " << status.to_string();
  }
}

TEST(UntrustedCodecs, LzHostileLengthsRejectedBeforeAllocation) {
  // The declared output size sizes no allocation beyond a small multiple of
  // the input, and literal / match lengths near 2^64 cannot wrap the checks.
  std::vector<std::uint8_t> literal;
  put_varint(literal, std::uint64_t{1} << 62);  // declared output size
  put_varint(literal, ~std::uint64_t{0});       // literal run
  EXPECT_THROW((void)lz_decompress(literal), CorruptStream);

  std::vector<std::uint8_t> match;
  put_varint(match, ~std::uint64_t{0});  // declared output size
  put_varint(match, 4);                  // literal run of 4 bytes
  match.insert(match.end(), {1, 2, 3, 4});
  put_varint(match, 1);                          // offset
  put_varint(match, ~std::uint64_t{0} - 1);      // match length - 4: wraps
  EXPECT_THROW((void)lz_decompress(match), CorruptStream);
}

TEST(UntrustedCodecs, RansWrappingFrequencyTableRejected) {
  // 2^15 + 1 frequencies of 2^17 sum to 2^32 + 2^17: a 32-bit running sum
  // wraps back onto the 2^17 scale, and every cumulative start past the
  // first would index beyond the slot table.  Rejected while parsing.
  std::vector<std::uint8_t> bogus;
  put_varint(bogus, 1);  // symbol count
  const std::uint64_t distinct = (std::uint64_t{1} << 15) + 1;
  put_varint(bogus, distinct);
  for (std::uint64_t i = 0; i < distinct; ++i) {
    put_varint(bogus, i == 0 ? 0 : 1);                      // symbol delta
    put_varint(bogus, std::uint64_t{1} << kRansProbBits);  // frequency
  }
  put_varint(bogus, 4);                        // payload size
  bogus.insert(bogus.end(), {0, 0x80, 0, 0});  // initial state 2^23
  EXPECT_THROW((void)rans_decode(bogus), CorruptStream);
  EXPECT_THROW((void)rans_decode_ref(bogus.data(), bogus.size()), CorruptStream);
}

TEST(UntrustedBackends, FpcCorpusDecodesAndTruncationsThrow) {
  for (const char* name : {"fpc/smooth_f32.fpc", "fpc/rough_f64.fpc"}) {
    const auto seed = read_corpus_file(name);
    ASSERT_GT(seed.size(), 4u) << name;
    EXPECT_NO_THROW((void)fpc_decompress(seed.data(), seed.size())) << name;
    for (const std::size_t len :
         {seed.size() - 1, seed.size() / 2, std::size_t{5}, std::size_t{0}})
      EXPECT_THROW(fpc_decompress(seed.data(), len), CorruptStream) << name;
  }
}

// ------------------------------------------------- container, every backend

/// The 23-byte frame whose payload-size varint (9 x 0xFF, then the CRC's low
/// byte 0x01) runs into its own CRC, declaring 2^64 - 1 payload bytes.  The
/// extent is scanned until the CRC over the first 19 bytes ends in 0x01.
std::vector<std::uint8_t> forged_payload_size_frame(CompressorId id) {
  for (std::uint64_t extent = 128;; ++extent) {  // two-byte varint extents
    Buffer frame;
    put_u32(frame, 0x5a615246u);  // "FRaZ"
    frame.push_back(1);           // version
    frame.push_back(static_cast<std::uint8_t>(id));
    frame.push_back(0);  // f32
    put_varint(frame, 1);
    put_varint(frame, extent);
    for (int i = 0; i < 9; ++i) frame.push_back(0xff);
    const std::uint32_t crc = crc32(frame.data(), frame.size());
    if ((crc & 0xffu) != 0x01u) continue;
    put_u32(frame, crc);
    return {frame.begin(), frame.end()};
  }
}

TEST(UntrustedBackends, PayloadSizeRunningIntoTheCrcIsCorruptOnEveryBackend) {
  // Regression: open_container checked `pos + payload_size + 4 != size`,
  // which wraps: this frame opened with payload_size = 2^64 - 1 and the sz
  // decoder then read past the buffer inside lz_decompress.
  const auto pinned = read_corpus_file("container/forged_payload_size.frame");
  EXPECT_EQ(pinned, forged_payload_size_frame(CompressorId::kSz));
  ASSERT_EQ(pinned.size(), 23u);
  for (std::uint8_t tag = 1; tag <= static_cast<std::uint8_t>(CompressorId::kFpc); ++tag) {
    const auto id = static_cast<CompressorId>(tag);
    const auto frame = forged_payload_size_frame(id);
    EXPECT_THROW((void)open_container(frame.data(), frame.size()), CorruptStream);
    for (const std::string& name : pressio::registry().names()) {
      NdArray out;
      const Status status =
          pressio::registry().create(name)->decompress_into(frame.data(), frame.size(), out);
      EXPECT_EQ(status.code(), StatusCode::kCorruptStream)
          << name << " on a forged " << archive::backend_name(id)
          << " frame: " << status.to_string();
    }
  }
}

TEST(UntrustedBackends, ContainerCorpusReplaysThroughItsBackend) {
  // The fuzz_container seeds: one valid frame per backend decodes through
  // the backend its container id names, and every truncation is rejected.
  const fs::path dir = fs::path(FRAZ_TEST_CORPUS_DIR) / "container";
  std::size_t valid = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string rel = "container/" + entry.path().filename().string();
    const auto frame = read_corpus_file(rel);
    if (rel == "container/forged_payload_size.frame") continue;  // pinned above
    const Container c = open_container(frame.data(), frame.size());
    const auto backend = pressio::registry().create(archive::backend_name(c.id));
    NdArray out;
    EXPECT_TRUE(backend->decompress_into(frame.data(), frame.size(), out).ok()) << rel;
    EXPECT_EQ(out.shape(), c.shape) << rel;
    for (std::size_t len = 0; len < frame.size(); ++len)
      EXPECT_FALSE(backend->decompress_into(frame.data(), len, out).ok())
          << rel << " truncated to " << len;
    ++valid;
  }
  EXPECT_EQ(valid, pressio::registry().names().size());
}

}  // namespace
