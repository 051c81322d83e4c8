/// Push-based ingestion sessions and v3 multi-field archives: the byte-
/// identity gates (v3 writes vs the frozen v2 goldens' chunk regions,
/// plane-by-plane push vs whole-array write at any worker count, Buffer vs
/// path builds, a retraining multi-field campaign at 1/2/4 workers), the
/// streamed-input memory bound, the v3 field table round trip (mixed dtypes,
/// per-field reads, truncation at every boundary), and the session-misuse
/// and cancellation surface.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <vector>

#include "archive/archive.hpp"
#include "archive_fixtures.hpp"
#include "codec/checksum.hpp"
#include "data/datasets.hpp"
#include "pressio/registry.hpp"
#include "telemetry/telemetry.hpp"
#include "test_helpers.hpp"

namespace fraz {
namespace {

using archive::ArchiveReader;
using archive::ArchiveWriteConfig;
using archive::ArchiveWriteResult;
using archive::ArchiveWriter;
using archive::FieldDesc;
using archive::FieldSession;
using archive::FieldWriteReport;
using testhelpers::make_field;

ArchiveWriteConfig writer_config(const std::string& backend, double target, double epsilon,
                                 std::size_t chunk_extent = 0, unsigned threads = 1) {
  ArchiveWriteConfig config;
  config.engine.compressor = backend;
  config.engine.tuner.target_ratio = target;
  config.engine.tuner.epsilon = epsilon;
  config.chunk_extent = chunk_extent;
  config.threads = threads;
  return config;
}

FieldDesc desc_of(const NdArray& field, std::size_t chunk_extent = 0) {
  FieldDesc desc;
  desc.dtype = field.dtype();
  desc.shape = field.shape();
  desc.chunk_extent = chunk_extent;
  return desc;
}

/// View of planes [first, first + count) of a field (slab to push).
ArrayView planes_of(const NdArray& field, std::size_t first, std::size_t count) {
  const std::size_t plane_bytes = field.size_bytes() / field.shape()[0];
  Shape slab_shape = field.shape();
  slab_shape[0] = count;
  return ArrayView(static_cast<const std::uint8_t*>(field.data()) + first * plane_bytes,
                   field.dtype(), std::move(slab_shape));
}

/// Push a whole field through \p session in slabs of \p slab_planes.
void push_all(FieldSession& session, const NdArray& field, std::size_t slab_planes) {
  const std::size_t n0 = field.shape()[0];
  for (std::size_t first = 0; first < n0; first += slab_planes) {
    const std::size_t count = std::min(slab_planes, n0 - first);
    const Status s = session.push(planes_of(field, first, count));
    ASSERT_TRUE(s.ok()) << s.to_string();
  }
}

class TempFiles {
public:
  ~TempFiles() {
    for (const std::string& path : paths_) std::remove(path.c_str());
  }
  std::string make(const std::string& name) {
    paths_.push_back("fraz_test_fields_" + name + ".tmp");
    return paths_.back();
  }

private:
  std::vector<std::string> paths_;
};

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(is.good()) << path;
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(is.tellg()));
  is.seekg(0);
  is.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

void dump(const std::string& path, const std::uint8_t* data, std::size_t size) {
  std::ofstream os(path, std::ios::binary);
  os.write(reinterpret_cast<const char*>(data), static_cast<std::streamsize>(size));
  ASSERT_TRUE(os.good()) << path;
}

/// One frozen v2 golden and the whole-file CRC a v3 write of the same input
/// produces.
struct GoldenCase {
  testhelpers::FrozenArchive golden;
  std::uint32_t v3_file_crc;
};

/// Chunk \p i's payload bytes in an archive opened by \p reader.
std::vector<std::uint8_t> chunk_bytes(const std::uint8_t* bytes, const ArchiveReader& reader,
                                      std::size_t i) {
  const archive::ChunkEntry& entry = reader.info().chunks[i];
  const std::uint8_t* begin = bytes + reader.info().chunk_region + entry.offset;
  return std::vector<std::uint8_t>(begin, begin + entry.size);
}

TEST(ArchiveFields, V3WritesReproduceTheFrozenV2GoldenChunks) {
  // The regression gate on the write path: writers now emit only v3, and a
  // v3 write of each golden input — through a Buffer and through a path, at
  // 1, 2 and 4 workers — must reproduce the golden's chunks byte for byte and
  // decode to the same values.  The exceptions are the sz chunks that land
  // out of band at chunk 0's seed: they retrain from that landing
  // (Tuner::retrain), which picks other bounds than the golden's Algorithm 2
  // search did, and step 1 carries those bounds.  The v3 whole-file CRCs are
  // pinned, so a manifest, footer or retrain change cannot slip through.
  TempFiles tmp;
  const NdArray sz_step0 = make_field(DType::kFloat32, {24, 16, 12});
  const NdArray sz_step1 = make_field(DType::kFloat32, {24, 16, 12}, 51.0);
  const NdArray zfp_input = make_field(DType::kFloat64, {12, 20, 14});
  const GoldenCase sz_cases[] = {{testhelpers::kGoldenV2SzStep0, 0xde67ccd8u},
                                 {testhelpers::kGoldenV2SzStep1, 0xd2c41642u}};
  const GoldenCase zfp_case{testhelpers::kGoldenV2Zfp, 0xed1c46a0u};

  // Check one fresh v3 archive against its golden; \p retrained marks the
  // chunks whose bound a retrain re-chose.
  auto check = [&](const GoldenCase& c, const std::vector<std::uint8_t>& v3,
                   const std::vector<bool>& retrained, const std::string& label) {
    EXPECT_EQ(crc32(v3.data(), v3.size()), c.v3_file_crc) << label;
    const std::vector<std::uint8_t> golden = testhelpers::load_frozen(c.golden);
    auto golden_reader = ArchiveReader::open(golden.data(), golden.size());
    auto v3_reader = ArchiveReader::open(v3.data(), v3.size());
    ASSERT_TRUE(golden_reader.ok()) << golden_reader.status().to_string();
    ASSERT_TRUE(v3_reader.ok()) << v3_reader.status().to_string();
    const std::size_t chunks = golden_reader.value().info().chunks.size();
    ASSERT_EQ(v3_reader.value().info().chunks.size(), chunks) << label;
    ASSERT_EQ(retrained.size(), chunks) << label;
    for (std::size_t i = 0; i < chunks; ++i) {
      const std::string at = label + ", chunk " + std::to_string(i);
      const double golden_bound = golden_reader.value().info().chunks[i].error_bound;
      const double v3_bound = v3_reader.value().info().chunks[i].error_bound;
      if (retrained[i]) {
        EXPECT_NE(v3_bound, golden_bound) << at;
        continue;
      }
      EXPECT_EQ(v3_bound, golden_bound) << at;
      EXPECT_EQ(chunk_bytes(v3.data(), v3_reader.value(), i),
                chunk_bytes(golden.data(), golden_reader.value(), i))
          << at;
      const NdArray golden_values =
          golden_reader.value().read_chunk(archive::kDefaultFieldName, i).value();
      const NdArray v3_values =
          v3_reader.value().read_chunk(archive::kDefaultFieldName, i).value();
      ASSERT_EQ(v3_values.size_bytes(), golden_values.size_bytes()) << at;
      EXPECT_EQ(std::memcmp(v3_values.data(), golden_values.data(), v3_values.size_bytes()),
                0)
          << at;
    }
  };

  for (const unsigned threads : {1u, 2u, 4u}) {
    const std::string at = " at " + std::to_string(threads) + " workers";
    {
      // Both sz steps go through the SAME writer: step 1's chunks warm-start
      // from step 0's bounds, so the cross-write warm path is pinned too.
      ArchiveWriter memory_writer(writer_config("sz", 6.0, 0.2, 2, threads));
      ArchiveWriter path_writer(writer_config("sz", 6.0, 0.2, 2, threads));
      const NdArray* steps[] = {&sz_step0, &sz_step1};
      std::vector<bool> retrained;
      for (std::size_t step = 0; step < 2; ++step) {
        Buffer out;
        const auto written = memory_writer.write(steps[step]->view(), out);
        ASSERT_TRUE(written.ok()) << written.status().to_string();
        if (step == 0) {
          // Chunk 0's cold search is Algorithm 2, as the golden's was; the
          // chunks its seed serves in band stay warm.
          const std::vector<archive::ChunkReport>& chunks = written.value().chunks;
          for (std::size_t i = 0; i < chunks.size(); ++i)
            retrained.push_back(i > 0 && chunks[i].retrained);
          EXPECT_EQ(std::count(retrained.begin(), retrained.end(), true), 9) << at;
        }
        const std::string label = "sz step " + std::to_string(step);
        check(sz_cases[step], std::vector<std::uint8_t>(out.begin(), out.end()), retrained,
              label + " (Buffer)" + at);
        const std::string path = tmp.make("golden_sz_" + std::to_string(step));
        ASSERT_TRUE(path_writer.write(path, steps[step]->view()).ok());
        check(sz_cases[step], slurp(path), retrained, label + " (path)" + at);
      }
    }
    const std::vector<bool> none(4, false);
    ArchiveWriter zfp_writer(writer_config("zfp", 8.0, 0.2, 3, threads));
    Buffer out;
    ASSERT_TRUE(zfp_writer.write(zfp_input.view(), out).ok());
    check(zfp_case, std::vector<std::uint8_t>(out.begin(), out.end()), none,
          "zfp (Buffer)" + at);
    const std::string path = tmp.make("golden_zfp");
    ASSERT_TRUE(ArchiveWriter(writer_config("zfp", 8.0, 0.2, 3, threads))
                    .write(path, zfp_input.view())
                    .ok());
    check(zfp_case, slurp(path), none, "zfp (path)" + at);
  }
}

TEST(ArchiveFields, PlaneByPlanePushMatchesWholeArrayWrite) {
  // The tentpole contract: a field pushed plane by plane (or in any slab
  // granularity) produces bit-identical archives to the whole-array write,
  // at any worker count — the slab boundaries never reach the wire.
  const NdArray field = make_field(DType::kFloat32, {24, 16, 12});
  Buffer whole;
  ArchiveWriter(writer_config("sz", 6.0, 0.2, 2, 1)).write(field.view(), whole).value();

  for (const unsigned threads : {1u, 4u}) {
    for (const std::size_t slab_planes : {std::size_t{1}, std::size_t{3}, std::size_t{24}}) {
      ArchiveWriter writer(writer_config("sz", 6.0, 0.2, 2, threads));
      Buffer pushed;
      ASSERT_TRUE(writer.begin(pushed).ok());
      auto session = writer.open_field(archive::kDefaultFieldName, desc_of(field, 2));
      ASSERT_TRUE(session.ok()) << session.status().to_string();
      push_all(session.value(), field, slab_planes);
      ASSERT_TRUE(session.value().close().ok());
      ASSERT_TRUE(writer.finish().ok());
      ASSERT_EQ(pushed.size(), whole.size()) << threads << "x" << slab_planes;
      EXPECT_EQ(std::memcmp(pushed.data(), whole.data(), whole.size()), 0)
          << "push(" << slab_planes << " planes) at " << threads
          << " workers diverged from write()";
    }
  }
}

TEST(ArchiveFields, StreamedInputResidencyIsChunkRowBounded) {
  // The memory claim of the ISSUE: pushing a field plane by plane never
  // materializes it — the writer owns at most (workers + 2) chunk rows of
  // raw input (window rows in flight plus the staging row).
  TempFiles tmp;
  const NdArray field = make_field(DType::kFloat32, {64, 24, 16});
  const std::size_t row_bytes = 2 * (field.size_bytes() / 64);  // extent 2
  for (const unsigned threads : {1u, 4u}) {
    ArchiveWriter writer(writer_config("sz", 8.0, 0.2, 2, threads));
    const std::string path = tmp.make("residency_" + std::to_string(threads));
    ASSERT_TRUE(writer.begin(path).ok());
    auto session = writer.open_field("stream", desc_of(field, 2));
    ASSERT_TRUE(session.ok()) << session.status().to_string();
    push_all(session.value(), field, 1);  // one plane at a time
    ASSERT_TRUE(session.value().close().ok());
    auto finished = writer.finish();
    ASSERT_TRUE(finished.ok()) << finished.status().to_string();
    const ArchiveWriteResult& result = finished.value();
    EXPECT_GT(result.peak_staged_bytes, 0u);
    EXPECT_LE(result.peak_staged_bytes, (threads + 2) * row_bytes)
        << "input residency exceeded the chunk-row window at " << threads << " workers";
    EXPECT_LT(result.peak_staged_bytes, result.raw_bytes / 4)
        << "input residency is not o(field)";
    EXPECT_LE(result.peak_buffered_chunks, static_cast<std::size_t>(threads) + 1);
    // And the streamed file is readable.
    auto reader = ArchiveReader::open(path);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.value().read_all("stream", threads).value().shape(), field.shape());
  }
}

TEST(ArchiveFields, MultiFieldMixedDtypeRoundTripBothTransports) {
  // A v3 archive holding an f32 and an f64 field round-trips per-field
  // reads through both transports, and its bytes are identical at 1..N
  // workers and across transports.
  TempFiles tmp;
  const NdArray temp = make_field(DType::kFloat32, {24, 16, 12});
  const NdArray press = make_field(DType::kFloat64, {12, 20, 14}, 30.0);

  auto build = [&](unsigned threads, Buffer& out) {
    ArchiveWriter writer(writer_config("sz", 6.0, 0.2, 0, threads));
    ASSERT_TRUE(writer.begin(out).ok());
    auto t = writer.open_field("temp", desc_of(temp, 2));
    ASSERT_TRUE(t.ok());
    push_all(t.value(), temp, 5);
    ASSERT_TRUE(t.value().close().ok());
    auto p = writer.open_field("press", desc_of(press, 3));
    ASSERT_TRUE(p.ok());
    push_all(p.value(), press, 12);
    const auto report = p.value().close();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().name, "press");
    EXPECT_EQ(report.value().chunk_count, 4u);
    auto finished = writer.finish();
    ASSERT_TRUE(finished.ok()) << finished.status().to_string();
    EXPECT_EQ(finished.value().format_version, 3u);
    EXPECT_EQ(finished.value().fields.size(), 2u);
    EXPECT_EQ(finished.value().raw_bytes, temp.size_bytes() + press.size_bytes());
  };

  Buffer bytes_1, bytes_4;
  build(1, bytes_1);
  build(4, bytes_4);
  ASSERT_EQ(bytes_1.size(), bytes_4.size());
  EXPECT_EQ(std::memcmp(bytes_1.data(), bytes_4.data(), bytes_1.size()), 0)
      << "worker count changed the v3 archive bytes";

  // Path builds: same fields pushed through path-build sessions.
  const std::string path = tmp.make("mixed");
  {
    ArchiveWriter writer(writer_config("sz", 6.0, 0.2, 0, 4));
    ASSERT_TRUE(writer.begin(path).ok());
    auto t = writer.open_field("temp", desc_of(temp, 2));
    ASSERT_TRUE(t.ok());
    push_all(t.value(), temp, 24);
    ASSERT_TRUE(t.value().close().ok());
    auto p = writer.open_field("press", desc_of(press, 3));
    ASSERT_TRUE(p.ok());
    push_all(p.value(), press, 1);
    ASSERT_TRUE(p.value().close().ok());
    ASSERT_TRUE(writer.finish().ok());
  }
  const auto file_bytes = slurp(path);
  ASSERT_EQ(file_bytes.size(), bytes_1.size());
  EXPECT_EQ(std::memcmp(file_bytes.data(), bytes_1.data(), file_bytes.size()), 0)
      << "file-backed v3 pack differs from the in-memory pack";

  // Per-field reads through both readers.
  auto memory_reader = ArchiveReader::open(bytes_1.data(), bytes_1.size());
  ASSERT_TRUE(memory_reader.ok()) << memory_reader.status().to_string();
  auto file_reader = ArchiveReader::open(path);
  ASSERT_TRUE(file_reader.ok()) << file_reader.status().to_string();

  ASSERT_EQ(memory_reader.value().fields().size(), 2u);
  EXPECT_EQ(memory_reader.value().fields()[0].name, "temp");
  EXPECT_EQ(memory_reader.value().fields()[1].name, "press");
  EXPECT_EQ(memory_reader.value().fields()[1].dtype, DType::kFloat64);
  EXPECT_GT(memory_reader.value().fields()[1].payload_ratio, 0.0);

  const NdArray temp_mem = memory_reader.value().read_all("temp", 2).value();
  const NdArray press_mem = memory_reader.value().read_all("press").value();
  EXPECT_EQ(temp_mem.shape(), temp.shape());
  EXPECT_EQ(press_mem.shape(), press.shape());
  const NdArray temp_file = file_reader.value().read_all("temp").value();
  const NdArray press_file = file_reader.value().read_all("press", 3).value();
  ASSERT_EQ(temp_file.size_bytes(), temp_mem.size_bytes());
  EXPECT_EQ(std::memcmp(temp_file.data(), temp_mem.data(), temp_mem.size_bytes()), 0);
  ASSERT_EQ(press_file.size_bytes(), press_mem.size_bytes());
  EXPECT_EQ(std::memcmp(press_file.data(), press_mem.data(), press_mem.size_bytes()), 0);

  // Per-field read_range: planes 5..12 of 'press' must equal that slice of
  // its full reconstruction, through both transports and thread counts.
  const std::size_t press_plane = press.size_bytes() / press.shape()[0];
  for (const unsigned threads : {1u, 3u}) {
    auto range = memory_reader.value().read_range("press", 5, 7, threads);
    ASSERT_TRUE(range.ok()) << range.status().to_string();
    EXPECT_EQ(std::memcmp(range.value().data(),
                          static_cast<const std::uint8_t*>(press_mem.data()) +
                              5 * press_plane,
                          range.value().size_bytes()),
              0);
    auto file_range = file_reader.value().read_range("press", 5, 7, threads);
    ASSERT_TRUE(file_range.ok());
    EXPECT_EQ(std::memcmp(file_range.value().data(), range.value().data(),
                          range.value().size_bytes()),
              0);
  }

  // Unknown fields are invalid-argument, not corruption.
  auto missing = memory_reader.value().read_all("vorticity");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);
}

TEST(ArchiveFields, MultiFieldTruncationAtEveryBoundaryFailsOpen) {
  // The v1/v2 truncation sweep, extended to the v3 layout: cutting inside
  // any chunk of any field, at the field-table boundaries, or inside the
  // footer must fail open() with CorruptStream — never crash, never
  // half-open.
  TempFiles tmp;
  const NdArray temp = make_field(DType::kFloat32, {8, 12, 10});
  const NdArray press = make_field(DType::kFloat64, {6, 10, 8}, 20.0);
  const std::string path = tmp.make("truncate");
  ArchiveWriteResult result;
  {
    ArchiveWriter writer(writer_config("sz", 6.0, 0.2, 2, 2));
    ASSERT_TRUE(writer.begin(path).ok());
    for (const NdArray* field : {&temp, &press}) {
      auto session = writer.open_field(field == &temp ? "temp" : "press",
                                       desc_of(*field, 2));
      ASSERT_TRUE(session.ok());
      push_all(session.value(), *field, 2);
      ASSERT_TRUE(session.value().close().ok());
    }
    auto finished = writer.finish();
    ASSERT_TRUE(finished.ok());
    result = std::move(finished).value();
  }
  const auto bytes = slurp(path);
  ASSERT_EQ(bytes.size(), result.archive_bytes);

  std::vector<std::size_t> boundaries{0, 5};
  // After every chunk of every field (entry offsets are absolute).
  for (const auto& chunk : result.chunks)
    boundaries.push_back(chunk.entry.offset + chunk.entry.size);
  const std::size_t manifest_end = bytes.size() - archive::kFooterBytes;
  boundaries.push_back(manifest_end);      // field table complete, footer missing
  boundaries.push_back(manifest_end - 1);  // inside the field table
  boundaries.push_back(bytes.size() - 1);  // mid-footer
  boundaries.push_back(bytes.size() / 2);

  const std::string cut = tmp.make("truncate_cut");
  for (const std::size_t keep : boundaries) {
    ASSERT_LT(keep, bytes.size());
    dump(cut, bytes.data(), keep);
    auto reader = ArchiveReader::open(cut);
    ASSERT_FALSE(reader.ok()) << "opened a " << keep << "-byte truncation";
    EXPECT_EQ(reader.status().code(), StatusCode::kCorruptStream) << keep;
  }
}

TEST(ArchiveFields, CorruptChunkFailsOnlyItsOwnField) {
  // Chunk CRC isolation across fields: flipping a bit in one field's chunk
  // fails exactly the reads that touch it; the sibling field stays readable.
  const NdArray temp = make_field(DType::kFloat32, {8, 12, 10});
  const NdArray press = make_field(DType::kFloat64, {6, 10, 8}, 20.0);
  Buffer bytes;
  ArchiveWriteResult result;
  {
    ArchiveWriter writer(writer_config("sz", 6.0, 0.2, 2, 1));
    ASSERT_TRUE(writer.begin(bytes).ok());
    auto t = writer.open_field("temp", desc_of(temp, 2));
    ASSERT_TRUE(t.ok());
    push_all(t.value(), temp, 8);
    ASSERT_TRUE(t.value().close().ok());
    auto p = writer.open_field("press", desc_of(press, 2));
    ASSERT_TRUE(p.ok());
    push_all(p.value(), press, 6);
    ASSERT_TRUE(p.value().close().ok());
    result = writer.finish().value();
  }
  // Victim: the second field's second chunk (absolute offset in the region).
  const auto& victim = result.fields[1].chunks[1].entry;
  bytes.data()[victim.offset + victim.size / 2] ^= 0x40;

  auto reader = ArchiveReader::open(bytes.data(), bytes.size());
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader.value().read_all("temp", 2).ok());
  EXPECT_TRUE(reader.value().read_chunk("press", 0).ok());
  auto corrupted = reader.value().read_chunk("press", 1);
  ASSERT_FALSE(corrupted.ok());
  EXPECT_EQ(corrupted.status().code(), StatusCode::kCorruptStream);
  EXPECT_FALSE(reader.value().read_all("press").ok());
  EXPECT_TRUE(reader.value().read_range("press", 4, 2, 2).ok());  // chunk 2 only
}

TEST(ArchiveFields, FieldsWarmStartIndependentlyAcrossBuilds) {
  // Per-field warm keys: a second build of the same two fields through the
  // same writer reuses each field's own carried bounds — no retraining.
  const NdArray temp0 = make_field(DType::kFloat32, {8, 16, 12}, 50.0);
  const NdArray temp1 = make_field(DType::kFloat32, {8, 16, 12}, 51.0);
  const NdArray press0 = make_field(DType::kFloat64, {6, 10, 8}, 20.0);
  const NdArray press1 = make_field(DType::kFloat64, {6, 10, 8}, 20.2);

  ArchiveWriter writer(writer_config("sz", 6.0, 0.2, 2, 2));
  auto build = [&](const NdArray& temp, const NdArray& press, Buffer& out,
                   ArchiveWriteResult& result) {
    ASSERT_TRUE(writer.begin(out).ok());
    auto t = writer.open_field("temp", desc_of(temp, 2));
    ASSERT_TRUE(t.ok());
    push_all(t.value(), temp, 3);
    ASSERT_TRUE(t.value().close().ok());
    auto p = writer.open_field("press", desc_of(press, 2));
    ASSERT_TRUE(p.ok());
    push_all(p.value(), press, 2);
    ASSERT_TRUE(p.value().close().ok());
    auto finished = writer.finish();
    ASSERT_TRUE(finished.ok()) << finished.status().to_string();
    result = std::move(finished).value();
  };

  Buffer step0, step1;
  ArchiveWriteResult r0, r1;
  build(temp0, press0, step0, r0);
  build(temp1, press1, step1, r1);
  EXPECT_EQ(r1.retrained_chunks, 0u)
      << "mildly drifting fields should reuse their carried per-field bounds";
  const std::size_t total_chunks =
      r1.fields[0].chunk_count + r1.fields[1].chunk_count;
  EXPECT_EQ(r1.warm_chunks, total_chunks);
}

TEST(ArchiveFields, SessionMisuseSurfacesAsStatuses) {
  const NdArray field = make_field(DType::kFloat32, {8, 12, 10});
  ArchiveWriter writer(writer_config("sz", 6.0, 0.2, 2, 1));
  Buffer out;

  // open_field before begin.
  auto no_build = writer.open_field("x", desc_of(field));
  ASSERT_FALSE(no_build.ok());
  EXPECT_EQ(no_build.status().code(), StatusCode::kInvalidArgument);

  ASSERT_TRUE(writer.begin(out).ok());
  // Double begin.
  Buffer other;
  EXPECT_FALSE(writer.begin(other).ok());
  // write() while a build is active.
  EXPECT_FALSE(writer.write(field.view(), other).ok());

  auto session = writer.open_field("x", desc_of(field, 2));
  ASSERT_TRUE(session.ok());
  // Second open while one is active.
  auto second = writer.open_field("y", desc_of(field, 2));
  ASSERT_FALSE(second.ok());
  // finish() with an open field fails but keeps the build alive.
  EXPECT_FALSE(writer.finish().ok());

  // Wrong dtype, wrong plane shape, oversized slab.
  const NdArray wrong_dtype = make_field(DType::kFloat64, {2, 12, 10});
  EXPECT_EQ(session.value().push(wrong_dtype.view()).code(),
            StatusCode::kInvalidArgument);
  const NdArray wrong_plane = make_field(DType::kFloat32, {2, 11, 10});
  EXPECT_EQ(session.value().push(wrong_plane.view()).code(),
            StatusCode::kInvalidArgument);
  const NdArray too_many = make_field(DType::kFloat32, {9, 12, 10});
  EXPECT_EQ(session.value().push(too_many.view()).code(),
            StatusCode::kInvalidArgument);

  // Premature close reports the missing planes and stays open.
  ASSERT_TRUE(session.value().push(planes_of(field, 0, 3)).ok());
  auto early = session.value().close();
  ASSERT_FALSE(early.ok());
  EXPECT_NE(early.status().message().find("3 of 8"), std::string::npos)
      << early.status().message();
  ASSERT_TRUE(session.value().push(planes_of(field, 3, 5)).ok());
  ASSERT_TRUE(session.value().close().ok());

  // Duplicate field name within one build.
  auto duplicate = writer.open_field("x", desc_of(field, 2));
  ASSERT_FALSE(duplicate.ok());
  EXPECT_NE(duplicate.status().message().find("duplicate"), std::string::npos);

  ASSERT_TRUE(writer.finish().ok());
  // The archive opens and holds exactly field "x".
  auto reader = ArchiveReader::open(out.data(), out.size());
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  ASSERT_EQ(reader.value().fields().size(), 1u);
  EXPECT_EQ(reader.value().fields()[0].name, "x");

  // A session outliving its build degrades to "closed" errors, not UB.
  Buffer abandoned;
  ASSERT_TRUE(writer.begin(abandoned).ok());
  auto stale = writer.open_field("stale", desc_of(field, 2));
  ASSERT_TRUE(stale.ok());
  writer.cancel();
  EXPECT_FALSE(stale.value().open());
  EXPECT_EQ(stale.value().push(planes_of(field, 0, 1)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(stale.value().close().ok());
}

/// One build of a multi-field campaign step: its bytes, every chunk's report
/// in write order, the per-field reports, how many chunks paid full
/// training, how many probes the build's tuning executed and how many chunks
/// it held at once.
struct CampaignBuild {
  Buffer bytes;
  std::vector<archive::ChunkReport> chunks;
  std::vector<FieldWriteReport> fields;
  std::vector<double> tuned_bounds;
  std::size_t retrained_chunks = 0;
  std::size_t tuner_probe_calls = 0;
  std::size_t peak_buffered_chunks = 0;
};

/// Pack \p steps (each a list of named fields) through one writer of
/// \p workers workers, one FieldSession per field, step s with chunk extent
/// \p extents[s] (0 or absent: the writer's auto policy).
void pack_campaign(const std::vector<std::vector<std::pair<std::string, NdArray>>>& steps,
                   unsigned workers, std::vector<CampaignBuild>& builds,
                   const std::vector<std::size_t>& extents = {}) {
  ArchiveWriter writer(writer_config("sz", 10.0, 0.1, 0, workers));
  builds.clear();
  builds.resize(steps.size());
  for (std::size_t step = 0; step < steps.size(); ++step) {
    CampaignBuild& build = builds[step];
    ASSERT_TRUE(writer.begin(build.bytes).ok());
    for (const auto& [name, field] : steps[step]) {
      auto session =
          writer.open_field(name, desc_of(field, step < extents.size() ? extents[step] : 0));
      ASSERT_TRUE(session.ok()) << session.status().to_string();
      push_all(session.value(), field, 3);
      auto report = session.value().close();
      ASSERT_TRUE(report.ok()) << report.status().to_string();
      build.retrained_chunks += report.value().retrained_chunks;
    }
    auto finished = writer.finish();
    ASSERT_TRUE(finished.ok()) << finished.status().to_string();
    build.chunks = finished.value().chunks;
    build.fields = finished.value().fields;
    for (const archive::ChunkReport& chunk : build.chunks)
      build.tuned_bounds.push_back(chunk.tuned_bound);
    build.tuner_probe_calls = finished.value().tuner_probe_calls;
    build.peak_buffered_chunks = finished.value().peak_buffered_chunks;
  }
}

/// Field reports must match in everything but their chunks' timings.
void expect_same_field_reports(const std::vector<FieldWriteReport>& got,
                               const std::vector<FieldWriteReport>& want,
                               const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t f = 0; f < want.size(); ++f) {
    const FieldWriteReport& a = got[f];
    const FieldWriteReport& b = want[f];
    const std::string at = where + ", field " + b.name;
    EXPECT_EQ(a.name, b.name) << at;
    EXPECT_EQ(a.payload_bytes, b.payload_bytes) << at;
    EXPECT_EQ(a.payload_ratio, b.payload_ratio) << at;
    EXPECT_EQ(a.in_band, b.in_band) << at;
    EXPECT_EQ(a.warm_chunks, b.warm_chunks) << at;
    EXPECT_EQ(a.retrained_chunks, b.retrained_chunks) << at;
    EXPECT_EQ(a.rate_fallback_chunks, b.rate_fallback_chunks) << at;
    EXPECT_EQ(a.tuner_probe_calls, b.tuner_probe_calls) << at;
    EXPECT_EQ(a.probe_cache_hits, b.probe_cache_hits) << at;
    ASSERT_EQ(a.chunks.size(), b.chunks.size()) << at;
    for (std::size_t i = 0; i < b.chunks.size(); ++i) {
      const archive::ChunkReport& x = a.chunks[i];
      const archive::ChunkReport& y = b.chunks[i];
      EXPECT_EQ(x.entry.offset, y.entry.offset) << at << ", chunk " << i;
      EXPECT_EQ(x.entry.size, y.entry.size) << at << ", chunk " << i;
      EXPECT_EQ(x.entry.crc, y.entry.crc) << at << ", chunk " << i;
      EXPECT_EQ(x.entry.error_bound, y.entry.error_bound) << at << ", chunk " << i;
      EXPECT_EQ(x.tuned_bound, y.tuned_bound) << at << ", chunk " << i;
      EXPECT_EQ(x.warm, y.warm) << at << ", chunk " << i;
      EXPECT_EQ(x.retrained, y.retrained) << at << ", chunk " << i;
      EXPECT_EQ(x.tuner_probe_calls, y.tuner_probe_calls) << at << ", chunk " << i;
      EXPECT_EQ(x.probe_cache_hits, y.probe_cache_hits) << at << ", chunk " << i;
    }
  }
}

bool above_band(const archive::ChunkReport& chunk) {
  return chunk.ratio > 10.0 * (1 + 0.1);
}

TEST(ArchiveFields, WorkerCountDoesNotChangeRetrainingFieldBytesOrBounds) {
  // TCf's and Uf's chunks warm-start from chunk 0's bound; CLOUDf's sparse
  // chunks miss it and retrain, so their retrain rounds (and chunk-0
  // training) fan out over whichever of the build's workers are idle.  Over
  // a cold and two warm steps of three fields, the bytes, every chunk's
  // tuned bound and every field's report must not depend on the worker
  // count, and the build's one window holds at most workers + 1 chunks.
  // Chunks whose search ends above the band carry their bound: on the warm
  // steps they stay above it without a search.
  const auto hurricane = data::dataset_by_name("hurricane", data::SuiteScale::kSmall);
  std::vector<std::vector<std::pair<std::string, NdArray>>> steps(3);
  for (std::size_t step = 0; step < steps.size(); ++step)
    for (const char* name : {"TCf", "CLOUDf", "Uf"})
      steps[step].emplace_back(
          name, data::generate_field(data::field_by_name(hurricane, name), step));

  std::vector<CampaignBuild> serial;
  ASSERT_NO_FATAL_FAILURE(pack_campaign(steps, 1, serial));
  std::size_t retrained = 0;
  for (const CampaignBuild& build : serial) retrained += build.retrained_chunks;
  EXPECT_GT(retrained, 0u) << "the campaign must exercise retraining chunks";
  std::size_t kept = 0;
  for (std::size_t step = 1; step < steps.size(); ++step) {
    const CampaignBuild& build = serial[step];
    for (std::size_t i = 0; i < build.chunks.size(); ++i) {
      if (!above_band(serial[step - 1].chunks[i]) || !above_band(build.chunks[i])) continue;
      EXPECT_FALSE(build.chunks[i].retrained) << "step " << step << ", chunk " << i;
      EXPECT_TRUE(build.chunks[i].warm) << "step " << step << ", chunk " << i;
      ++kept;
    }
    EXPECT_LT(build.retrained_chunks, serial[0].retrained_chunks) << "step " << step;
  }
  EXPECT_GT(kept, 0u) << "the campaign must carry above-band chunks";
  for (const CampaignBuild& build : serial) EXPECT_LE(build.peak_buffered_chunks, 2u);
  for (const unsigned workers : {2u, 4u}) {
    std::vector<CampaignBuild> parallel;
    ASSERT_NO_FATAL_FAILURE(pack_campaign(steps, workers, parallel));
    for (std::size_t step = 0; step < steps.size(); ++step) {
      const std::string where =
          std::to_string(workers) + " workers, step " + std::to_string(step);
      expect_same_field_reports(parallel[step].fields, serial[step].fields, where);
      EXPECT_LE(parallel[step].peak_buffered_chunks, workers + 1u) << where;
      const Buffer& want = serial[step].bytes;
      const Buffer& got = parallel[step].bytes;
      ASSERT_EQ(got.size(), want.size()) << workers << " workers, step " << step;
      EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size()), 0)
          << workers << " workers, step " << step;
      EXPECT_EQ(parallel[step].tuned_bounds, serial[step].tuned_bounds)
          << workers << " workers, step " << step;
      EXPECT_EQ(parallel[step].retrained_chunks, serial[step].retrained_chunks);
    }
  }
}

TEST(ArchiveFields, GeometryChangeDropsAboveBandBoundsWithTheirKeys) {
  // A new field shape re-maps chunk indices onto other planes, so the writer
  // forgets every per-chunk bound of the old geometry, above-band ones
  // included.  CLOUDf's first plane compresses above the band at any bound:
  // the same geometry keeps its bound without a search, while the field cut
  // to its first half (same planes in chunk 0, new shape) searches again.
  const auto hurricane = data::dataset_by_name("hurricane", data::SuiteScale::kSmall);
  const NdArray cloud = data::generate_field(data::field_by_name(hurricane, "CLOUDf"), 0);
  Shape half_shape = cloud.shape();
  half_shape[0] /= 2;
  NdArray half(cloud.dtype(), half_shape);
  std::memcpy(half.data(), cloud.data(), half.size_bytes());
  std::vector<CampaignBuild> builds;
  ASSERT_NO_FATAL_FAILURE(pack_campaign(
      {{{"CLOUDf", cloud}}, {{"CLOUDf", cloud}}, {{"CLOUDf", half}}}, 2, builds, {1, 1, 1}));

  ASSERT_TRUE(above_band(builds[0].chunks[0]));
  EXPECT_TRUE(builds[0].chunks[0].retrained);
  ASSERT_TRUE(above_band(builds[1].chunks[0]));
  EXPECT_TRUE(builds[1].chunks[0].warm);
  EXPECT_FALSE(builds[1].chunks[0].retrained);
  ASSERT_TRUE(above_band(builds[2].chunks[0]));
  EXPECT_TRUE(builds[2].chunks[0].retrained);
  EXPECT_FALSE(builds[2].chunks[0].warm);
}

TEST(ArchiveFields, CancelWithRowsOnRunnersReturnsAndReleasesThem) {
  // Abandon a field while runners hold chunk rows and one more row waits in
  // the queue: cancel() must drop the backlog, wait out the running chunks
  // and return, leaving the staged-bytes gauge where it started and the
  // writer ready for its next build.
  const NdArray field = make_field(DType::kFloat32, {32, 24, 20});
  const telemetry::Gauge& staged = telemetry::global().gauge("pack.staged_bytes");
  const std::int64_t staged_before = staged.value();
  ArchiveWriter writer(writer_config("sz", 8.0, 0.2, 2, 2));
  Buffer abandoned;
  ASSERT_TRUE(writer.begin(abandoned).ok());
  auto session = writer.open_field("x", desc_of(field, 2));
  ASSERT_TRUE(session.ok());
  // workers + 1 = 3 chunk rows fill the window without blocking push.
  ASSERT_TRUE(session.value().push(planes_of(field, 0, 6)).ok());
  writer.cancel();
  EXPECT_FALSE(session.value().open());
  EXPECT_EQ(staged.value(), staged_before);

  Buffer again, fresh;
  ASSERT_TRUE(writer.write(field.view(), again).ok());
  ArchiveWriter fresh_writer(writer_config("sz", 8.0, 0.2, 2, 2));
  ASSERT_TRUE(fresh_writer.write(field.view(), fresh).ok());
  ASSERT_EQ(again.size(), fresh.size());
  EXPECT_EQ(std::memcmp(again.data(), fresh.data(), fresh.size()), 0);
}

/// Compressions every "sz-fail-after" instance (and clone) has run, and how
/// many may succeed before compress_into fails with kUnsupported.
std::atomic<std::size_t> g_fail_after_calls{0};
std::atomic<std::size_t> g_fail_after_limit{std::numeric_limits<std::size_t>::max()};

/// sz with an injected compress failure once the shared call counter passes
/// the limit: a backend that breaks mid-build, on whichever thread runs it.
class SzFailAfterPlugin final : public pressio::Compressor {
public:
  SzFailAfterPlugin() : inner_(pressio::registry().create("sz")) {}
  SzFailAfterPlugin(const SzFailAfterPlugin& other) : inner_(other.inner_->clone()) {}

  std::string name() const override { return "sz-fail-after"; }
  pressio::Capabilities capabilities() const override {
    pressio::Capabilities c = inner_->capabilities();
    c.name = "sz-fail-after";
    return c;
  }
  pressio::Options get_options() const override { return inner_->get_options(); }
  void set_options(const pressio::Options& options) override { inner_->set_options(options); }
  void set_error_bound(double bound) override { inner_->set_error_bound(bound); }
  double error_bound() const override { return inner_->error_bound(); }
  Status compress_into(const ArrayView& input, Buffer& out) const noexcept override {
    if (++g_fail_after_calls > g_fail_after_limit)
      return Status::unsupported("sz-fail-after: injected compress failure");
    return inner_->compress_into(input, out);
  }
  Status decompress_into(const std::uint8_t* data, std::size_t size,
                         NdArray& out) const noexcept override {
    return inner_->decompress_into(data, size, out);
  }
  pressio::CompressorPtr clone() const override {
    return std::make_unique<SzFailAfterPlugin>(*this);
  }

private:
  pressio::CompressorPtr inner_;
};

TEST(ArchiveFields, RunnerFailureIsStickyUntilCancel) {
  // A chunk runner's compress failure poisons the build: the call that
  // surfaces it and every later push/close/finish report the same code and
  // message, until cancel() drops the build and the writer starts clean.
  if (!pressio::registry().contains("sz-fail-after"))
    pressio::registry().register_factory(
        "sz-fail-after", [] { return std::make_unique<SzFailAfterPlugin>(); });
  const NdArray field = make_field(DType::kFloat32, {16, 12, 10});
  for (const unsigned workers : {1u, 4u}) {
    // A clean build counts the compressions; the failing build lets all but
    // the last two succeed, so chunk 0's search passes and a later runner
    // fails.
    g_fail_after_limit = std::numeric_limits<std::size_t>::max();
    g_fail_after_calls = 0;
    {
      Buffer clean;
      ArchiveWriter counting(writer_config("sz-fail-after", 6.0, 0.2, 2, workers));
      ASSERT_TRUE(counting.write(field.view(), clean).ok());
    }
    const std::size_t total = g_fail_after_calls;
    ASSERT_GT(total, 2u);
    g_fail_after_calls = 0;
    g_fail_after_limit = total - 2;

    ArchiveWriter writer(writer_config("sz-fail-after", 6.0, 0.2, 2, workers));
    Buffer out;
    ASSERT_TRUE(writer.begin(out).ok());
    auto session = writer.open_field("x", desc_of(field, 2));
    ASSERT_TRUE(session.ok()) << session.status().to_string();
    Status failure;
    for (std::size_t first = 0; first < field.shape()[0] && failure.ok(); first += 2)
      failure = session.value().push(planes_of(field, first, 2));
    if (failure.ok()) {
      auto closed = session.value().close();
      ASSERT_FALSE(closed.ok()) << workers << " workers: the injected failure vanished";
      failure = closed.status();
    }
    EXPECT_EQ(failure.code(), StatusCode::kUnsupported) << failure.to_string();
    EXPECT_NE(failure.message().find("injected"), std::string::npos) << failure.message();

    const auto expect_same = [&](const Status& later, const char* call) {
      EXPECT_EQ(later.code(), failure.code()) << workers << " workers, " << call;
      EXPECT_EQ(later.message(), failure.message()) << workers << " workers, " << call;
    };
    expect_same(session.value().push(planes_of(field, 0, 1)), "push");
    expect_same(session.value().close().status(), "close");
    expect_same(writer.finish().status(), "finish");
    expect_same(session.value().close().status(), "second close");

    writer.cancel();
    g_fail_after_limit = std::numeric_limits<std::size_t>::max();
    Buffer again;
    ASSERT_TRUE(writer.begin(again).ok());
    auto fresh = writer.open_field("x", desc_of(field, 2));
    ASSERT_TRUE(fresh.ok()) << fresh.status().to_string();
    push_all(fresh.value(), field, 4);
    ASSERT_TRUE(fresh.value().close().ok());
    auto finished = writer.finish();
    ASSERT_TRUE(finished.ok()) << finished.status().to_string();
    auto reader = ArchiveReader::open(again.data(), again.size());
    ASSERT_TRUE(reader.ok()) << reader.status().to_string();
    auto decoded = reader.value().read_all("x", workers);
    ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
    EXPECT_EQ(decoded.value().shape(), field.shape());
  }
}

TEST(ArchiveFields, RunnerFailureInTheSecondFieldIsStickyUntilCancel) {
  // The build's one pipeline keeps one failure: a runner that fails inside
  // the second field poisons the whole build after the first field closed
  // cleanly, and every later call reports it until cancel().
  if (!pressio::registry().contains("sz-fail-after"))
    pressio::registry().register_factory(
        "sz-fail-after", [] { return std::make_unique<SzFailAfterPlugin>(); });
  const NdArray first = make_field(DType::kFloat32, {16, 12, 10});
  const NdArray second = make_field(DType::kFloat32, {14, 12, 10}, 20.0);
  const auto pack_both = [&](ArchiveWriter& writer, Buffer& out, Status& failure,
                             bool& first_closed) {
    first_closed = false;
    ASSERT_TRUE(writer.begin(out).ok());
    auto x = writer.open_field("x", desc_of(first, 2));
    ASSERT_TRUE(x.ok()) << x.status().to_string();
    push_all(x.value(), first, 4);
    const auto closed = x.value().close();
    ASSERT_TRUE(closed.ok()) << closed.status().to_string();
    first_closed = true;
    auto y = writer.open_field("y", desc_of(second, 2));
    failure = y.status();
    if (!failure.ok()) return;
    for (std::size_t plane = 0; plane < second.shape()[0] && failure.ok(); plane += 2)
      failure = y.value().push(planes_of(second, plane, 2));
    if (failure.ok()) failure = y.value().close().status();
    if (failure.ok()) failure = writer.finish().status();
  };
  for (const unsigned workers : {1u, 4u}) {
    // Every compression of a clean build, then a build whose last two fail:
    // those are the second field's, which starts only once the first closed.
    g_fail_after_limit = std::numeric_limits<std::size_t>::max();
    g_fail_after_calls = 0;
    {
      ArchiveWriter counting(writer_config("sz-fail-after", 6.0, 0.2, 2, workers));
      Buffer clean;
      Status status;
      bool first_closed = false;
      ASSERT_NO_FATAL_FAILURE(pack_both(counting, clean, status, first_closed));
      ASSERT_TRUE(status.ok()) << status.to_string();
    }
    const std::size_t total = g_fail_after_calls;
    ASSERT_GT(total, 2u);
    g_fail_after_calls = 0;
    g_fail_after_limit = total - 2;

    ArchiveWriter writer(writer_config("sz-fail-after", 6.0, 0.2, 2, workers));
    Buffer out;
    Status failure;
    bool first_closed = false;
    ASSERT_NO_FATAL_FAILURE(pack_both(writer, out, failure, first_closed));
    ASSERT_TRUE(first_closed) << workers << " workers";
    ASSERT_FALSE(failure.ok()) << workers << " workers: the injected failure vanished";
    EXPECT_EQ(failure.code(), StatusCode::kUnsupported) << failure.to_string();
    EXPECT_NE(failure.message().find("injected"), std::string::npos) << failure.message();
    const auto expect_same = [&](const Status& later, const char* call) {
      EXPECT_EQ(later.code(), failure.code()) << workers << " workers, " << call;
      EXPECT_EQ(later.message(), failure.message()) << workers << " workers, " << call;
    };
    expect_same(writer.open_field("z", desc_of(first, 2)).status(), "open_field");
    expect_same(writer.finish().status(), "finish");

    writer.cancel();
    g_fail_after_limit = std::numeric_limits<std::size_t>::max();
    Buffer again;
    ASSERT_NO_FATAL_FAILURE(pack_both(writer, again, failure, first_closed));
    ASSERT_TRUE(failure.ok()) << failure.to_string();
    auto reader = ArchiveReader::open(again.data(), again.size());
    ASSERT_TRUE(reader.ok()) << reader.status().to_string();
    auto decoded = reader.value().read_all("y", workers);
    ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
    EXPECT_EQ(decoded.value().shape(), second.shape());
  }
}

TEST(ArchiveFields, OneBuildMakesAtMostOneLanePerWorker) {
  // A build's chunk runners share one set of lane engines: five fields at
  // four workers create at most four backends from the registry, not a set
  // per field.  The count is taken in the factory itself.
  static std::atomic<int> factory_calls{0};
  if (!pressio::registry().contains("sz-counted"))
    pressio::registry().register_factory("sz-counted", [] {
      ++factory_calls;
      return pressio::registry().create("sz");
    });
  ArchiveWriter writer(writer_config("sz-counted", 6.0, 0.2, 2, 4));
  factory_calls = 0;  // the construction check's engine is not a lane
  Buffer out;
  ASSERT_TRUE(writer.begin(out).ok());
  for (int f = 0; f < 5; ++f) {
    const NdArray field = make_field(DType::kFloat32, {16, 12, 10}, 10.0 + 10.0 * f);
    auto session = writer.open_field("f" + std::to_string(f), desc_of(field, 2));
    ASSERT_TRUE(session.ok()) << session.status().to_string();
    push_all(session.value(), field, 16);
    ASSERT_TRUE(session.value().close().ok());
  }
  auto finished = writer.finish();
  ASSERT_TRUE(finished.ok()) << finished.status().to_string();
  EXPECT_EQ(finished.value().fields.size(), 5u);
  EXPECT_GE(factory_calls.load(), 1);
  EXPECT_LE(factory_calls.load(), 4);
}

/// Planes of a 64×48×48 test field: a smooth wave, except that planes in
/// [first_copy, end_copy) repeat planes 0..3 of \p copied every four planes,
/// so at a chunk extent of 4 the chunks in that range hold identical bytes.
NdArray wave_with_repeated_chunks(std::size_t first_copy, std::size_t end_copy,
                                  const std::function<float(std::size_t, std::size_t,
                                                            std::size_t)>& copied) {
  const std::size_t n0 = 64, n1 = 48, n2 = 48;
  NdArray field(DType::kFloat32, {n0, n1, n2});
  auto* values = static_cast<float*>(field.data());
  for (std::size_t i = 0; i < n0; ++i)
    for (std::size_t j = 0; j < n1; ++j)
      for (std::size_t k = 0; k < n2; ++k)
        values[(i * n1 + j) * n2 + k] =
            i >= first_copy && i < end_copy
                ? copied(i % 4, j, k)
                : static_cast<float>(std::sin(0.1 * i + 0.05 * j) * std::cos(0.07 * k) * 40);
  return field;
}

TEST(ArchiveFields, ChunksIdenticalToAnAboveBandChunkZeroKeepItsSeed) {
  // Planes below 39 are zero, so chunks 0..8 hold identical bytes.  Chunk
  // 0's search ends above the band (zeros compress past any bound), and its
  // outcome seeds the other chunks flagged above-band.  Chunks 1..8 land
  // above the band at that seed again, so they keep it without a search.
  const NdArray field = wave_with_repeated_chunks(0, 39, [](auto, auto, auto) { return 0.0f; });
  for (const unsigned workers : {1u, 4u}) {
    ArchiveWriter writer(writer_config("sz", 10.0, 0.1, 4, workers));
    Buffer bytes;
    auto result = writer.write(field.view(), bytes);
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    const std::vector<archive::ChunkReport>& chunks = result.value().chunks;
    ASSERT_EQ(chunks.size(), 16u);
    ASSERT_TRUE(above_band(chunks[0])) << workers << " workers";
    EXPECT_TRUE(chunks[0].retrained) << workers << " workers";
    for (std::size_t i = 1; i <= 8; ++i) {
      EXPECT_TRUE(chunks[i].warm) << workers << " workers, chunk " << i;
      EXPECT_FALSE(chunks[i].retrained) << workers << " workers, chunk " << i;
      EXPECT_EQ(chunks[i].tuned_bound, chunks[0].tuned_bound) << workers << ", chunk " << i;
    }
  }
}

TEST(ArchiveFields, IdenticalRetrainingChunksSpendTheSameProbesAtAnyWorkerCount) {
  // Chunks 1..8 repeat one noisy row, so they hold identical bytes and land
  // below the band at the bound chunk 0's smooth planes seed: all eight
  // retrain, at four workers concurrently.  Each search keeps its own probe
  // memo, so the build executes exactly the probes a serial build does,
  // whichever worker runs which chunk, and writes the same bytes.
  const NdArray field = wave_with_repeated_chunks(4, 36, [](std::size_t i, std::size_t j,
                                                            std::size_t k) {
    std::uint32_t h = static_cast<std::uint32_t>((i * 48 + j) * 48 + k) * 2654435761u;
    h ^= h >> 15;
    h *= 2246822519u;
    h ^= h >> 13;
    const double noise = 4.0 * (static_cast<double>(h & 0xffff) / 65536.0 - 0.5);
    return static_cast<float>(std::sin(0.1 * i + 0.05 * j) * std::cos(0.07 * k) * 40 + noise);
  });
  const auto pack_at = [&](unsigned workers, Buffer& out) {
    ArchiveWriter writer(writer_config("sz", 10.0, 0.1, 4, workers));
    auto result = writer.write(field.view(), out);
    EXPECT_TRUE(result.ok()) << result.status().to_string();
    return result.ok() ? result.value() : ArchiveWriteResult{};
  };
  Buffer serial_bytes;
  const ArchiveWriteResult serial = pack_at(1, serial_bytes);
  ASSERT_EQ(serial.chunks.size(), 16u);
  for (std::size_t i = 1; i <= 8; ++i)
    EXPECT_TRUE(serial.chunks[i].retrained) << "chunk " << i << " must retrain";
  // Each chunk reports its own search's probes: the eight identical
  // searches spend alike, a warm chunk spends none, and the chunks' counts
  // sum to the build's (which ArchiveWriteResult takes from the Engines).
  std::size_t executed = 0, hits = 0;
  for (const archive::ChunkReport& chunk : serial.chunks) {
    executed += chunk.tuner_probe_calls;
    hits += chunk.probe_cache_hits;
    if (chunk.warm) {
      EXPECT_EQ(chunk.tuner_probe_calls + chunk.probe_cache_hits, 0u);
    }
  }
  EXPECT_EQ(executed, serial.tuner_probe_calls);
  EXPECT_EQ(hits, serial.probe_cache_hits);
  ASSERT_EQ(serial.fields.size(), 1u);
  EXPECT_EQ(serial.fields[0].tuner_probe_calls, serial.tuner_probe_calls);
  EXPECT_EQ(serial.fields[0].probe_cache_hits, serial.probe_cache_hits);
  EXPECT_GT(serial.chunks[1].tuner_probe_calls, 0u);
  for (std::size_t i = 2; i <= 8; ++i) {
    EXPECT_EQ(serial.chunks[i].tuner_probe_calls, serial.chunks[1].tuner_probe_calls) << i;
    EXPECT_EQ(serial.chunks[i].probe_cache_hits, serial.chunks[1].probe_cache_hits) << i;
  }
  for (int run = 0; run < 3; ++run) {
    Buffer bytes;
    const ArchiveWriteResult parallel = pack_at(4, bytes);
    ASSERT_EQ(parallel.chunks.size(), 16u) << "run " << run;
    for (std::size_t i = 1; i <= 8; ++i)
      EXPECT_TRUE(parallel.chunks[i].retrained) << "run " << run << ", chunk " << i;
    EXPECT_EQ(parallel.tuner_probe_calls, serial.tuner_probe_calls) << "run " << run;
    EXPECT_EQ(parallel.tuner_probe_calls + parallel.probe_cache_hits,
              serial.tuner_probe_calls + serial.probe_cache_hits)
        << "run " << run;
    ASSERT_EQ(bytes.size(), serial_bytes.size()) << "run " << run;
    EXPECT_EQ(std::memcmp(bytes.data(), serial_bytes.data(), bytes.size()), 0) << "run " << run;
  }
}

TEST(ArchiveFields, ParallelReadReportsTheLowestCorruptChunk) {
  // Two corrupt chunks in one field: the serial read stops at the first,
  // and the parallel read, whose workers may meet them in either order,
  // must report that same lowest chunk.
  const NdArray field = make_field(DType::kFloat32, {12, 12, 10});
  Buffer bytes;
  ArchiveWriteResult result =
      ArchiveWriter(writer_config("sz", 6.0, 0.2, 2)).write(field.view(), bytes).value();
  ASSERT_GE(result.chunks.size(), 4u);
  for (const std::size_t victim : {1u, 3u}) {
    const archive::ChunkEntry& entry = result.chunks[victim].entry;
    bytes.data()[entry.offset + entry.size / 2] ^= 0x40;
  }
  auto reader = ArchiveReader::open(bytes.data(), bytes.size());
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  for (const unsigned threads : {1u, 4u}) {
    auto decoded = reader.value().read_all(archive::kDefaultFieldName, threads);
    ASSERT_FALSE(decoded.ok()) << threads << " threads";
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruptStream) << threads;
    const std::string& message = decoded.status().message();
    EXPECT_NE(message.find("chunk 1 "), std::string::npos) << threads << ": " << message;
    EXPECT_EQ(message.find("chunk 3"), std::string::npos) << threads << ": " << message;
  }
}

TEST(ArchiveFields, V2ArchivesPresentOneSynthesizedField) {
  // Old single-field archives surface through the field API under the
  // default name, so multi-field consumers need no version branches.  The
  // frozen v2 golden decodes by that name to what a fresh v3 write of the
  // same input, at the bounds the golden records, decodes to.
  const std::vector<std::uint8_t> bytes =
      testhelpers::load_frozen(testhelpers::kGoldenV2SzStep0);
  auto reader = ArchiveReader::open(bytes.data(), bytes.size());
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  EXPECT_EQ(reader.value().info().version, 2);
  ASSERT_EQ(reader.value().fields().size(), 1u);
  const archive::FieldInfo& info = reader.value().fields()[0];
  const NdArray field = make_field(DType::kFloat32, {24, 16, 12});
  EXPECT_EQ(info.name, archive::kDefaultFieldName);
  EXPECT_EQ(info.shape, field.shape());
  EXPECT_GT(info.payload_ratio, 0.0);
  const NdArray by_name = reader.value().read_all(archive::kDefaultFieldName).value();

  Buffer v3_bytes;
  testhelpers::writer_at_bounds(writer_config("sz", 6.0, 0.2, 2), reader.value().info())
      .write(field.view(), v3_bytes)
      .value();
  auto v3_reader = ArchiveReader::open(v3_bytes.data(), v3_bytes.size());
  ASSERT_TRUE(v3_reader.ok());
  const NdArray fresh = v3_reader.value().read_all(archive::kDefaultFieldName).value();
  ASSERT_EQ(by_name.size_bytes(), fresh.size_bytes());
  EXPECT_EQ(std::memcmp(by_name.data(), fresh.data(), fresh.size_bytes()), 0);
}

}  // namespace
}  // namespace fraz
