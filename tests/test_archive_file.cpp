#include "archive/archive_file.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "archive/archive.hpp"
#include "archive_fixtures.hpp"
#include "test_helpers.hpp"

namespace fraz {
namespace {

using archive::ArchiveReader;
using archive::ArchiveWriteConfig;
using archive::ArchiveWriteResult;
using archive::ArchiveWriter;
using archive::FileReadMode;
using testhelpers::make_field;

constexpr const char* kData = archive::kDefaultFieldName;

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

/// Files created by one test, removed on scope exit.
class TempFiles {
public:
  ~TempFiles() {
    for (const std::string& path : paths_) std::remove(path.c_str());
  }
  std::string make(const std::string& name) {
    paths_.push_back("fraz_test_" + name + ".tmp");
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

ArchiveWriteResult pack_file(const ArrayView& data, ArchiveWriteConfig config,
                             const std::string& path) {
  ArchiveWriter writer(std::move(config));
  auto written = writer.write(path, data);
  EXPECT_TRUE(written.ok()) << written.status().to_string();
  return std::move(written).value();
}

ArchiveReader open_file_ok(const std::string& path,
                           FileReadMode mode = FileReadMode::kAuto) {
  auto reader = ArchiveReader::open(path, mode);
  EXPECT_TRUE(reader.ok()) << reader.status().to_string();
  return std::move(reader).value();
}

TEST(ArchiveFile, FileAndMemoryPacksAreByteIdentical) {
  // The shared-pipeline contract: the streaming file transport and the
  // in-memory transport produce the same bytes, at any worker count.
  TempFiles tmp;
  const NdArray field = make_field(DType::kFloat32, {24, 16, 12});
  Buffer memory_1, memory_4;
  ArchiveWriter(writer_config("sz", 6.0, 0.2, 2, 1)).write(field.view(), memory_1).value();
  ArchiveWriter(writer_config("sz", 6.0, 0.2, 2, 4)).write(field.view(), memory_4).value();

  const std::string path_1 = tmp.make("identity_1");
  const std::string path_4 = tmp.make("identity_4");
  pack_file(field.view(), writer_config("sz", 6.0, 0.2, 2, 1), path_1);
  pack_file(field.view(), writer_config("sz", 6.0, 0.2, 2, 4), path_4);

  const auto file_1 = slurp(path_1);
  const auto file_4 = slurp(path_4);
  ASSERT_EQ(file_1.size(), memory_1.size());
  EXPECT_EQ(std::memcmp(file_1.data(), memory_1.data(), file_1.size()), 0)
      << "file-backed pack differs from the in-memory pack (1 worker)";
  ASSERT_EQ(file_4.size(), memory_4.size());
  EXPECT_EQ(std::memcmp(file_4.data(), memory_4.data(), file_4.size()), 0)
      << "file-backed pack differs from the in-memory pack (4 workers)";
  EXPECT_EQ(file_1, file_4) << "worker count changed the file bytes";
}

TEST(ArchiveFile, RoundTripThroughMmapAndBufferedReads) {
  TempFiles tmp;
  const NdArray field = make_field(DType::kFloat64, {12, 20, 14});
  const std::string path = tmp.make("roundtrip");
  pack_file(field.view(), writer_config("sz", 6.0, 0.2, 3, 2), path);

  Buffer memory_bytes;
  ArchiveWriter(writer_config("sz", 6.0, 0.2, 3, 2)).write(field.view(), memory_bytes).value();
  auto memory_reader = ArchiveReader::open(memory_bytes.data(), memory_bytes.size());
  ASSERT_TRUE(memory_reader.ok());
  const NdArray expected = memory_reader.value().read_all(kData).value();

  for (const FileReadMode mode : {FileReadMode::kAuto, FileReadMode::kBuffered}) {
    ArchiveReader reader = open_file_ok(path, mode);
    EXPECT_EQ(reader.info().compressor, "sz");
    EXPECT_EQ(reader.info().shape, field.shape());
#if defined(__unix__) || defined(__APPLE__)
    EXPECT_EQ(reader.mapped(), mode == FileReadMode::kAuto);
#endif
    // Whole archive, serial and parallel.
    for (const unsigned threads : {1u, 4u}) {
      auto all = reader.read_all(kData, threads);
      ASSERT_TRUE(all.ok()) << all.status().to_string();
      ASSERT_EQ(all.value().size_bytes(), expected.size_bytes());
      EXPECT_EQ(std::memcmp(all.value().data(), expected.data(), expected.size_bytes()), 0);
    }
    // Single chunks and plane ranges match the in-memory reconstruction.
    const std::size_t plane_bytes = expected.size_bytes() / 12;
    for (std::size_t i = 0; i < reader.info().chunk_count; ++i) {
      auto chunk = reader.read_chunk(kData, i);
      ASSERT_TRUE(chunk.ok()) << chunk.status().to_string();
      EXPECT_EQ(chunk.value().shape(), reader.chunk_shape(kData, i));
    }
    auto range = reader.read_range(kData, 2, 7, 2);
    ASSERT_TRUE(range.ok()) << range.status().to_string();
    EXPECT_EQ(std::memcmp(range.value().data(),
                          static_cast<const std::uint8_t*>(expected.data()) + 2 * plane_bytes,
                          range.value().size_bytes()),
              0);
  }
}

TEST(ArchiveFile, TruncationAtEverySectionBoundaryFailsOpen) {
  TempFiles tmp;
  const NdArray field = make_field(DType::kFloat32, {8, 12, 10});
  const std::string path = tmp.make("truncate");
  const ArchiveWriteResult result =
      pack_file(field.view(), writer_config("sz", 6.0, 0.2, 2), path);
  const auto bytes = slurp(path);
  ASSERT_EQ(bytes.size(), result.archive_bytes);

  // Boundaries of every section: after each chunk, the manifest start/end,
  // inside the footer, and degenerate prefixes.
  std::vector<std::size_t> boundaries{0, 5};
  for (const auto& chunk : result.chunks) boundaries.push_back(chunk.entry.offset + chunk.entry.size);
  const std::size_t manifest_end = bytes.size() - archive::kFooterBytes;
  boundaries.push_back(manifest_end);            // manifest complete, footer missing
  boundaries.push_back(manifest_end - 1);        // mid-manifest
  boundaries.push_back(bytes.size() - 1);        // mid-footer
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

TEST(ArchiveFile, WriterBuffersAtMostWorkersPlusOneChunkPayloads) {
  // The streaming memory model: raw size is 64 chunks' worth, but the writer
  // may only ever hold workers + 1 chunk payloads (the pipeline's bounded
  // reorder window) — peak memory is O(chunk x workers), not O(archive).
  TempFiles tmp;
  const NdArray field = make_field(DType::kFloat32, {64, 24, 16});
  for (const unsigned threads : {1u, 2u, 4u}) {
    const std::string path = tmp.make("window_" + std::to_string(threads));
    const ArchiveWriteResult result =
        pack_file(field.view(), writer_config("sz", 8.0, 0.2, 1, threads), path);
    ASSERT_EQ(result.chunk_count, 64u);
    EXPECT_LE(result.peak_buffered_chunks, static_cast<std::size_t>(threads) + 1)
        << "writer exceeded the bounded reorder window at " << threads << " workers";
    EXPECT_GT(result.peak_buffered_chunks, 0u);
    // Buffered payload bytes stay a small fraction of the raw input (the
    // window times one compressed chunk), even though raw >> peak.
    EXPECT_LT(result.peak_buffered_bytes, result.raw_bytes / 4) << threads;
    auto reader = ArchiveReader::open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().to_string();
    auto decoded = reader.value().read_all(kData, threads);
    ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
    EXPECT_EQ(decoded.value().shape(), field.shape());
  }
}

TEST(ArchiveFile, CorruptChunkFailsOnlyReadsTouchingIt) {
  TempFiles tmp;
  const NdArray field = make_field(DType::kFloat32, {8, 16, 12});
  const std::string path = tmp.make("corrupt");
  const ArchiveWriteResult result =
      pack_file(field.view(), writer_config("sz", 6.0, 0.2, 2), path);
  ASSERT_EQ(result.chunk_count, 4u);

  auto bytes = slurp(path);
  const auto& victim = result.chunks[1].entry;
  bytes[victim.offset + victim.size / 2] ^= 0x40;
  const std::string bad = tmp.make("corrupt_bad");
  dump(bad, bytes.data(), bytes.size());

  for (const FileReadMode mode : {FileReadMode::kAuto, FileReadMode::kBuffered}) {
    ArchiveReader reader = open_file_ok(bad, mode);
    EXPECT_TRUE(reader.read_chunk(kData, 0).ok());
    auto corrupted = reader.read_chunk(kData, 1);
    ASSERT_FALSE(corrupted.ok());
    EXPECT_EQ(corrupted.status().code(), StatusCode::kCorruptStream);
    EXPECT_TRUE(reader.read_chunk(kData, 2).ok());
    EXPECT_FALSE(reader.read_all(kData, 2).ok());
    EXPECT_TRUE(reader.read_range(kData, 4, 4, 2).ok());  // chunks 2..3 only
  }
}

TEST(ArchiveFile, V1ArchivesReadableThroughTheFileReader) {
  // The frozen v1 fixture opens straight from its file, through both the
  // mmap and the positioned-read paths, and decodes to the same values as a
  // fresh v3 file write of the same input at the bounds it records, whose
  // chunk region it shares.
  TempFiles tmp;
  const std::string fixture = testhelpers::corpus_path(testhelpers::kFrozenV1.rel);
  const std::vector<std::uint8_t> v1_bytes =
      testhelpers::load_frozen(testhelpers::kFrozenV1);
  const NdArray field = make_field(DType::kFloat32, {8, 14, 10});
  const std::string v3_path = tmp.make("v1_fresh_v3");
  const auto written = testhelpers::writer_at_bounds(writer_config("sz", 6.0, 0.2, 2),
                                                     open_file_ok(fixture).info())
                           .write(v3_path, field.view());
  ASSERT_TRUE(written.ok()) << written.status().to_string();
  EXPECT_EQ(written.value().warm_chunks, written.value().chunk_count);
  const std::vector<std::uint8_t> v3_bytes = slurp(v3_path);
  ArchiveReader v3_reader = open_file_ok(v3_path);
  EXPECT_EQ(v3_reader.info().version, 3);
  const NdArray expected = v3_reader.read_all(kData).value();

  for (const FileReadMode mode : {FileReadMode::kAuto, FileReadMode::kBuffered}) {
    ArchiveReader reader = open_file_ok(fixture, mode);
    EXPECT_EQ(reader.info().version, 1);
    EXPECT_EQ(testhelpers::chunk_region(v1_bytes.data(), reader.info()),
              testhelpers::chunk_region(v3_bytes.data(), v3_reader.info()));
    auto decoded = reader.read_all(kData, 2);
    ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
    ASSERT_EQ(decoded.value().size_bytes(), expected.size_bytes());
    EXPECT_EQ(std::memcmp(decoded.value().data(), expected.data(), expected.size_bytes()),
              0);
  }
}

TEST(ArchiveFile, SinkFailuresCarryTheOsErrorDetail) {
  // The fwrite path must put the errno of the failing call into the IoError
  // it throws, not whatever a later library call left behind; the public
  // Status a build reports is that error's.  A stream opened read-only makes
  // fwrite fail deterministically with EBADF.
  TempFiles tmp;
  const std::string path = tmp.make("sink_errno");
  dump(path, reinterpret_cast<const std::uint8_t*>("seed"), 4);
  std::FILE* readonly = std::fopen(path.c_str(), "rb");
  ASSERT_NE(readonly, nullptr);
  archive::detail::FileSink sink(readonly);
  const std::uint8_t byte = 0x42;
  EXPECT_THROW(sink.append(&byte, 1), IoError);
  const Status s = guarded([&] { sink.append(&byte, 1); });
  std::fclose(readonly);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_NE(s.message().find(std::strerror(EBADF)), std::string::npos)
      << "status lost the OS error detail: " << s.message();
  EXPECT_EQ(sink.bytes_written(), 0u);
}

TEST(ArchiveFile, WriteFailureLeavesNoPartialFile) {
  const NdArray field = make_field(DType::kFloat32, {6, 10, 8});
  ArchiveWriter writer(writer_config("sz", 6.0, 0.2, 2));
  // A directory is not a writable file target.
  auto written = writer.write(".", field.view());
  ASSERT_FALSE(written.ok());
  EXPECT_EQ(written.status().code(), StatusCode::kIoError);
  // Opening a missing path reports IoError, not a crash or CorruptStream.
  auto missing = ArchiveReader::open("fraz_test_definitely_missing.tmp");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
}

TEST(ArchiveFile, StreamedWriterWarmStartsAcrossWrites) {
  // The file writer carries the same Algorithm-3 state as the in-memory
  // writer: a second step of the same geometry stays warm.
  TempFiles tmp;
  const NdArray step0 = make_field(DType::kFloat32, {8, 16, 12}, 50.0);
  const NdArray step1 = make_field(DType::kFloat32, {8, 16, 12}, 51.0);
  ArchiveWriter writer(writer_config("sz", 6.0, 0.2, 2));
  const std::string path0 = tmp.make("series_0");
  const std::string path1 = tmp.make("series_1");
  const ArchiveWriteResult first = pack_file(step0.view(), writer.config(), path0);
  (void)first;
  ArchiveWriter series_writer(writer_config("sz", 6.0, 0.2, 2));
  auto r0 = series_writer.write(path0, step0.view());
  ASSERT_TRUE(r0.ok());
  auto r1 = series_writer.write(path1, step1.view());
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1.value().retrained_chunks, 0u)
      << "a mildly drifting step should reuse the carried bounds";
  EXPECT_EQ(r1.value().warm_chunks, r1.value().chunk_count);
}

}  // namespace
}  // namespace fraz
