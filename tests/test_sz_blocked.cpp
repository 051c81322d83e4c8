/// The blocked sz pipeline (payload format v2): error-bound compliance
/// across ranks/dtypes/bounds, byte-identity of compress AND decompress at
/// every thread count (the determinism contract intra-chunk parallelism
/// rides on), v1 backward-decode goldens (old archives stay readable
/// forever), frame-version decode routing through the plugin, and archive
/// byte-identity for sz:mode=blocked through both transports.

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <vector>

#include "archive/archive.hpp"
#include "codec/checksum.hpp"
#include "compressors/sz/sz.hpp"
#include "pressio/registry.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace fraz {
namespace {

using testhelpers::make_field;
using testhelpers::max_error;

SzOptions blocked_options(double bound, bool regression = true, unsigned threads = 0) {
  SzOptions opt;
  opt.error_bound = bound;
  opt.regression = regression;
  opt.mode = SzMode::kBlocked;
  opt.threads = threads;
  return opt;
}

/// Container frame: 4 magic bytes, then the version byte.
std::uint8_t frame_version(const Buffer& frame) {
  return frame.size() > 4 ? frame.data()[4] : 0;
}

/// Shapes big enough to span several prediction blocks and several block
/// groups (group target = 32768 elements).
Shape sweep_shape(int dims) {
  return dims == 1 ? Shape{70000} : dims == 2 ? Shape{150, 300} : Shape{40, 36, 34};
}

class SzBlockedBoundSweep
    : public testing::TestWithParam<std::tuple<int, DType, double, bool>> {};

TEST_P(SzBlockedBoundSweep, ErrorBoundRespected) {
  const auto [dims, dtype, bound, regression] = GetParam();
  const Shape shape = sweep_shape(dims);
  const NdArray field = make_field(dtype, shape);
  Buffer compressed;
  sz_compress_into(field.view(), blocked_options(bound, regression), compressed);
  EXPECT_EQ(frame_version(compressed), 2u);
  const NdArray decoded = sz_decompress(compressed.data(), compressed.size());
  ASSERT_EQ(decoded.shape(), shape);
  ASSERT_EQ(decoded.dtype(), dtype);
  EXPECT_LE(max_error(field, decoded), bound)
      << "dims=" << dims << " bound=" << bound << " regression=" << regression;
}

INSTANTIATE_TEST_SUITE_P(
    DimsTypesBounds, SzBlockedBoundSweep,
    testing::Combine(testing::Values(1, 2, 3),
                     testing::Values(DType::kFloat32, DType::kFloat64),
                     testing::Values(1e-5, 1e-3, 0.1, 5.0),
                     testing::Values(false, true)));

TEST(SzBlocked, SmallAndRaggedShapesRoundTrip) {
  // Shapes below one block, below one group, and not multiples of the block
  // edge — the boundary arithmetic the greedy grouping must get right.
  const std::vector<Shape> shapes = {{1},        {5},         {1023},     {1025},
                                     {3, 3},     {33, 31},    {32, 32},   {1, 100},
                                     {2, 2, 2},  {17, 16, 15}, {16, 16, 16}, {1, 1, 50}};
  for (const Shape& shape : shapes) {
    const NdArray field = make_field(DType::kFloat32, shape);
    Buffer frame;
    sz_compress_into(field.view(), blocked_options(1e-3), frame);
    const NdArray decoded = sz_decompress(frame.data(), frame.size());
    ASSERT_EQ(decoded.shape(), shape);
    EXPECT_LE(max_error(field, decoded), 1e-3) << "rank " << shape.size();
  }
}

TEST(SzBlocked, RoughDataExercisesEscapes) {
  // White noise at a tight bound defeats prediction, so most elements take
  // the unpredictable escape into the raw section — bound must still hold.
  NdArray field(DType::kFloat32, {60, 70});
  Rng rng(42);
  for (std::size_t i = 0; i < field.elements(); ++i)
    rng.next();  // decorrelate from index
  Rng gen(7);
  for (std::size_t i = 0; i < field.elements(); ++i)
    field.set_flat(i, static_cast<double>(gen.next() % 100000) - 50000.0);
  const double bound = 1e-4;
  Buffer frame;
  sz_compress_into(field.view(), blocked_options(bound), frame);
  const NdArray decoded = sz_decompress(frame.data(), frame.size());
  EXPECT_LE(max_error(field, decoded), bound);
}

TEST(SzBlocked, ConstantFieldCompressesExtremely) {
  NdArray field(DType::kFloat64, {48, 48});
  for (std::size_t i = 0; i < field.elements(); ++i) field.set_flat(i, 3.25);
  Buffer compressed;
  sz_compress_into(field.view(), blocked_options(1e-6), compressed);
  EXPECT_LT(compressed.size(), field.size_bytes() / 20);
  EXPECT_LE(max_error(field, sz_decompress(compressed.data(), compressed.size())), 1e-6);
}

TEST(SzBlocked, CompressedBytesIdenticalAtEveryThreadCount) {
  // The tentpole determinism contract: grouping is a pure function of the
  // shape, so the payload never depends on how many workers encoded it.
  const NdArray field = make_field(DType::kFloat32, {40, 36, 34});
  Buffer reference;
  sz_compress_into(field.view(), blocked_options(1e-3, true, 1), reference);
  for (const unsigned threads : {0u, 2u, 4u, 8u}) {
    Buffer other;
    sz_compress_into(field.view(), blocked_options(1e-3, true, threads), other);
    ASSERT_EQ(other.size(), reference.size()) << threads << " threads";
    EXPECT_EQ(std::memcmp(other.data(), reference.data(), reference.size()), 0)
        << threads << " threads";
  }
}

TEST(SzBlocked, DecodeBytesIdenticalAtEveryThreadCount) {
  const NdArray field = make_field(DType::kFloat64, {150, 300});
  Buffer compressed;
  sz_compress_into(field.view(), blocked_options(1e-4), compressed);
  const NdArray reference = sz_decompress(compressed.data(), compressed.size(), 1);
  for (const unsigned threads : {2u, 4u, 8u}) {
    const NdArray decoded = sz_decompress(compressed.data(), compressed.size(), threads);
    ASSERT_EQ(decoded.shape(), reference.shape());
    EXPECT_EQ(std::memcmp(decoded.data(), reference.data(), reference.size_bytes()), 0)
        << threads << " threads";
  }
}

TEST(SzBlocked, DeterministicAcrossInstancesAndRuns) {
  const NdArray field = make_field(DType::kFloat32, {70000});
  Buffer a, b;
  sz_compress_into(field.view(), blocked_options(1e-2), a);
  sz_compress_into(field.view(), blocked_options(1e-2), b);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
}

TEST(SzBlocked, RatioStaysCloseToSerial) {
  // Dropping the LZ stage trades a small dictionary gain for the fused
  // speedup; the interleaved coder must keep the loss modest.
  const NdArray field = make_field(DType::kFloat32, {40, 36, 34});
  SzOptions serial;
  serial.error_bound = 1e-3;
  Buffer frame;
  sz_compress_into(field.view(), serial, frame);
  const double serial_size = static_cast<double>(frame.size());
  sz_compress_into(field.view(), blocked_options(1e-3), frame);
  const double blocked_size = static_cast<double>(frame.size());
  EXPECT_LT(blocked_size, field.size_bytes());      // still compresses
  EXPECT_LT(blocked_size, 1.6 * serial_size);       // and not by a token margin
}

TEST(SzBlocked, V1GoldenFramesStillDecode) {
  // Backward-compat gate: the serial (v1) format is frozen.  The CRCs below
  // were captured from the current build on these deterministic inputs; a
  // change to either the v1 writer or these bytes' decodability is a format
  // break, not a refactor.
  struct Golden {
    Shape shape;
    DType dtype;
    double bound;
    std::size_t size;
    std::uint32_t crc;  // over the frame minus its self-checksum trailer
  };
  const std::vector<Golden> goldens = {
      {{24, 16, 12}, DType::kFloat32, 1e-3, 2285, 0xbb3f1396u},
      {{37, 41}, DType::kFloat64, 1e-2, 1843, 0xd01f0c95u},
      {{2000}, DType::kFloat32, 1e-4, 6565, 0x440c9b5fu},
  };
  for (const Golden& g : goldens) {
    const NdArray field = make_field(g.dtype, g.shape);
    SzOptions opt;
    opt.error_bound = g.bound;
    Buffer frame;
    sz_compress_into(field.view(), opt, frame);
    EXPECT_EQ(frame_version(frame), 1u);
    ASSERT_EQ(frame.size(), g.size) << "v1 bytes moved";
    // The frame ends with its own crc32, so a whole-frame CRC would collapse
    // to the constant residue — pin the bytes under the trailer instead.
    EXPECT_EQ(crc32(frame.data(), frame.size() - 4), g.crc) << "v1 bytes moved";
    // And the current decoder (which also speaks v2) still reads them.
    const NdArray decoded = sz_decompress(frame.data(), frame.size());
    ASSERT_EQ(decoded.shape(), g.shape);
    EXPECT_LE(max_error(field, decoded), g.bound);
  }
}

TEST(SzBlocked, PluginRoutesDecodeOnFrameVersion) {
  // A default (serial-mode) plugin instance must decode v2 frames, and a
  // blocked-mode instance must decode v1 frames: decode routes on the frame
  // version byte, never on the instance's encode mode.
  const NdArray field = make_field(DType::kFloat32, {33, 40});
  pressio::Options blocked_opts;
  blocked_opts.set("sz:error_bound", 1e-3);
  blocked_opts.set("sz:mode", std::string("blocked"));
  const auto blocked_plugin = pressio::registry().create("sz", blocked_opts);
  const auto serial_plugin = pressio::registry().create("sz");

  Buffer v2, v1;
  ASSERT_TRUE(blocked_plugin->compress_into(field.view(), v2).ok());
  ASSERT_TRUE(serial_plugin->compress_into(field.view(), v1).ok());
  EXPECT_EQ(frame_version(v2), 2u);
  EXPECT_EQ(frame_version(v1), 1u);
  NdArray decoded;
  ASSERT_TRUE(serial_plugin->decompress_into(v2.data(), v2.size(), decoded).ok());
  EXPECT_LE(max_error(field, decoded), 1e-3);
  ASSERT_TRUE(blocked_plugin->decompress_into(v1.data(), v1.size(), decoded).ok());
  EXPECT_LE(max_error(field, decoded), serial_plugin->error_bound());
}

TEST(SzBlocked, PluginAdvertisesBlockedMode) {
  const auto sz = pressio::registry().create("sz");
  EXPECT_TRUE(sz->capabilities().blocked_mode);
  const auto opts = sz->get_options();
  EXPECT_EQ(opts.get<std::string>("sz:mode"), "serial");
  EXPECT_FALSE(pressio::registry().create("zfp")->capabilities().blocked_mode);
}

TEST(SzBlocked, PluginRejectsBadModeAndThreads) {
  const auto sz = pressio::registry().create("sz");
  pressio::Options bad_mode;
  bad_mode.set("sz:mode", std::string("turbo"));
  EXPECT_THROW(sz->set_options(bad_mode), InvalidArgument);
  pressio::Options bad_threads;
  bad_threads.set("sz:threads", std::int64_t{-1});
  EXPECT_THROW(sz->set_options(bad_threads), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Archive transport: sz:mode=blocked end to end.

archive::ArchiveWriteConfig blocked_writer_config(double target, std::size_t chunk_extent,
                                                  unsigned threads) {
  archive::ArchiveWriteConfig config;
  config.engine.compressor = "sz";
  config.engine.compressor_options.set("sz:mode", std::string("blocked"));
  config.engine.tuner.target_ratio = target;
  config.engine.tuner.epsilon = 0.2;
  config.chunk_extent = chunk_extent;
  config.threads = threads;
  return config;
}

TEST(SzBlocked, ArchiveBytesIdenticalAtEveryWorkerCount) {
  const NdArray field = make_field(DType::kFloat32, {24, 16, 12});
  Buffer reference;
  ASSERT_TRUE(
      archive::ArchiveWriter(blocked_writer_config(6.0, 2, 1)).write(field.view(), reference).ok());
  for (const unsigned threads : {2u, 4u, 8u}) {
    archive::ArchiveWriter writer(blocked_writer_config(6.0, 2, threads));
    Buffer out;
    ASSERT_TRUE(writer.write(field.view(), out).ok());
    ASSERT_EQ(out.size(), reference.size()) << threads << " workers";
    EXPECT_EQ(std::memcmp(out.data(), reference.data(), reference.size()), 0)
        << threads << " workers";
  }
  // Every chunk inside carries a v2 frame, and the archive reads back.
  auto reader = archive::ArchiveReader::open(reference.data(), reference.size());
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  for (const unsigned threads : {1u, 4u}) {
    auto decoded = reader.value().read_all(archive::kDefaultFieldName, threads);
    ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
    EXPECT_EQ(decoded.value().shape(), field.shape());
  }
}

TEST(SzBlocked, FileTransportMatchesBufferTransport) {
  const NdArray field = make_field(DType::kFloat64, {20, 18, 14});
  Buffer via_buffer;
  ASSERT_TRUE(
      archive::ArchiveWriter(blocked_writer_config(8.0, 3, 1)).write(field.view(), via_buffer).ok());

  const std::string path = "fraz_test_sz_blocked_transport.tmp";
  for (const unsigned threads : {1u, 4u}) {
    archive::ArchiveWriter writer(blocked_writer_config(8.0, 3, threads));
    ASSERT_TRUE(writer.write(path, field.view()).ok());
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    ASSERT_TRUE(is.good());
    std::vector<std::uint8_t> via_file(static_cast<std::size_t>(is.tellg()));
    is.seekg(0);
    is.read(reinterpret_cast<char*>(via_file.data()),
            static_cast<std::streamsize>(via_file.size()));
    is.close();
    ASSERT_EQ(via_file.size(), via_buffer.size()) << threads << " workers";
    EXPECT_EQ(std::memcmp(via_file.data(), via_buffer.data(), via_buffer.size()), 0)
        << threads << " workers";
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fraz
