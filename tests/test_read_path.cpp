/// The read path writes each output byte once and sizes nothing from a
/// chunk's frame: a frame whose header disagrees with the manifest fails
/// with kCorruptStream before any decoder allocates from it, plane ranges
/// inside one chunk read back that chunk's values, and a cache-hit serve
/// read allocates only its output.
///
/// This binary replaces the global operator new to count allocations and to
/// record the largest request; requests over kRefuseAbove are refused with
/// std::bad_alloc, so a decoder that sized memory from a hostile frame fails
/// the test instead of exhausting the machine.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "archive/archive.hpp"
#include "compressors/container.hpp"
#include "serve/reader_pool.hpp"
#include "test_helpers.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_largest{0};
constexpr std::size_t kRefuseAbove = std::size_t{1} << 30;

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    std::size_t largest = g_largest.load(std::memory_order_relaxed);
    while (size > largest && !g_largest.compare_exchange_weak(largest, size)) {
    }
  }
  if (size > kRefuseAbove) throw std::bad_alloc();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// The array forms too: sanitizer runtimes replace them separately, so they
// would not reach the counter through their default definitions.
void* operator new[](std::size_t size) { return ::operator new(size); }

// Not inlined: GCC would otherwise see free() on the result of operator new
// at every inlined call site and warn (-Wmismatched-new-delete).
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace fraz {
namespace {

using archive::ArchiveReader;
using archive::ArchiveWriteConfig;
using archive::ArchiveWriter;
using archive::FieldInfo;
using serve::ReaderHandle;
using serve::ReaderPool;
using serve::ReaderPoolConfig;
using testhelpers::make_field;

constexpr const char* kData = archive::kDefaultFieldName;

/// Counts the allocations made between construction and stop().
class AllocationCount {
public:
  AllocationCount() {
    g_allocations = 0;
    g_largest = 0;
    g_counting = true;
  }
  ~AllocationCount() { g_counting = false; }
  AllocationCount(const AllocationCount&) = delete;
  AllocationCount& operator=(const AllocationCount&) = delete;

  void stop() { g_counting = false; }
  std::size_t allocations() const { return g_allocations.load(); }
  std::size_t largest() const { return g_largest.load(); }
};

/// A whole archive in memory: 32 planes of 16×16 f32 in chunks of 4.
Buffer pack(const NdArray& field, const std::string& backend) {
  ArchiveWriteConfig config;
  config.engine.compressor = backend;
  config.engine.tuner.target_ratio = 6.0;
  config.engine.tuner.epsilon = 0.2;
  config.chunk_extent = 4;
  config.threads = 1;
  ArchiveWriter writer(config);
  Buffer bytes;
  auto written = writer.write(field.view(), bytes);
  EXPECT_TRUE(written.ok()) << written.status().to_string();
  return bytes;
}

ArchiveReader open_ok(const Buffer& bytes) {
  auto reader = ArchiveReader::open(bytes.data(), bytes.size());
  EXPECT_TRUE(reader.ok()) << reader.status().to_string();
  return std::move(reader).value();
}

/// A serve pool over \p bytes, through a file named \p name that is
/// removed again once the pool has opened it (the pool keeps its own
/// descriptor or mapping).
std::shared_ptr<ReaderPool> open_pool(const Buffer& bytes, const std::string& name) {
  const std::string path = "fraz_test_read_path_" + name + ".tmp";
  std::FILE* file = std::fopen(path.c_str(), "wb");
  EXPECT_NE(file, nullptr);
  if (!file) return nullptr;
  const bool written = std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  const bool closed = std::fclose(file) == 0;
  EXPECT_TRUE(written && closed) << path;
  auto pool = ReaderPool::open(path, ReaderPoolConfig{});
  std::remove(path.c_str());
  EXPECT_TRUE(pool.ok()) << pool.status().to_string();
  return pool.ok() ? pool.value() : nullptr;
}

/// A frame with a valid CRC, exactly \p size bytes long, declaring
/// \p dtype and \p shape over a zero payload.  Every valid frame ends in its
/// own CRC, so it also passes the manifest's per-chunk CRC in place of any
/// chunk of the same size.
std::vector<std::uint8_t> forged_frame(CompressorId id, DType dtype, const Shape& shape,
                                       std::size_t size) {
  Buffer frame;
  for (std::size_t payload = size; payload-- > 0;) {
    seal_container_into(id, dtype, shape, std::vector<std::uint8_t>(payload, 0), frame);
    if (frame.size() == size) return {frame.begin(), frame.end()};
  }
  ADD_FAILURE() << "no frame of " << size << " bytes";
  return {};
}

/// \p bytes with chunk \p i of the only field replaced by \p frame.
Buffer splice_chunk(const Buffer& bytes, std::size_t i, const std::vector<std::uint8_t>& frame) {
  const ArchiveReader reader = open_ok(bytes);
  const archive::ChunkEntry& entry = reader.fields().at(0).chunks.at(i);
  EXPECT_EQ(frame.size(), entry.size);
  Buffer out;
  out.append(bytes.data(), bytes.size());
  std::memcpy(out.data() + reader.info().chunk_region + entry.offset, frame.data(),
              frame.size());
  return out;
}

/// Planes [first, first + count) of \p a, as their own array.
NdArray planes_of(const NdArray& a, std::size_t first, std::size_t count) {
  Shape shape = a.shape();
  const std::size_t plane_bytes = a.size_bytes() / shape[0];
  shape[0] = count;
  NdArray out(a.dtype(), shape);
  std::memcpy(out.data(), static_cast<const std::uint8_t*>(a.data()) + first * plane_bytes,
              count * plane_bytes);
  return out;
}

bool same_bytes(const NdArray& a, const NdArray& b) {
  return a.dtype() == b.dtype() && a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

// ------------------------------------------- frames checked against the manifest

TEST(ReadPath, FrameDeclaringAnotherShapeFailsBeforeAnyDecoderSizesIt) {
  // szx sizes its output from the frame right after the container opens,
  // so without the manifest check this frame asks for 2^33 × 4 bytes.
  const NdArray field = make_field(DType::kFloat32, {32, 16, 16});
  const Buffer bytes = pack(field, "szx");
  const std::size_t chunk_size = open_ok(bytes).fields().at(0).chunks.at(1).size;
  const Shape declared{2048, 2048, 2048};
  const Buffer forged = splice_chunk(
      bytes, 1, forged_frame(CompressorId::kSzx, DType::kFloat32, declared, chunk_size));

  ArchiveReader reader = open_ok(forged);
  {
    AllocationCount count;
    const Result<NdArray> chunk = reader.read_chunk(kData, 1);
    count.stop();
    ASSERT_FALSE(chunk.ok());
    EXPECT_EQ(chunk.status().code(), StatusCode::kCorruptStream) << chunk.status().to_string();
    EXPECT_LT(count.largest(), std::size_t{1} << 20)
        << "a read allocated from the shape the frame declares";
  }
  const Result<NdArray> range = reader.read_range(kData, 3, 3, 2);
  ASSERT_FALSE(range.ok());
  EXPECT_EQ(range.status().code(), StatusCode::kCorruptStream);
  // Only reads touching the forged chunk fail.
  EXPECT_TRUE(reader.read_chunk(kData, 0).ok());
  EXPECT_TRUE(reader.read_range(kData, 8, 24).ok());
}

TEST(ReadPath, FrameDeclaringAnotherDtypeFailsAsCorrupt) {
  const NdArray field = make_field(DType::kFloat32, {32, 16, 16});
  const Buffer bytes = pack(field, "szx");
  const std::size_t chunk_size = open_ok(bytes).fields().at(0).chunks.at(2).size;
  const Buffer forged = splice_chunk(
      bytes, 2, forged_frame(CompressorId::kSzx, DType::kFloat64, {4, 16, 16}, chunk_size));
  ArchiveReader reader = open_ok(forged);
  const Result<NdArray> chunk = reader.read_chunk(kData, 2);
  ASSERT_FALSE(chunk.ok());
  EXPECT_EQ(chunk.status().code(), StatusCode::kCorruptStream) << chunk.status().to_string();
}

TEST(ReadPath, ServeMissOnAForgedFrameFailsBeforeAnyDecoderSizesIt) {
  const NdArray field = make_field(DType::kFloat32, {32, 16, 16});
  const Buffer bytes = pack(field, "szx");
  const std::size_t chunk_size = open_ok(bytes).fields().at(0).chunks.at(1).size;
  const Buffer forged =
      splice_chunk(bytes, 1,
                   forged_frame(CompressorId::kSzx, DType::kFloat32, {2048, 2048, 2048},
                                chunk_size));
  const std::shared_ptr<ReaderPool> pool = open_pool(forged, "forged");
  ASSERT_NE(pool, nullptr);
  ReaderHandle handle = pool->handle();
  AllocationCount count;
  const Result<NdArray> range = handle.read_range(0, 5, 2);
  count.stop();
  ASSERT_FALSE(range.ok());
  EXPECT_EQ(range.status().code(), StatusCode::kCorruptStream) << range.status().to_string();
  EXPECT_LT(count.largest(), std::size_t{1} << 20);
}

// ------------------------------------------------- ranges that start and end in a chunk

TEST(ReadPath, RangesInsideChunksMatchTheChunksAndTheOriginal) {
  const NdArray field = make_field(DType::kFloat32, {32, 16, 16});
  const Buffer bytes = pack(field, "sz");
  ArchiveReader reader = open_ok(bytes);
  const FieldInfo& info = reader.fields().at(0);
  ASSERT_EQ(info.chunk_extent, 4u);

  const std::shared_ptr<ReaderPool> pool = open_pool(bytes, "ranges");
  ASSERT_NE(pool, nullptr);
  ReaderHandle handle = pool->handle();

  // (first, count): inside chunk 1; one plane inside chunk 7; from inside
  // chunk 1 to inside chunk 2; from inside chunk 0 to inside chunk 7.
  const std::pair<std::size_t, std::size_t> ranges[] = {{5, 2}, {30, 1}, {6, 5}, {1, 30}};
  for (const auto& [first, count] : ranges) {
    SCOPED_TRACE("planes " + std::to_string(first) + " + " + std::to_string(count));
    // The decoded planes, assembled from whole chunks.
    NdArray expected(info.dtype, [&] {
      Shape s = info.shape;
      s[0] = count;
      return s;
    }());
    const std::size_t plane_bytes = expected.size_bytes() / count;
    for (std::size_t p = first; p < first + count; ++p) {
      const Result<NdArray> chunk = reader.read_chunk(kData, p / info.chunk_extent);
      ASSERT_TRUE(chunk.ok()) << chunk.status().to_string();
      std::memcpy(static_cast<std::uint8_t*>(expected.data()) + (p - first) * plane_bytes,
                  static_cast<const std::uint8_t*>(chunk.value().data()) +
                      (p % info.chunk_extent) * plane_bytes,
                  plane_bytes);
    }
    double bound = 0;
    for (std::size_t c = first / info.chunk_extent; c <= (first + count - 1) / info.chunk_extent;
         ++c)
      bound = std::max(bound, info.chunks[c].error_bound);
    ASSERT_GT(bound, 0.0);

    for (const unsigned threads : {1u, 4u}) {
      const Result<NdArray> direct = reader.read_range(kData, first, count, threads);
      ASSERT_TRUE(direct.ok()) << direct.status().to_string();
      EXPECT_TRUE(same_bytes(direct.value(), expected)) << threads << " threads";
      EXPECT_LE(testhelpers::max_error(direct.value(), planes_of(field, first, count)), bound);
    }
    // Twice: a miss, then the cached chunks.
    for (int pass = 0; pass < 2; ++pass) {
      const Result<NdArray> served = handle.read_range(0, first, count);
      ASSERT_TRUE(served.ok()) << served.status().to_string();
      EXPECT_TRUE(same_bytes(served.value(), expected)) << "pass " << pass;
    }
  }
}

// ------------------------------------------------------------ allocation budget

TEST(ReadPath, CacheHitReadRangeAllocatesOnlyItsOutput) {
  const NdArray field = make_field(DType::kFloat32, {32, 16, 16});
  const Buffer bytes = pack(field, "sz");
  const std::shared_ptr<ReaderPool> pool = open_pool(bytes, "allocs");
  ASSERT_NE(pool, nullptr);
  ReaderHandle handle = pool->handle();
  // Warm the cache with chunks 1 and 2; the counted read touches both.
  ASSERT_TRUE(handle.read_range(0, 4, 8).ok());

  AllocationCount count;
  const Result<NdArray> hit = handle.read_range(0, 6, 5);
  count.stop();
  ASSERT_TRUE(hit.ok()) << hit.status().to_string();
  EXPECT_EQ(pool->stats().decoded_chunks, 2u);
  // The output's shape vector and its buffer; nothing per chunk.
  EXPECT_LE(count.allocations(), 2u);
  EXPECT_EQ(count.largest(), hit.value().size_bytes());
}

}  // namespace
}  // namespace fraz
