/// Serve-subsystem tests: ChunkCache budget/eviction semantics, the
/// decode-once guarantee under concurrent misses, concurrent reader
/// correctness against serial golden reads, sequential readahead, the
/// line protocol, and the writer-side warm-bound save/load round trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "archive/archive.hpp"
#include "serve/chunk_cache.hpp"
#include "serve/reader_pool.hpp"
#include "serve/server.hpp"
#include "test_helpers.hpp"

namespace fraz {
namespace {

using archive::ArchiveReader;
using archive::ArchiveWriter;
using archive::ArchiveWriteConfig;
using archive::FieldDesc;
using serve::ChunkCache;
using serve::ChunkKey;
using serve::ReaderHandle;
using serve::ReaderPool;
using serve::ReaderPoolConfig;
using testhelpers::make_field;

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

ArchiveWriteConfig writer_config(const std::string& backend, double target,
                                 double epsilon, std::size_t chunk_extent = 0,
                                 unsigned threads = 1) {
  ArchiveWriteConfig config;
  config.engine.compressor = backend;
  config.engine.tuner.target_ratio = target;
  config.engine.tuner.epsilon = epsilon;
  config.chunk_extent = chunk_extent;
  config.threads = threads;
  return config;
}

/// A single-field archive file: 32 planes of 16x16 f32 in chunks of 4.
std::string pack_single(TempFiles& tmp, const std::string& name) {
  const NdArray field = make_field(DType::kFloat32, {32, 16, 16});
  ArchiveWriter writer(writer_config("sz", 6.0, 0.2, 4));
  const std::string path = tmp.make(name);
  auto written = writer.write(path, field.view());
  EXPECT_TRUE(written.ok()) << written.status().to_string();
  return path;
}

/// A two-field v3 archive file (different shapes and chunk grids).
std::string pack_multi(TempFiles& tmp, const std::string& name) {
  const NdArray temperature = make_field(DType::kFloat32, {24, 16, 16});
  const NdArray pressure = make_field(DType::kFloat64, {18, 12, 12}, 20.0);
  ArchiveWriter writer(writer_config("sz", 5.0, 0.25, 4));
  const std::string path = tmp.make(name);
  EXPECT_TRUE(writer.begin(path).ok());
  for (const auto& [field_name, field] :
       {std::pair<const char*, const NdArray*>{"temperature", &temperature},
        std::pair<const char*, const NdArray*>{"pressure", &pressure}}) {
    FieldDesc desc;
    desc.dtype = field->dtype();
    desc.shape = field->shape();
    auto session = writer.open_field(field_name, desc);
    EXPECT_TRUE(session.ok()) << session.status().to_string();
    EXPECT_TRUE(session.value().push(field->view()).ok());
    EXPECT_TRUE(session.value().close().ok());
  }
  auto written = writer.finish();
  EXPECT_TRUE(written.ok()) << written.status().to_string();
  return path;
}

std::shared_ptr<const NdArray> planes(std::size_t elements, double fill = 1.0) {
  auto array = std::make_shared<NdArray>(DType::kFloat32, Shape{elements});
  for (std::size_t i = 0; i < elements; ++i) array->set_flat(i, fill);
  return array;
}

// ----------------------------------------------------------------- ChunkCache

TEST(ChunkCache, ByteBudgetIsEnforced) {
  // 1 KiB budget; each entry is 256 B (64 f32).
  ChunkCache cache(1024);
  for (std::uint64_t i = 0; i < 64; ++i) {
    cache.insert(ChunkKey{1, 0, i}, planes(64));
    const ChunkCache::Stats stats = cache.stats();
    ASSERT_LE(stats.resident_bytes, 1024u) << "after insert " << i;
  }
  EXPECT_EQ(cache.stats().evictions, 60u);  // all but the last four
  EXPECT_EQ(cache.stats().entries, 4u);
}

TEST(ChunkCache, EvictionIsDeterministic) {
  // The same insert/lookup sequence must leave the same residents: replay
  // the sequence into two caches and compare entry by entry.
  auto replay = [](ChunkCache& cache) {
    for (std::uint64_t round = 0; round < 4; ++round)
      for (std::uint64_t i = 0; i < 8; ++i) {
        cache.insert(ChunkKey{1, 0, round * 8 + i}, planes(64));
        cache.lookup(ChunkKey{1, 0, i});  // keep the first eight hot
      }
  };
  ChunkCache a(1024), b(1024);
  replay(a);
  replay(b);
  const ChunkCache::Stats sa = a.stats(), sb = b.stats();
  EXPECT_EQ(sa.entries, sb.entries);
  EXPECT_EQ(sa.resident_bytes, sb.resident_bytes);
  EXPECT_EQ(sa.evictions, sb.evictions);
  for (std::uint64_t i = 0; i < 32; ++i)
    EXPECT_EQ(a.contains(ChunkKey{1, 0, i}), b.contains(ChunkKey{1, 0, i})) << i;
}

TEST(ChunkCache, LeastRecentlyUsedIsEvictedFirst) {
  // Equal ranks fall back to recency: four 256 B entries fill the 1 KiB
  // budget at the floor rank, and A's lookup lifts A above them, so E evicts
  // B (the least recently touched of the lowest rank), and then F evicts C.
  ChunkCache cache(1024);
  const ChunkKey a{1, 0, 0}, b{1, 0, 1}, c{1, 0, 2}, d{1, 0, 3}, e{1, 0, 4}, f{1, 0, 5};
  for (const ChunkKey& key : {a, b, c, d}) cache.insert(key, planes(64));
  ASSERT_NE(cache.lookup(a), nullptr);
  cache.insert(e, planes(64));
  EXPECT_FALSE(cache.contains(b));
  for (const ChunkKey& key : {a, c, d, e}) EXPECT_TRUE(cache.contains(key)) << key.chunk;
  EXPECT_EQ(cache.stats().evictions, 1u);

  cache.insert(f, planes(64));
  EXPECT_FALSE(cache.contains(c));
  for (const ChunkKey& key : {d, a, e, f}) EXPECT_TRUE(cache.contains(key)) << key.chunk;
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.stats().resident_bytes, 1024u);
}

TEST(ChunkCache, ChunkHitTwiceOutlivesOneHitInserts) {
  // H is read three times (a miss and two hits); then a stream of chunks
  // each read once.  Under LRU the fourth insert would evict H; here every
  // one-read chunk enters and leaves at the floor, below H's rank.
  ChunkCache cache(1024);
  const ChunkKey h{1, 0, 0};
  cache.insert(h, planes(64));
  ASSERT_NE(cache.lookup(h), nullptr);
  ASSERT_NE(cache.lookup(h), nullptr);
  for (std::uint64_t i = 1; i <= 50; ++i) {
    cache.insert(ChunkKey{1, 0, i}, planes(64));
    ASSERT_TRUE(cache.contains(h)) << "evicted by one-read chunk " << i;
  }
  EXPECT_EQ(cache.stats().evictions, 47u);  // every one-read chunk but the last three
  EXPECT_TRUE(cache.contains(ChunkKey{1, 0, 50}));
}

TEST(ChunkCache, IdleHotChunkAgesOutOnceTheFloorPassesIt) {
  // H earns rank 2 and goes idle; every later chunk is read twice (rank
  // floor + 1).  Each eviction lifts the floor to the victim's rank, so the
  // newcomers climb to rank 2 and H, the least recently touched of them,
  // leaves — frequency without aging would keep it forever.
  ChunkCache cache(1024);
  const ChunkKey h{1, 0, 0};
  cache.insert(h, planes(64));
  ASSERT_NE(cache.lookup(h), nullptr);
  ASSERT_NE(cache.lookup(h), nullptr);
  std::uint64_t evicted_at = 0;
  for (std::uint64_t i = 1; i <= 16 && evicted_at == 0; ++i) {
    const ChunkKey key{1, 0, i};
    cache.insert(key, planes(64));
    ASSERT_NE(cache.lookup(key), nullptr);
    if (!cache.contains(h)) evicted_at = i;
  }
  // Chunks 4-6 evict chunks 1-3 at rank 1 and reach rank 2 themselves;
  // chunk 7 finds H the oldest entry at rank 2.
  EXPECT_EQ(evicted_at, 7u);
}

TEST(ChunkCache, ContainsDoesNotChangeRank) {
  // A peek must not protect A: with four equal entries, E evicts A, the
  // least recently touched, however often A was peeked at.
  ChunkCache cache(1024);
  const ChunkKey a{1, 0, 0}, b{1, 0, 1}, c{1, 0, 2}, d{1, 0, 3}, e{1, 0, 4};
  for (const ChunkKey& key : {a, b, c, d}) cache.insert(key, planes(64));
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(cache.contains(a));
  cache.insert(e, planes(64));
  EXPECT_FALSE(cache.contains(a));
  for (const ChunkKey& key : {b, c, d, e}) EXPECT_TRUE(cache.contains(key)) << key.chunk;
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0u);
}

TEST(ChunkCache, WorkingSetWithinBudgetStaysResident) {
  // A hot set that fits the budget never misses, whatever order it is read
  // in: promoting one entry must not push another out.
  ChunkCache cache(1024);
  for (std::uint64_t i = 0; i < 4; ++i) cache.insert(ChunkKey{1, 0, i}, planes(64));
  std::mt19937 rng(7);
  for (unsigned q = 0; q < 200; ++q) {
    const ChunkKey key{1, 0, rng() % 4};
    ASSERT_NE(cache.lookup(key), nullptr) << "lookup " << q << " of chunk " << key.chunk;
  }
  const ChunkCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.hits, 200u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(ChunkCache, SkewedReplayUsesTheWholeBudget) {
  // The serving benchmark's shape: 96 chunks of 18-128 KiB, Zipf(1.1)
  // popularity over a fixed shuffle of them, a cache of half the decoded
  // bytes, decode-and-insert on every miss.  Ranking by hits keeps the
  // popular chunks resident over the whole budget: this replay reads 0.880
  // (an exact LRU read 0.842).
  constexpr std::size_t kChunks = 96;
  constexpr std::size_t kRequests = 20000;
  std::mt19937_64 rng(0x5e12e5eedull);
  std::vector<std::shared_ptr<const NdArray>> chunks;
  std::size_t total_bytes = 0;
  for (std::size_t i = 0; i < kChunks; ++i) {
    const std::size_t kib = 18 + rng() % (128 - 18 + 1);
    chunks.push_back(std::make_shared<NdArray>(DType::kFloat32, Shape{kib * 256}));
    total_bytes += chunks.back()->size_bytes();
  }
  std::vector<std::size_t> by_rank(kChunks);
  for (std::size_t k = 0; k < kChunks; ++k) by_rank[k] = k;
  std::shuffle(by_rank.begin(), by_rank.end(), rng);
  std::vector<double> cdf(kChunks);
  double sum = 0;
  for (std::size_t k = 0; k < kChunks; ++k) cdf[k] = sum += std::pow(k + 1.0, -1.1);

  ChunkCache cache(total_bytes / 2);
  std::size_t hits = 0;
  for (std::size_t q = 0; q < kRequests; ++q) {
    // 53 random bits as a uniform double, the same on every standard library.
    const double u = static_cast<double>(rng() >> 11) * 0x1p-53 * sum;
    const std::size_t rank = std::min<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin(), kChunks - 1);
    const ChunkKey key{1, 0, by_rank[rank]};
    if (cache.lookup(key))
      ++hits;
    else
      cache.insert(key, chunks[key.chunk]);
  }
  const double hit_ratio = static_cast<double>(hits) / kRequests;
  RecordProperty("hit_ratio", std::to_string(hit_ratio));
  EXPECT_GE(hit_ratio, 0.86);
  EXPECT_LE(cache.stats().resident_bytes, total_bytes / 2);
}

TEST(ChunkCache, OversizedChunksAreSkippedAndZeroBudgetDisables) {
  ChunkCache small(1024);
  small.insert(ChunkKey{1, 0, 0}, planes(256));  // 1 KiB > half the budget
  EXPECT_FALSE(small.contains(ChunkKey{1, 0, 0}));
  EXPECT_EQ(small.stats().uncacheable, 1u);

  ChunkCache off(0);
  off.insert(ChunkKey{1, 0, 1}, planes(1));
  EXPECT_FALSE(off.contains(ChunkKey{1, 0, 1}));
  EXPECT_EQ(off.lookup(ChunkKey{1, 0, 1}), nullptr);
}

TEST(ChunkCache, EraseArchiveDropsOnlyThatArchive) {
  ChunkCache cache(1 << 20);
  cache.insert(ChunkKey{1, 0, 0}, planes(64));
  cache.insert(ChunkKey{2, 0, 0}, planes(64));
  cache.erase_archive(1);
  EXPECT_FALSE(cache.contains(ChunkKey{1, 0, 0}));
  EXPECT_TRUE(cache.contains(ChunkKey{2, 0, 0}));
}

// ----------------------------------------------------------------- ReaderPool

TEST(ReaderPool, ConcurrentMissDecodesOnce) {
  TempFiles tmp;
  const std::string path = pack_single(tmp, "serve_once");
  auto pool = ReaderPool::open(path, ReaderPoolConfig{});
  ASSERT_TRUE(pool.ok()) << pool.status().to_string();

  constexpr unsigned kThreads = 8;
  std::vector<std::shared_ptr<const NdArray>> results(kThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      auto chunk = pool.value()->chunk(0, 2);
      ASSERT_TRUE(chunk.ok()) << chunk.status().to_string();
      results[t] = chunk.value();
    });
  for (std::thread& thread : threads) thread.join();

  // The in-flight guard (plus the owner's post-registration cache re-check)
  // makes the decode count exactly one — deterministically, not just usually.
  const ReaderPool::Stats stats = pool.value()->stats();
  EXPECT_EQ(stats.decoded_chunks, 1u);
  EXPECT_EQ(stats.requests, kThreads);
  for (unsigned t = 1; t < kThreads; ++t) EXPECT_EQ(results[t], results[0]);
}

TEST(ReaderPool, ConcurrentReadsMatchSerialGolden) {
  TempFiles tmp;
  const std::string path = pack_multi(tmp, "serve_golden");
  auto golden_reader = ArchiveReader::open(path);
  ASSERT_TRUE(golden_reader.ok());
  auto pool = ReaderPool::open(path, ReaderPoolConfig{});
  ASSERT_TRUE(pool.ok()) << pool.status().to_string();

  // Golden serial answers for every query any thread will make.
  std::mutex golden_mutex;
  auto golden_range = [&](std::size_t field, std::size_t first, std::size_t count) {
    std::lock_guard lock(golden_mutex);
    auto out = golden_reader.value().read_range(
        golden_reader.value().fields()[field].name, first, count, 1);
    EXPECT_TRUE(out.ok()) << out.status().to_string();
    return std::move(out).value();
  };
  auto golden_chunk = [&](std::size_t field, std::size_t i) {
    std::lock_guard lock(golden_mutex);
    auto out =
        golden_reader.value().read_chunk(golden_reader.value().fields()[field].name, i);
    EXPECT_TRUE(out.ok()) << out.status().to_string();
    return std::move(out).value();
  };

  constexpr unsigned kThreads = 8;
  constexpr unsigned kQueries = 40;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      std::mt19937 rng(1234 + t);  // deterministic per-thread query stream
      ReaderHandle handle = pool.value()->handle();
      for (unsigned q = 0; q < kQueries; ++q) {
        const std::size_t field = rng() % pool.value()->fields().size();
        const std::size_t n0 = pool.value()->fields()[field].shape[0];
        if (rng() % 3 == 0) {
          const std::size_t i = rng() % pool.value()->fields()[field].chunk_count;
          auto got = handle.read_chunk(field, i);
          ASSERT_TRUE(got.ok()) << got.status().to_string();
          const NdArray want = golden_chunk(field, i);
          ASSERT_EQ(got.value().size_bytes(), want.size_bytes());
          EXPECT_EQ(0, std::memcmp(got.value().data(), want.data(), want.size_bytes()));
        } else {
          const std::size_t first = rng() % n0;
          const std::size_t count = 1 + rng() % (n0 - first);
          auto got = handle.read_range(field, first, count);
          ASSERT_TRUE(got.ok()) << got.status().to_string();
          const NdArray want = golden_range(field, first, count);
          ASSERT_EQ(got.value().size_bytes(), want.size_bytes());
          EXPECT_EQ(0, std::memcmp(got.value().data(), want.data(), want.size_bytes()));
        }
      }
    });
  for (std::thread& thread : threads) thread.join();

  // The cache must have amortized decodes: far fewer decodes than requests.
  const ReaderPool::Stats stats = pool.value()->stats();
  EXPECT_GT(stats.requests, stats.decoded_chunks);
}

TEST(ReaderPool, ConcurrentReadsUnderEvictionMatchGolden) {
  // A cache that holds about three chunks, read by eight handles in random
  // order: lookups, re-ranks, evictions and in-flight decodes all overlap.
  TempFiles tmp;
  const std::string path = pack_multi(tmp, "serve_evicting");
  auto golden_reader = ArchiveReader::open(path);
  ASSERT_TRUE(golden_reader.ok());
  std::vector<std::pair<std::size_t, std::size_t>> all_chunks;
  std::vector<std::vector<NdArray>> golden;
  std::size_t largest = 0;
  for (std::size_t field = 0; field < golden_reader.value().fields().size(); ++field) {
    const archive::FieldInfo& info = golden_reader.value().fields()[field];
    golden.emplace_back();
    for (std::size_t i = 0; i < info.chunk_count; ++i) {
      auto chunk = golden_reader.value().read_chunk(info.name, i);
      ASSERT_TRUE(chunk.ok()) << chunk.status().to_string();
      largest = std::max(largest, chunk.value().size_bytes());
      golden.back().push_back(std::move(chunk).value());
      all_chunks.emplace_back(field, i);
    }
  }
  ASSERT_GT(all_chunks.size(), 6u);

  ReaderPoolConfig config;
  config.cache_bytes = 3 * largest;
  auto pool = ReaderPool::open(path, config);
  ASSERT_TRUE(pool.ok()) << pool.status().to_string();

  constexpr unsigned kThreads = 8;
  constexpr unsigned kPasses = 4;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      std::mt19937 rng(4321 + t);
      ReaderHandle handle = pool.value()->handle();
      std::vector<std::pair<std::size_t, std::size_t>> order = all_chunks;
      for (unsigned pass = 0; pass < kPasses; ++pass) {
        std::shuffle(order.begin(), order.end(), rng);
        for (const auto& [field, i] : order) {
          auto got = handle.read_chunk(field, i);
          ASSERT_TRUE(got.ok()) << got.status().to_string();
          const NdArray& want = golden[field][i];
          ASSERT_EQ(got.value().size_bytes(), want.size_bytes());
          EXPECT_EQ(0, std::memcmp(got.value().data(), want.data(), want.size_bytes()))
              << "field " << field << " chunk " << i;
        }
      }
    });
  for (std::thread& thread : threads) thread.join();

  const ChunkCache::Stats cache = pool.value()->cache()->stats();
  EXPECT_GT(cache.evictions, 0u);
  EXPECT_LE(cache.resident_bytes, config.cache_bytes);
  EXPECT_LE(cache.entries, 3u);
  EXPECT_GT(pool.value()->stats().decoded_chunks, all_chunks.size());
}

TEST(ReaderPool, SequentialScanPrefetchesNextChunk) {
  TempFiles tmp;
  const std::string path = pack_single(tmp, "serve_readahead");
  auto pool = ReaderPool::open(path, ReaderPoolConfig{});
  ASSERT_TRUE(pool.ok()) << pool.status().to_string();
  ReaderHandle handle = pool.value()->handle();

  // Two consecutive ascending reads (chunk 0, then chunk 1) arm readahead of
  // chunk 2 on the worker pool.
  ASSERT_TRUE(handle.read_range(0, 0, 4).ok());
  ASSERT_TRUE(handle.read_range(0, 4, 4).ok());
  pool.value()->drain_prefetches();

  ReaderPool::Stats stats = pool.value()->stats();
  EXPECT_EQ(stats.prefetch_issued, 1u);
  EXPECT_EQ(stats.decoded_chunks, 3u);  // chunks 0, 1 read + 2 prefetched

  // The prefetched chunk now serves from cache: no new decode.  This third
  // ascending read arms readahead of chunk 3, which would race the count
  // unless drained first.
  ASSERT_TRUE(handle.read_range(0, 8, 4).ok());
  pool.value()->drain_prefetches();
  stats = pool.value()->stats();
  EXPECT_EQ(stats.prefetch_issued, 2u);
  EXPECT_EQ(stats.decoded_chunks, 4u);  // chunks 0-3, each once
}

TEST(ReaderPool, ReadaheadDoesNotEvictHotChunks) {
  // A cache of about three chunks.  Pressure chunk 0 is read four times;
  // then a sequential scan of all six temperature chunks arms readahead.
  // Prefetched and scanned chunks enter at the floor rank and evict each
  // other, so the hot chunk stays resident (LRU would evict it at the
  // first prefetch).
  TempFiles tmp;
  const std::string path = pack_multi(tmp, "serve_scan_resistance");
  ReaderPoolConfig config;
  config.cache_bytes = 14000;  // pressure 4608 B + two temperature 4096 B chunks
  auto pool = ReaderPool::open(path, config);
  ASSERT_TRUE(pool.ok()) << pool.status().to_string();
  ReaderHandle handle = pool.value()->handle();
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(handle.read_chunk(1, 0).ok());

  for (std::size_t first = 0; first < 24; first += 4) {
    ASSERT_TRUE(handle.read_range(0, first, 4).ok());
    pool.value()->drain_prefetches();  // one deterministic insert order
  }
  ReaderPool::Stats stats = pool.value()->stats();
  EXPECT_EQ(stats.prefetch_issued, 4u);  // temperature chunks 2-5
  EXPECT_EQ(stats.decoded_chunks, 7u);
  EXPECT_GT(pool.value()->cache()->stats().evictions, 0u);
  EXPECT_TRUE(pool.value()->cache()->contains(ChunkKey{pool.value()->archive_id(), 1, 0}));

  ASSERT_TRUE(handle.read_chunk(1, 0).ok());
  EXPECT_EQ(pool.value()->stats().decoded_chunks, 7u);  // served from the cache
}

TEST(ReaderPool, PrefetchDisabledIssuesNothing) {
  TempFiles tmp;
  const std::string path = pack_single(tmp, "serve_noprefetch");
  ReaderPoolConfig config;
  config.prefetch = false;
  auto pool = ReaderPool::open(path, config);
  ASSERT_TRUE(pool.ok()) << pool.status().to_string();
  ReaderHandle handle = pool.value()->handle();
  for (std::size_t first = 0; first < 16; first += 4)
    ASSERT_TRUE(handle.read_range(0, first, 4).ok());
  EXPECT_EQ(pool.value()->stats().prefetch_issued, 0u);
}

TEST(ReaderPool, SharedCacheAcrossPoolsIsolatesByArchiveId) {
  TempFiles tmp;
  const std::string path_a = pack_single(tmp, "serve_shared_a");
  const std::string path_b = pack_single(tmp, "serve_shared_b");
  ReaderPoolConfig config;
  config.cache = std::make_shared<ChunkCache>(64u << 20);
  auto pool_a = ReaderPool::open(path_a, config);
  auto pool_b = ReaderPool::open(path_b, config);
  ASSERT_TRUE(pool_a.ok() && pool_b.ok());
  ASSERT_NE(pool_a.value()->archive_id(), pool_b.value()->archive_id());

  ASSERT_TRUE(pool_a.value()->chunk(0, 0).ok());
  ASSERT_TRUE(pool_b.value()->chunk(0, 0).ok());
  EXPECT_EQ(config.cache->stats().entries, 2u);  // one per archive, no aliasing

  // Destroying a pool retires its entries; the other pool's survive.
  const std::uint64_t retired = pool_a.value()->archive_id();
  pool_a.value().reset();
  EXPECT_FALSE(config.cache->contains(
      ChunkKey{retired, 0, 0}));
  EXPECT_TRUE(config.cache->contains(ChunkKey{pool_b.value()->archive_id(), 0, 0}));
}

// --------------------------------------------------------------- serve proto

/// Drive one serve connection through stringstreams and return stdout.
std::string serve_session(const std::shared_ptr<ReaderPool>& pool,
                          const std::string& script) {
  std::istringstream in(script);
  std::ostringstream out;
  serve::StreamTransport transport(in, out);
  const Status s = serve::serve_connection(pool, transport);
  EXPECT_TRUE(s.ok()) << s.to_string();
  return out.str();
}

TEST(Serve, ProtocolFramesRangesAndSurvivesErrors) {
  TempFiles tmp;
  const std::string path = pack_single(tmp, "serve_proto");
  auto pool = ReaderPool::open(path, ReaderPoolConfig{});
  ASSERT_TRUE(pool.ok());

  auto golden_reader = ArchiveReader::open(path);
  ASSERT_TRUE(golden_reader.ok());
  auto golden = golden_reader.value().read_range(archive::kDefaultFieldName, 0, 8, 1);
  ASSERT_TRUE(golden.ok());

  const std::string out = serve_session(
      pool.value(),
      "PING\nGET data 0 8\nGET nosuch 0 1\nGET data 9999 1\nBOGUS\nQUIT\n");

  // PONG first, then the framed range: header line + raw little-endian bytes.
  ASSERT_EQ(out.rfind("PONG\n", 0), 0u);
  const std::string head = "OK " + std::to_string(golden.value().size_bytes()) +
                           " f32 8 16 16\n";
  const std::size_t head_at = out.find(head);
  ASSERT_NE(head_at, std::string::npos) << out.substr(0, 100);
  const std::size_t payload_at = head_at + head.size();
  ASSERT_GE(out.size(), payload_at + golden.value().size_bytes());
  EXPECT_EQ(0, std::memcmp(out.data() + payload_at, golden.value().data(),
                           golden.value().size_bytes()));

  // Both bad requests answered with ERR, and the connection stayed open
  // through them (QUIT still acknowledged).
  const std::size_t after_payload = payload_at + golden.value().size_bytes();
  const std::string tail = out.substr(after_payload);
  EXPECT_NE(tail.find("ERR "), std::string::npos);
  EXPECT_NE(tail.find("OK bye"), std::string::npos);
  std::size_t errors = 0;
  for (std::size_t at = tail.find("ERR "); at != std::string::npos;
       at = tail.find("ERR ", at + 1))
    ++errors;
  EXPECT_EQ(errors, 3u);  // unknown field, out-of-range, unknown verb
}

TEST(Serve, ChunkAndInfoRequests) {
  TempFiles tmp;
  const std::string path = pack_multi(tmp, "serve_proto_multi");
  auto pool = ReaderPool::open(path, ReaderPoolConfig{});
  ASSERT_TRUE(pool.ok());

  auto golden_reader = ArchiveReader::open(path);
  ASSERT_TRUE(golden_reader.ok());
  auto golden = golden_reader.value().read_chunk("pressure", 1);
  ASSERT_TRUE(golden.ok());

  const std::string out =
      serve_session(pool.value(), "INFO\nCHUNK pressure 1\nSTATS\nQUIT\n");
  EXPECT_NE(out.find("\"name\":\"temperature\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"pressure\""), std::string::npos);

  const std::string head = "OK " + std::to_string(golden.value().size_bytes()) +
                           " f64 4 12 12\n";
  const std::size_t head_at = out.find(head);
  ASSERT_NE(head_at, std::string::npos) << out.substr(0, 200);
  EXPECT_EQ(0, std::memcmp(out.data() + head_at + head.size(), golden.value().data(),
                           golden.value().size_bytes()));
  EXPECT_NE(out.find("\"decoded_chunks\":"), std::string::npos);
  EXPECT_NE(out.find("\"evictions\":"), std::string::npos);
}

TEST(Serve, MetricsVerbExposesRegistry) {
  TempFiles tmp;
  const std::string path = pack_single(tmp, "serve_metrics");
  auto pool = ReaderPool::open(path, ReaderPoolConfig{});
  ASSERT_TRUE(pool.ok());

  const std::string out = serve_session(
      pool.value(), "GET data 0 4\nMETRICS\nMETRICS PROM\nMETRICS EXTRA X\nQUIT\n");

  // METRICS answers one `OK {json}` line carrying the serve counters and
  // the request/decode latency histograms with quantiles.
  const std::size_t json_at = out.find("OK {\"counters\"");
  ASSERT_NE(json_at, std::string::npos) << out.substr(0, 200);
  const std::string json =
      out.substr(json_at + 3, out.find('\n', json_at) - json_at - 3);
  EXPECT_NE(json.find("\"serve.pool.requests\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"serve.request_us\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"serve.decode_us\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99_us\":"), std::string::npos) << json;

  // METRICS PROM frames the multi-line text exposition as `OK <nbytes>`
  // followed by exactly that many raw bytes.
  const std::size_t prom_head = out.find("OK ", json_at + 3);
  ASSERT_NE(prom_head, std::string::npos);
  const std::size_t prom_eol = out.find('\n', prom_head);
  const std::size_t nbytes =
      std::stoul(out.substr(prom_head + 3, prom_eol - prom_head - 3));
  ASSERT_GE(out.size(), prom_eol + 1 + nbytes);
  const std::string prom = out.substr(prom_eol + 1, nbytes);
  EXPECT_NE(prom.find("# TYPE fraz_serve_pool_requests counter"), std::string::npos)
      << prom.substr(0, 200);
  EXPECT_NE(prom.find("fraz_serve_request_us{quantile=\"0.99\"}"), std::string::npos);

  // A malformed METRICS request errs without closing the connection.
  const std::string tail = out.substr(prom_eol + 1 + nbytes);
  EXPECT_NE(tail.find("ERR "), std::string::npos);
  EXPECT_NE(tail.find("OK bye"), std::string::npos);
}

// ------------------------------------------------------------- bounds CLI aid

TEST(BoundStoreRoundTrip, SavedCampaignRestoresExactly) {
  TempFiles tmp;
  const NdArray field = make_field(DType::kFloat32, {24, 16, 16});
  const std::string bounds_path = tmp.make("serve_bounds");

  // Campaign A: cold pack, then a warm pack, saving the store in between.
  ArchiveWriter first(writer_config("sz", 6.0, 0.2, 4));
  const std::string cold_path = tmp.make("serve_bounds_cold");
  auto cold = first.write(cold_path, field.view());
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(first.bound_store()->save(bounds_path).ok());
  const std::string warm_a_path = tmp.make("serve_bounds_warm_a");
  auto warm_a = first.write(warm_a_path, field.view());
  ASSERT_TRUE(warm_a.ok());

  // Campaign B: a fresh writer restoring the saved store must continue the
  // campaign exactly — same warm chunks, same bytes as A's second write.
  ArchiveWriter second(writer_config("sz", 6.0, 0.2, 4));
  ASSERT_TRUE(second.bound_store()->load(bounds_path).ok());
  const std::string warm_b_path = tmp.make("serve_bounds_warm_b");
  auto warm_b = second.write(warm_b_path, field.view());
  ASSERT_TRUE(warm_b.ok());

  EXPECT_EQ(warm_b.value().warm_chunks, warm_a.value().warm_chunks);
  EXPECT_GT(warm_b.value().warm_chunks, 0u);
  EXPECT_LT(warm_b.value().tuner_probe_calls, cold.value().tuner_probe_calls);

  std::ifstream a(warm_a_path, std::ios::binary), b(warm_b_path, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes_a, bytes_b);
}

}  // namespace
}  // namespace fraz
