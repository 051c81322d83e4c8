#include "campaign.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "metrics/error_stats.hpp"
#include "trace.hpp"
#include "util/timer.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Count values of \p decoded farther from \p original than the manifest
/// bound of the chunk holding them.
template <typename T>
std::size_t count_violations(const T* original, const T* decoded,
                             const fraz::archive::FieldInfo& field) {
  const std::size_t plane = field.shape[0] == 0 ? 0 : field.raw_bytes / sizeof(T) / field.shape[0];
  std::size_t violations = 0;
  for (std::size_t i = 0; i < field.chunk_count; ++i) {
    const double bound = field.chunks[i].error_bound;
    if (bound <= 0) continue;  // rate-mode chunk: no pointwise promise
    const std::size_t begin = i * field.chunk_extent * plane;
    const std::size_t end = std::min(field.shape[0], (i + 1) * field.chunk_extent) * plane;
    for (std::size_t k = begin; k < end; ++k) {
      const double error =
          std::fabs(static_cast<double>(decoded[k]) - static_cast<double>(original[k]));
      if (!(error <= bound)) ++violations;
    }
  }
  return violations;
}

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size, std::uint64_t h) {
  for (std::size_t i = 0; i < size; ++i) h = (h ^ data[i]) * 1099511628211ull;
  return h;
}

bool same_bytes(const fraz::NdArray& a, const fraz::NdArray& b) {
  return a.size_bytes() == b.size_bytes() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

}  // namespace

unsigned role_threads() {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  return std::min(4u, cores);
}

std::vector<fraz::data::FieldSpec> campaign_fields() {
  struct Member {
    const char* dataset;
    const char* field;
    fraz::Shape shape;
  };
  // The paper's dataset families at enlarged extents: ~9 MB of f32 per
  // step, 16 chunks per field under the auto chunk policy.
  const Member members[] = {
      {"hurricane", "TCf", {32, 128, 128}},
      {"hurricane", "CLOUDf", {32, 128, 128}},
      {"hurricane", "QCLOUDf.log10", {32, 128, 128}},
      {"nyx", "baryon_density", {32, 96, 96}},
      {"cesm", "CLDHGH", {192, 384}},
      {"hacc", "vx", {262144}},
  };
  std::vector<fraz::data::FieldSpec> fields;
  for (const Member& m : members) {
    fraz::data::FieldSpec spec =
        fraz::data::field_by_name(fraz::data::dataset_by_name(m.dataset), m.field);
    spec.shape = m.shape;
    fields.push_back(std::move(spec));
  }
  return fields;
}

std::vector<fraz::NdArray> generate_step(const std::vector<fraz::data::FieldSpec>& fields,
                                         int step, std::uint64_t seed) {
  std::vector<fraz::NdArray> out;
  out.reserve(fields.size());
  const double scale = 1.0 + static_cast<double>(64 + splitmix64(seed) % 1024) * 0x1p-23;
  for (const auto& spec : fields) {
    fraz::NdArray field = fraz::data::generate_field(spec, step);
    auto* values = field.typed<float>();
    for (std::size_t i = 0; i < field.elements(); ++i)
      values[i] = static_cast<float>(values[i] * scale);
    out.push_back(std::move(field));
  }
  return out;
}

std::size_t raw_bytes(const std::vector<fraz::NdArray>& step) {
  std::size_t total = 0;
  for (const auto& a : step) total += a.size_bytes();
  return total;
}

fraz::archive::ArchiveWriteConfig write_config(const std::string& backend, unsigned workers) {
  fraz::archive::ArchiveWriteConfig config;
  config.engine.compressor = backend;
  config.engine.tuner.target_ratio = kTargetRatio;
  config.engine.tuner.epsilon = kEpsilon;
  config.threads = workers;
  return config;
}

fraz::Result<PackOutcome> pack_step(fraz::archive::ArchiveFileWriter& writer,
                                    const std::string& path,
                                    const std::vector<fraz::data::FieldSpec>& fields,
                                    const std::vector<fraz::NdArray>& step) {
  PackOutcome out;
  {
    ScopedSpan pack_span("archive.pack");
    pack_span.set_bytes(raw_bytes(step));
    fraz::Timer timer;
    fraz::Status status = writer.begin(path);
    if (!status.ok()) return status;
    for (std::size_t f = 0; f < fields.size(); ++f) {
      fraz::archive::FieldDesc desc;
      desc.dtype = step[f].dtype();
      desc.shape = step[f].shape();
      auto session = writer.open_field(fields[f].name, desc);
      if (!session.ok()) {
        writer.cancel();
        return session.status();
      }
      {
        ScopedSpan span("archive.push");
        status = session.value().push(step[f].view());
      }
      if (!status.ok()) {
        writer.cancel();
        return status;
      }
      auto closed = [&] {
        ScopedSpan span("archive.close");
        return session.value().close();
      }();
      if (!closed.ok()) {
        writer.cancel();
        return closed.status();
      }
    }
    auto finished = [&] {
      ScopedSpan span("archive.finish");
      return writer.finish();
    }();
    if (!finished.ok()) return finished.status();
    out.wall_s = timer.seconds();
    out.result = std::move(finished).value();
  }
  out.hash = file_hash(path);
  std::error_code ec;
  out.file_bytes = static_cast<std::size_t>(std::filesystem::file_size(path, ec));
  for (const auto& chunk : out.result.chunks) out.tuned_bounds.push_back(chunk.tuned_bound);
  return out;
}

ReadBack read_back(const std::string& path, const std::vector<fraz::NdArray>& originals,
                   unsigned threads, int repeats) {
  ReadBack rb;
  auto opened = fraz::archive::ArchiveFileReader::open(path);
  if (!opened.ok()) {
    rb.reads = 1;
    rb.read_errors = 1;
    return rb;
  }
  fraz::archive::ArchiveFileReader& reader = opened.value();
  const auto& fields = reader.fields();
  if (fields.size() != originals.size()) {
    rb.reads = 1;
    rb.read_errors = 1;
    return rb;
  }
  for (int r = 0; r < repeats; ++r) {
    std::vector<fraz::NdArray> decoded;
    fraz::Timer timer;
    for (const auto& field : fields) {
      auto array = [&] {
        ScopedSpan span("archive.read_all");
        span.set_bytes(field.raw_bytes);
        return reader.read_all(field.name, threads);
      }();
      ++rb.reads;
      if (array.ok()) {
        decoded.push_back(std::move(array).value());
      } else {
        ++rb.read_errors;
        decoded.emplace_back();
      }
    }
    rb.set_seconds.push_back(timer.seconds());
    if (r > 0) {
      for (std::size_t f = 0; f < fields.size(); ++f)
        if (!same_bytes(decoded[f], rb.decoded[f])) {
          ++rb.mismatched_repeats;
          break;
        }
    }
    rb.decoded = std::move(decoded);
  }

  ScopedSpan check_span("bench.check");
  double psnr_sum = 0;
  for (std::size_t f = 0; f < fields.size(); ++f) {
    const fraz::NdArray& original = originals[f];
    const fraz::NdArray& decoded = rb.decoded[f];
    if (decoded.shape() != original.shape() || decoded.dtype() != original.dtype() ||
        fields[f].chunks.size() != fields[f].chunk_count) {
      ++rb.bound_violations;
      continue;
    }
    if (original.dtype() == fraz::DType::kFloat32)
      rb.bound_violations += count_violations(original.typed<float>(),
                                              decoded.typed<float>(), fields[f]);
    else
      rb.bound_violations += count_violations(original.typed<double>(),
                                              decoded.typed<double>(), fields[f]);
    psnr_sum += fraz::error_stats(original.view(), decoded.view()).psnr_db;
  }
  rb.psnr_db = psnr_sum / static_cast<double>(fields.size());
  return rb;
}

std::vector<ChunkRef> chunk_refs(const fraz::serve::ReaderPool& pool) {
  std::vector<ChunkRef> refs;
  const auto& fields = pool.fields();
  for (std::size_t f = 0; f < fields.size(); ++f) {
    const auto& field = fields[f];
    const std::size_t plane_bytes = field.raw_bytes / field.shape[0];
    for (std::size_t i = 0; i < field.chunk_count; ++i) {
      ChunkRef ref;
      ref.field = f;
      ref.first_plane = i * field.chunk_extent;
      ref.planes = std::min(field.chunk_extent, field.shape[0] - ref.first_plane);
      ref.offset_bytes = ref.first_plane * plane_bytes;
      ref.bytes = ref.planes * plane_bytes;
      refs.push_back(ref);
    }
  }
  return refs;
}

ServeStats serve_closed_loop(const std::shared_ptr<fraz::serve::ReaderPool>& pool,
                             const std::vector<ChunkRef>& chunks,
                             const std::vector<fraz::NdArray>& reference, unsigned clients,
                             double seconds, std::uint64_t max_per_client,
                             std::uint64_t seed, const ChunkPicker& picker) {
  struct Client {
    std::vector<double> latencies_us;
    std::size_t errors = 0;
    std::size_t mismatches = 0;
    double serving_s = 0;
  };
  std::vector<Client> state(clients);
  const fraz::serve::ReaderPool::Stats before = pool->stats();
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      Client& me = state[c];
      fraz::serve::ReaderHandle handle = pool->handle();
      std::mt19937_64 rng(splitmix64(seed * 64 + c));
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const Clock::time_point start = Clock::now();
      const Clock::time_point deadline =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
      double checking_s = 0;
      Clock::time_point now = start;
      for (std::uint64_t n = 0; max_per_client == 0 || n < max_per_client; ++n) {
        if (seconds > 0 && now >= deadline) break;
        const ChunkRef& ref = chunks[picker(c, n, rng)];
        const Clock::time_point sent = Clock::now();
        auto response = [&] {
          ScopedSpan span("serve.request");
          return handle.read_range(ref.field, ref.first_plane, ref.planes);
        }();
        const Clock::time_point answered = Clock::now();
        me.latencies_us.push_back(
            std::chrono::duration<double, std::micro>(answered - sent).count());
        if (!response.ok()) {
          ++me.errors;
        } else {
          const fraz::NdArray& planes = response.value();
          const auto* expected =
              static_cast<const std::uint8_t*>(reference[ref.field].data()) + ref.offset_bytes;
          if (reference[ref.field].size_bytes() < ref.offset_bytes + ref.bytes ||
              planes.size_bytes() != ref.bytes ||
              std::memcmp(planes.data(), expected, ref.bytes) != 0)
            ++me.mismatches;
        }
        now = Clock::now();
        checking_s += std::chrono::duration<double>(now - answered).count();
      }
      me.serving_s = std::chrono::duration<double>(now - start).count() - checking_s;
    });
  while (ready.load() < clients) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  ServeStats stats;
  for (Client& client : state) {
    stats.requests += client.latencies_us.size();
    stats.errors += client.errors;
    stats.mismatches += client.mismatches;
    if (client.serving_s > 0)
      stats.qps += static_cast<double>(client.latencies_us.size()) / client.serving_s;
    stats.latencies_us.insert(stats.latencies_us.end(), client.latencies_us.begin(),
                              client.latencies_us.end());
  }
  const fraz::serve::ReaderPool::Stats after = pool->stats();
  stats.pool_delta.requests = after.requests - before.requests;
  stats.pool_delta.cache_hits = after.cache_hits - before.cache_hits;
  stats.pool_delta.wait_hits = after.wait_hits - before.wait_hits;
  stats.pool_delta.decoded_chunks = after.decoded_chunks - before.decoded_chunks;
  return stats;
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::uint64_t file_hash(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return 0;
  std::vector<std::uint8_t> block(1 << 20);
  std::uint64_t h = 1469598103934665603ull;
  for (;;) {
    const std::size_t got = std::fread(block.data(), 1, block.size(), file);
    if (got == 0) break;
    h = fnv1a(block.data(), got, h);
  }
  std::fclose(file);
  return h;
}

}  // namespace perfbench
