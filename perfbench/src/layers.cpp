#include "layers.hpp"

#include <cmath>
#include <random>

#include "campaign.hpp"
#include "codec/lz.hpp"
#include "codec/rans.hpp"
#include "codec/rans_interleaved.hpp"
#include "engine/engine.hpp"
#include "metrics/error_stats.hpp"
#include "util/timer.hpp"

namespace perfbench {
namespace {

/// Median MB/s of \p op over \p bytes: at least 3 calls, more while the
/// calls take under a quarter second in total.
template <typename Op>
double median_rate(double bytes, Op&& op) {
  std::vector<double> rates;
  fraz::Timer total;
  while (rates.size() < 3 || (total.seconds() < 0.25 && rates.size() < 64)) {
    fraz::Timer call;
    op();
    rates.push_back(bytes / call.seconds() / 1e6);
  }
  return median(std::move(rates));
}

}  // namespace

LayerResult measure_codecs(std::uint64_t seed) {
  constexpr std::size_t kSymbols = 1u << 20;
  std::mt19937_64 rng(seed ^ 0xc0dec5eedull);
  std::geometric_distribution<std::uint32_t> magnitude(0.4);
  std::bernoulli_distribution negative(0.5);
  std::vector<std::uint32_t> symbols(kSymbols);
  for (auto& s : symbols) {
    const std::uint32_t k = std::min<std::uint32_t>(magnitude(rng), 30000);
    s = negative(rng) ? 32768 - k : 32768 + k;
  }
  std::vector<std::uint8_t> words(2 * kSymbols);
  for (std::size_t i = 0; i < kSymbols; ++i) {
    words[2 * i] = static_cast<std::uint8_t>(symbols[i] & 0xff);
    words[2 * i + 1] = static_cast<std::uint8_t>(symbols[i] >> 8);
  }

  LayerResult out;
  const double symbol_bytes = 4.0 * kSymbols;
  try {
    std::vector<std::uint8_t> encoded;
    std::vector<std::uint32_t> decoded;
    out.metrics.push_back({"codec.rans_encode_MBps", median_rate(symbol_bytes, [&] {
                             encoded = fraz::rans_encode(symbols);
                           }), "MB/s"});
    out.metrics.push_back({"codec.rans_decode_MBps", median_rate(symbol_bytes, [&] {
                             decoded = fraz::rans_decode(encoded);
                           }), "MB/s"});
    ++out.attempted;
    if (decoded != symbols) ++out.failed;

    out.metrics.push_back({"codec.rans_interleaved_encode_MBps",
                           median_rate(symbol_bytes, [&] {
                             encoded = fraz::rans_interleaved_encode(symbols);
                           }), "MB/s"});
    out.metrics.push_back({"codec.rans_interleaved_decode_MBps",
                           median_rate(symbol_bytes, [&] {
                             fraz::rans_interleaved_decode_into(encoded.data(), encoded.size(),
                                                                decoded, kSymbols);
                           }), "MB/s"});
    ++out.attempted;
    if (decoded != symbols) ++out.failed;

    std::vector<std::uint8_t> restored;
    const double word_bytes = static_cast<double>(words.size());
    out.metrics.push_back({"codec.lz_compress_MBps", median_rate(word_bytes, [&] {
                             encoded = fraz::lz_compress(words);
                           }), "MB/s"});
    out.metrics.push_back({"codec.lz_decompress_MBps", median_rate(word_bytes, [&] {
                             restored = fraz::lz_decompress(encoded);
                           }), "MB/s"});
    ++out.attempted;
    if (restored != words) ++out.failed;
  } catch (const std::exception&) {
    ++out.attempted;
    ++out.failed;
  }
  return out;
}

LayerResult measure_backends(const fraz::NdArray& field) {
  struct Row {
    const char* label;
    const char* backend;
    fraz::pressio::Options options;
  };
  // sz_blocked runs its encode and decode on one thread, so its row compares
  // the blocked algorithm with the serial one rather than parallel scaling.
  const Row rows[] = {
      {"sz", "sz", {}},
      {"sz_blocked", "sz",
       {{"sz:mode", std::string("blocked")}, {"sz:threads", std::int64_t{1}}}},
      {"szx", "szx", {}},
      {"zfp", "zfp", {}},
  };
  LayerResult out;
  const fraz::ArrayView view = field.view();
  const double raw = static_cast<double>(field.size_bytes());
  for (const Row& row : rows) {
    const std::string prefix = std::string("compressors.") + row.label + ".";
    fraz::EngineConfig config;
    config.compressor = row.backend;
    config.compressor_options = row.options;
    config.tuner.target_ratio = kTargetRatio;
    config.tuner.epsilon = kEpsilon;
    config.tuner.threads = role_threads();
    ++out.attempted;
    auto created = fraz::Engine::create(config);
    if (!created.ok()) {
      ++out.failed;
      continue;
    }
    fraz::Engine engine = std::move(created).value();
    auto tuned = engine.tune("field", view);
    if (!tuned.ok()) {
      ++out.failed;
      continue;
    }
    const double bound = tuned.value().error_bound;
    fraz::Buffer bytes;
    if (!engine.compress_at(bound, view, bytes).ok()) {
      ++out.failed;
      continue;
    }
    auto decoded = engine.decompress(bytes.data(), bytes.size());
    if (!decoded.ok() || decoded.value().shape() != field.shape()) {
      ++out.failed;
      continue;
    }
    const fraz::ErrorStats stats = fraz::error_stats(view, decoded.value().view());
    if (!(stats.max_abs_error <= bound)) ++out.failed;
    const double ratio = raw / static_cast<double>(bytes.size());
    const double compress_mbps =
        median_rate(raw, [&] { (void)engine.compress_at(bound, view, bytes); });
    const double decompress_mbps =
        median_rate(raw, [&] { (void)engine.decompress(bytes.data(), bytes.size()); });
    out.metrics.push_back({prefix + "compress_MBps", compress_mbps, "MB/s"});
    out.metrics.push_back({prefix + "decompress_MBps", decompress_mbps, "MB/s"});
    out.metrics.push_back({prefix + "ratio", ratio, "ratio"});
    out.metrics.push_back({prefix + "psnr_db", stats.psnr_db, "dB"});
  }
  return out;
}

}  // namespace perfbench
