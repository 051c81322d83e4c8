/// Integration tests for the ultra-fast backend tier inside the full stack:
/// the szx backend must tune into the acceptance band on the Fig. 6
/// convergence workload, v3 archives written with szx/fpc must be
/// byte-identical at every worker count, and the lossless fpc backend must
/// terminate tuning after its single flat-curve probe.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "archive/archive.hpp"
#include "core/loss.hpp"
#include "data/datasets.hpp"
#include "engine/engine.hpp"
#include "test_helpers.hpp"

namespace fraz {
namespace {

using archive::ArchiveWriteConfig;
using archive::ArchiveWriter;
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

// ------------------------------------------------ Fig. 6 band enforcement

TEST(BackendTier, SzxTunesIntoTheBandOnTheFig6Workload) {
  // Same convergence workload the sz probe-budget gate uses (Hurricane
  // CLOUDf series): the new backend has to reach the acceptance band when
  // feasible — a fast backend that cannot be tuned would be useless to FRaZ.
  // Its flat, stage-free ratio curve caps out lower than sz's, so the target
  // sits at 4 rather than 8.
  const auto ds = data::dataset_by_name("hurricane", data::SuiteScale::kTiny);
  const auto spec = data::field_by_name(ds, "CLOUDf");
  const auto arrays = data::generate_series(spec, 8);

  EngineConfig config;
  config.compressor = "szx";
  config.tuner.target_ratio = 4.0;
  config.tuner.epsilon = 0.1;
  config.tuner.regions = 8;
  config.tuner.max_evals_per_region = 16;
  config.tuner.threads = 4;
  Engine engine(config);
  std::size_t feasible_steps = 0;
  for (const auto& step : arrays) {
    const auto tuned = engine.tune("CLOUDf", step.view());
    ASSERT_TRUE(tuned.ok()) << tuned.status().to_string();
    if (tuned.value().feasible) {
      ++feasible_steps;
      EXPECT_TRUE(ratio_acceptable(tuned.value().achieved_ratio, 4.0, 0.1))
          << "achieved " << tuned.value().achieved_ratio;
      EXPECT_GT(tuned.value().error_bound, 0.0);
    }
  }
  EXPECT_GE(feasible_steps, arrays.size() / 2)
      << "szx could not be tuned into the band on most steps";
  EXPECT_GE(engine.stats().warm_hits, arrays.size() / 2)
      << "warm-start reuse regressed on a mildly drifting series";
}

// -------------------------------------------- archive worker invariance

class TempFiles {
public:
  ~TempFiles() {
    for (const std::string& path : paths_) std::remove(path.c_str());
  }
  std::string make(const std::string& name) {
    paths_.push_back("fraz_test_tier_" + name + ".tmp");
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

void check_worker_invariance(const std::string& backend, double target) {
  TempFiles tmp;
  const NdArray field = make_field(DType::kFloat32, {24, 16, 12});

  Buffer baseline;
  ArchiveWriter(writer_config(backend, target, 0.2, 2, 1))
      .write(field.view(), baseline)
      .value();
  for (const unsigned threads : {2u, 4u}) {
    Buffer parallel;
    ArchiveWriter(writer_config(backend, target, 0.2, 2, threads))
        .write(field.view(), parallel)
        .value();
    ASSERT_EQ(parallel.size(), baseline.size()) << backend << " threads=" << threads;
    EXPECT_EQ(std::memcmp(parallel.data(), baseline.data(), baseline.size()), 0)
        << backend << ": worker count changed the archive bytes, threads=" << threads;
  }

  // The streaming file transport shares the pipeline: same bytes again.
  const std::string path = tmp.make(backend);
  ArchiveWriter file_writer(writer_config(backend, target, 0.2, 2, 4));
  const auto written = file_writer.write(path, field.view());
  ASSERT_TRUE(written.ok()) << written.status().to_string();
  const auto file_bytes = slurp(path);
  ASSERT_EQ(file_bytes.size(), baseline.size()) << backend;
  EXPECT_EQ(std::memcmp(file_bytes.data(), baseline.data(), baseline.size()), 0)
      << backend << ": file-backed pack differs from the in-memory pack";

  // And the archive round-trips through the normal reader.
  auto reader = archive::ArchiveReader::open(baseline.data(), baseline.size());
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  const NdArray decoded = reader.value().read_all(archive::kDefaultFieldName).value();
  ASSERT_EQ(decoded.shape(), field.shape());
}

TEST(BackendTier, SzxArchivesAreWorkerCountInvariant) {
  check_worker_invariance("szx", 4.0);
}

TEST(BackendTier, FpcArchivesAreWorkerCountInvariant) {
  // fpc's ratio is whatever the data admits (lossless): any target works,
  // the tuner short-circuits, and the bytes must still be deterministic.
  check_worker_invariance("fpc", 1.2);
}

// -------------------------------------------- lossless tuner short-circuit

TEST(BackendTier, FpcTuningTerminatesAfterOneProbe) {
  // A lossless backend has a flat ratio curve — searching it is pure waste.
  // The tuner must answer with exactly one probe (the flat ratio itself).
  const NdArray field = make_field(DType::kFloat64, {32, 32});
  EngineConfig config;
  config.compressor = "fpc";
  config.tuner.target_ratio = 8.0;  // unreachable losslessly on this field
  config.tuner.epsilon = 0.1;
  Engine engine(config);
  const auto tuned = engine.tune("field", field.view());
  ASSERT_TRUE(tuned.ok()) << tuned.status().to_string();
  EXPECT_EQ(tuned.value().compress_calls, 1)
      << "lossless short-circuit regressed: the tuner searched a flat curve";
  EXPECT_GT(tuned.value().achieved_ratio, 1.0);
  EXPECT_FALSE(tuned.value().feasible);  // 8x is not reachable losslessly here
}

}  // namespace
}  // namespace fraz
