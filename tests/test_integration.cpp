#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>

#include "core/tuner.hpp"
#include "data/datasets.hpp"
#include "engine/engine.hpp"
#include "metrics/acf.hpp"
#include "metrics/error_stats.hpp"
#include "ndarray/io.hpp"
#include "pressio/evaluate.hpp"
#include "pressio/registry.hpp"
#include "test_helpers.hpp"

/// Cross-module integration suite: full pipelines over the complete
/// synthetic SDRBench suite, the tuner's contract against every backend, and
/// the file round trips a downstream workflow performs.

namespace fraz {
namespace {

using testhelpers::max_error;

/// Every (dataset, field, backend) combination that is rank-compatible.
struct Combo {
  std::string dataset;
  std::string field;
  std::string backend;
};

std::vector<Combo> all_combos() {
  std::vector<Combo> combos;
  for (const auto& ds : data::sdrbench_suite(data::SuiteScale::kTiny)) {
    for (const auto& field : ds.fields) {
      for (const auto& backend : pressio::registry().names()) {
        auto compressor = pressio::registry().create(backend);
        if (compressor->supports_dims(field.shape.size()))
          combos.push_back({ds.name, field.name, backend});
      }
    }
  }
  return combos;
}

class FullSuiteSweep : public testing::TestWithParam<Combo> {};

TEST_P(FullSuiteSweep, CompressDecompressRespectsBound) {
  const Combo& combo = GetParam();
  const auto ds = data::dataset_by_name(combo.dataset, data::SuiteScale::kTiny);
  const NdArray field = data::generate_field(data::field_by_name(ds, combo.field), 0);
  auto compressor = pressio::registry().create(combo.backend);

  const double range = value_range(field.view());
  const double bound = (range > 0 ? range : 1.0) * 1e-3;
  compressor->set_error_bound(bound);
  Buffer archive;
  ASSERT_TRUE(compressor->compress_into(field.view(), archive).ok());
  NdArray decoded;
  ASSERT_TRUE(compressor->decompress_into(archive.data(), archive.size(), decoded).ok());
  ASSERT_EQ(decoded.shape(), field.shape());
  EXPECT_LE(max_error(field, decoded), bound)
      << combo.dataset << "/" << combo.field << " via " << combo.backend;
}

INSTANTIATE_TEST_SUITE_P(AllDatasetsAllBackends, FullSuiteSweep,
                         testing::ValuesIn(all_combos()),
                         [](const testing::TestParamInfo<Combo>& info) {
                           std::string name = info.param.dataset + "_" + info.param.field +
                                              "_" + info.param.backend;
                           for (char& c : name)
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           return name;
                         });

// ------------------------------------------------------------ tuner contract

class TunerContractSweep
    : public testing::TestWithParam<std::tuple<const char*, double>> {};

TEST_P(TunerContractSweep, ResultsReproduceExactly) {
  const auto [backend, target] = GetParam();
  const auto ds = data::dataset_by_name("hurricane", data::SuiteScale::kTiny);
  const NdArray field = data::generate_field(data::field_by_name(ds, "TCf"), 0);
  auto compressor = pressio::registry().create(backend);

  TunerConfig cfg;
  cfg.target_ratio = target;
  cfg.epsilon = 0.15;
  cfg.threads = 2;
  const Tuner tuner(*compressor, cfg);
  const TuneResult r = tuner.tune(field.view());

  // Whatever the verdict, the reported bound must reproduce the reported
  // ratio when applied directly.
  ASSERT_GT(r.error_bound, 0.0);
  compressor->set_error_bound(r.error_bound);
  Buffer archive;
  ASSERT_TRUE(compressor->compress_into(field.view(), archive).ok());
  const double ratio =
      static_cast<double>(field.size_bytes()) / static_cast<double>(archive.size());
  EXPECT_NEAR(ratio, r.achieved_ratio, 1e-9);
  if (r.feasible) {
    EXPECT_TRUE(ratio_acceptable(ratio, target, cfg.epsilon));
  }

  // And the archive must decode within the bound.
  NdArray decoded;
  ASSERT_TRUE(compressor->decompress_into(archive.data(), archive.size(), decoded).ok());
  EXPECT_LE(max_error(field, decoded), r.error_bound * 1.0000001);
}

INSTANTIATE_TEST_SUITE_P(BackendsAndTargets, TunerContractSweep,
                         testing::Combine(testing::Values("sz", "zfp", "mgard", "truncate"),
                                          testing::Values(4.0, 8.0, 16.0)));

// ---------------------------------------------------------------- file flows

TEST(WorkflowRoundtrip, RawFileToArchiveToRawFile) {
  // The CLI's pipeline, in-process: raw dump -> read -> tune -> compress ->
  // write archive -> read archive -> decompress -> write raw -> verify.
  const std::string dir = testing::TempDir();
  const auto ds = data::dataset_by_name("cesm", data::SuiteScale::kTiny);
  const NdArray field = data::generate_field(data::field_by_name(ds, "FLDSC"), 0);
  const std::string raw_path = dir + "/fraz_integration_in.bin";
  write_raw(raw_path, field.view());

  const NdArray loaded = read_raw(raw_path, field.dtype(), field.shape());
  auto compressor = pressio::registry().create("sz");
  TunerConfig cfg;
  cfg.target_ratio = 6.0;
  const Tuner tuner(*compressor, cfg);
  const TuneResult r = tuner.tune(loaded.view());
  ASSERT_TRUE(r.feasible);

  compressor->set_error_bound(r.error_bound);
  Buffer archive;
  ASSERT_TRUE(compressor->compress_into(loaded.view(), archive).ok());
  NdArray decoded;
  ASSERT_TRUE(compressor->decompress_into(archive.data(), archive.size(), decoded).ok());
  const std::string out_path = dir + "/fraz_integration_out.bin";
  write_raw(out_path, decoded.view());

  const NdArray restored = read_raw(out_path, field.dtype(), field.shape());
  EXPECT_LE(max_error(field, restored), r.error_bound);
  std::remove(raw_path.c_str());
  std::remove(out_path.c_str());
}

TEST(WorkflowRoundtrip, ArchivesSurviveSerialization) {
  // Byte-identical archives decode identically after a disk round trip.
  const std::string dir = testing::TempDir();
  const auto ds = data::dataset_by_name("nyx", data::SuiteScale::kTiny);
  const NdArray field = data::generate_field(data::field_by_name(ds, "temperature"), 0);
  for (const auto& backend : pressio::registry().names()) {
    auto compressor = pressio::registry().create(backend);
    if (!compressor->supports_dims(field.dims())) continue;
    compressor->set_error_bound(value_range(field.view()) * 1e-2);
    Buffer archive;
    ASSERT_TRUE(compressor->compress_into(field.view(), archive).ok());

    const std::string path = dir + "/fraz_archive_" + backend + ".fraz";
    {
      std::ofstream os(path, std::ios::binary);
      os.write(reinterpret_cast<const char*>(archive.data()),
               static_cast<std::streamsize>(archive.size()));
    }
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    std::vector<std::uint8_t> reloaded(static_cast<std::size_t>(is.tellg()));
    is.seekg(0);
    is.read(reinterpret_cast<char*>(reloaded.data()),
            static_cast<std::streamsize>(reloaded.size()));
    ASSERT_TRUE(std::equal(reloaded.begin(), reloaded.end(), archive.begin(), archive.end()))
        << backend;

    NdArray a;
    ASSERT_TRUE(compressor->decompress_into(archive.data(), archive.size(), a).ok());
    NdArray b;
    ASSERT_TRUE(compressor->decompress_into(reloaded.data(), reloaded.size(), b).ok());
    EXPECT_EQ(max_error(a, b), 0.0) << backend;
    std::remove(path.c_str());
  }
}

// -------------------------------------------------------------- evaluation

TEST(EvaluationConsistency, FidelityReportAgreesWithDirectMetrics) {
  const auto ds = data::dataset_by_name("cesm", data::SuiteScale::kTiny);
  const NdArray field = data::generate_field(data::field_by_name(ds, "CLDLOW"), 0);
  auto compressor = pressio::registry().create("zfp");
  compressor->set_error_bound(0.01);

  const auto evaluated = pressio::evaluate_fidelity(*compressor, field.view());
  ASSERT_TRUE(evaluated.ok()) << evaluated.status().to_string();
  const pressio::FidelityReport& report = evaluated.value();
  Buffer archive;
  ASSERT_TRUE(compressor->compress_into(field.view(), archive).ok());
  NdArray decoded;
  ASSERT_TRUE(compressor->decompress_into(archive.data(), archive.size(), decoded).ok());
  const ErrorStats direct = error_stats(field.view(), decoded.view());

  EXPECT_DOUBLE_EQ(report.psnr_db, direct.psnr_db);
  EXPECT_DOUBLE_EQ(report.max_abs_error, direct.max_abs_error);
  EXPECT_DOUBLE_EQ(report.rmse, direct.rmse);
  EXPECT_EQ(report.probe.compressed_bytes, archive.size());
  EXPECT_DOUBLE_EQ(report.acf_error, error_acf(field.view(), decoded.view()));
}

TEST(EvaluationConsistency, SeriesTuningStableAcrossSuite) {
  // Tuning the whole CESM suite as a user would: every field, several steps,
  // one target, one Engine keyed by field name — everything must land in the
  // band with few retrains.
  const auto ds = data::dataset_by_name("cesm", data::SuiteScale::kTiny);
  EngineConfig config;
  config.compressor = "sz";
  config.tuner.target_ratio = 6.0;
  config.tuner.threads = 2;
  Engine engine(config);
  for (const auto& spec : ds.fields) {
    int in_band = 0;
    for (const NdArray& a : data::generate_series(spec, 3))
      in_band += engine.tune(spec.name, a.view()).value().feasible;
    EXPECT_GE(in_band, 2) << spec.name;
    EXPECT_LE(engine.field_stats().at(spec.name).retrains, 2u) << spec.name;
  }
  EXPECT_EQ(engine.field_stats().size(), ds.fields.size());
}

}  // namespace
}  // namespace fraz
