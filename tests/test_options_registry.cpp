#include <gtest/gtest.h>

#include "pressio/evaluate.hpp"
#include "pressio/options.hpp"
#include "pressio/registry.hpp"
#include "test_helpers.hpp"

namespace fraz::pressio {
namespace {

using testhelpers::make_field;
using testhelpers::max_error;

// ---------------------------------------------------------------- Options

TEST(Options, TypedRoundtrip) {
  Options o;
  o.set("a", std::int64_t{42});
  o.set("b", 2.5);
  o.set("c", std::string("hello"));
  o.set("d", true);
  EXPECT_EQ(o.get<std::int64_t>("a"), 42);
  EXPECT_DOUBLE_EQ(o.get<double>("b"), 2.5);
  EXPECT_EQ(o.get<std::string>("c"), "hello");
  EXPECT_TRUE(o.get<bool>("d"));
  EXPECT_EQ(o.size(), 4u);
}

TEST(Options, MissingKeyThrows) {
  Options o;
  EXPECT_THROW(o.get<double>("missing"), InvalidArgument);
}

TEST(Options, WrongTypeThrows) {
  // Coercion is numeric-only: strings and bools never cross kinds.
  Options o;
  o.set("x", std::string("12"));
  o.set("flag", true);
  EXPECT_THROW(o.get<std::int64_t>("x"), InvalidArgument);
  EXPECT_THROW(o.get<double>("flag"), InvalidArgument);
  o.set("n", 1.0);
  EXPECT_THROW(o.get<bool>("n"), InvalidArgument);
  EXPECT_THROW(o.get<std::string>("n"), InvalidArgument);
}

TEST(Options, NumericCoercion) {
  // The integer footgun: values stored as int64_t must be readable through
  // any arithmetic type, and vice versa for integral doubles.
  Options o;
  o.set("regions", std::int64_t{12});
  o.set("level", 3.0);
  o.set("ratio", 2.5);
  EXPECT_EQ(o.get<int>("regions"), 12);
  EXPECT_EQ(o.get<unsigned>("regions"), 12u);
  EXPECT_DOUBLE_EQ(o.get<double>("regions"), 12.0);
  EXPECT_EQ(o.get<std::int64_t>("level"), 3);
  EXPECT_DOUBLE_EQ(o.get<float>("ratio"), 2.5f);
  // A fractional double refuses to masquerade as an integer.
  EXPECT_THROW(o.get<std::int64_t>("ratio"), InvalidArgument);
  // get_or coerces the same way when the key exists.
  EXPECT_EQ(o.get_or<int>("regions", 99), 12);
  EXPECT_EQ(o.get_or<int>("absent", 99), 99);
}

TEST(Options, GetOrFallsBack) {
  Options o;
  o.set("x", 1.0);
  EXPECT_DOUBLE_EQ(o.get_or<double>("x", 9.0), 1.0);
  EXPECT_DOUBLE_EQ(o.get_or<double>("y", 9.0), 9.0);
}

TEST(Options, OverwriteReplacesValue) {
  Options o;
  o.set("x", 1.0);
  o.set("x", 2.0);
  EXPECT_DOUBLE_EQ(o.get<double>("x"), 2.0);
}

TEST(Options, KeysSorted) {
  Options o;
  o.set("zeta", 1.0);
  o.set("alpha", 1.0);
  EXPECT_EQ(o.keys(), (std::vector<std::string>{"alpha", "zeta"}));
}

// --------------------------------------------------------------- Registry

TEST(Registry, BuiltinsPresent) {
  for (const char* name : {"sz", "zfp", "mgard", "truncate"}) {
    EXPECT_TRUE(registry().contains(name)) << name;
    EXPECT_EQ(registry().create(name)->name(), name);
  }
}

TEST(Registry, UnknownNameThrows) { EXPECT_THROW(registry().create("lzma"), Unsupported); }

TEST(Registry, NamesSortedAndComplete) {
  const auto names = registry().names();
  EXPECT_EQ(names, (std::vector<std::string>{"fpc", "mgard", "sz", "szx", "truncate", "zfp"}));
}

// ---------------------------------------------------------------- Plugins

class PluginSweep : public testing::TestWithParam<const char*> {};

TEST_P(PluginSweep, ErrorBoundKnobReflected) {
  auto c = registry().create(GetParam());
  c->set_error_bound(0.125);
  EXPECT_DOUBLE_EQ(c->error_bound(), 0.125);
  EXPECT_THROW(c->set_error_bound(0.0), InvalidArgument);
  EXPECT_THROW(c->set_error_bound(-1.0), InvalidArgument);
}

TEST_P(PluginSweep, CloneIsIndependent) {
  auto a = registry().create(GetParam());
  a->set_error_bound(0.5);
  auto b = a->clone();
  b->set_error_bound(2.0);
  EXPECT_DOUBLE_EQ(a->error_bound(), 0.5);
  EXPECT_DOUBLE_EQ(b->error_bound(), 2.0);
  EXPECT_EQ(a->name(), b->name());
}

TEST_P(PluginSweep, CompressDecompressRespectsBound) {
  auto c = registry().create(GetParam());
  const NdArray field = make_field(DType::kFloat32, {24, 24});
  c->set_error_bound(0.01);
  Buffer compressed;
  ASSERT_TRUE(c->compress_into(field.view(), compressed).ok());
  NdArray decoded;
  ASSERT_TRUE(c->decompress_into(compressed.data(), compressed.size(), decoded).ok());
  EXPECT_LE(max_error(field, decoded), 0.01);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, PluginSweep,
                         testing::Values("sz", "zfp", "mgard", "truncate"));

TEST(Plugins, SzOptionsRoundtrip) {
  auto c = registry().create("sz");
  Options o;
  o.set("sz:error_bound", 0.25);
  o.set("sz:regression", false);
  c->set_options(o);
  const Options read = c->get_options();
  EXPECT_DOUBLE_EQ(read.get<double>("sz:error_bound"), 0.25);
  EXPECT_FALSE(read.get<bool>("sz:regression"));
}

TEST(Plugins, ZfpModeSwitch) {
  auto c = registry().create("zfp");
  Options o;
  o.set("zfp:mode", std::string("rate"));
  o.set("zfp:rate", 4.0);
  c->set_options(o);
  EXPECT_EQ(c->get_options().get<std::string>("zfp:mode"), "rate");
  EXPECT_DOUBLE_EQ(c->get_options().get<double>("zfp:rate"), 4.0);
  Options bad;
  bad.set("zfp:mode", std::string("bogus"));
  EXPECT_THROW(c->set_options(bad), InvalidArgument);
}

TEST(Plugins, MgardNormSwitch) {
  auto c = registry().create("mgard");
  Options o;
  o.set("mgard:norm", std::string("l2"));
  c->set_options(o);
  EXPECT_EQ(c->get_options().get<std::string>("mgard:norm"), "l2");
}

TEST(Plugins, DimCapabilities) {
  EXPECT_TRUE(registry().create("sz")->supports_dims(1));
  EXPECT_TRUE(registry().create("zfp")->supports_dims(1));
  EXPECT_FALSE(registry().create("mgard")->supports_dims(1));
  EXPECT_TRUE(registry().create("mgard")->supports_dims(3));
  EXPECT_FALSE(registry().create("sz")->supports_dims(4));
}

TEST(Plugins, UnknownNamespacedKeysIgnored) {
  auto c = registry().create("sz");
  Options o;
  o.set("zfp:rate", 4.0);  // other backend's key: ignored, not an error
  EXPECT_NO_THROW(c->set_options(o));
}

// --------------------------------------------------------------- Evaluate

TEST(Evaluate, RatioProbeConsistent) {
  auto c = registry().create("sz");
  c->set_error_bound(0.1);
  const NdArray field = make_field(DType::kFloat32, {32, 32});
  const Result<FidelityReport> report = evaluate_fidelity(*c, field.view());
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  const RatioProbe& probe = report.value().probe;
  EXPECT_EQ(probe.input_bytes, field.size_bytes());
  EXPECT_GT(probe.compressed_bytes, 0u);
  EXPECT_NEAR(probe.ratio,
              static_cast<double>(probe.input_bytes) / probe.compressed_bytes, 1e-12);
  EXPECT_NEAR(probe.bit_rate, 8.0 * probe.compressed_bytes / field.elements(), 1e-12);
}

TEST(Evaluate, FidelityReportSane) {
  auto c = registry().create("zfp");
  c->set_error_bound(0.05);
  const NdArray field = make_field(DType::kFloat32, {24, 40});
  const FidelityReport report = evaluate_fidelity(*c, field.view()).value();
  EXPECT_GT(report.probe.ratio, 1.0);
  EXPECT_GT(report.psnr_db, 20.0);
  EXPECT_LE(report.max_abs_error, 0.05);
  EXPECT_GT(report.ssim, 0.5);
  EXPECT_LE(report.ssim, 1.0);
  EXPECT_GE(report.rmse, 0.0);
}

TEST(Evaluate, CodecFailureComesBackAsStatus) {
  auto c = registry().create("mgard");
  const NdArray field = make_field(DType::kFloat32, {256});  // mgard is 2D/3D only
  const Result<FidelityReport> report = evaluate_fidelity(*c, field.view());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kUnsupported) << report.status().to_string();
}

}  // namespace
}  // namespace fraz::pressio
