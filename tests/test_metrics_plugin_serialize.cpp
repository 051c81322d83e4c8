#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/serialize.hpp"
#include "core/tuner.hpp"
#include "data/datasets.hpp"
#include "pressio/registry.hpp"

namespace fraz {
namespace {

// -------------------------------------------------------------- serialize

TEST(Json, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "\"plain\"");
  EXPECT_EQ(json_escape("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_escape("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json_escape("a\nb"), "\"a\\nb\"");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "\"a\\u0001b\"");
}

TEST(Json, NumbersRoundtripPrecision) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(2.5), "2.5");
  // 17 significant digits preserve the double exactly.
  const double v = 0.1234567890123456789;
  EXPECT_EQ(std::stod(json_number(v)), v);
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "\"inf\"");
  EXPECT_EQ(json_number(std::nan("")), "\"nan\"");
}

TEST(Json, OptionsRenderAllTypes) {
  pressio::Options o;
  o.set("b", true);
  o.set("i", std::int64_t{-7});
  o.set("d", 1.5);
  o.set("s", std::string("x\"y"));
  EXPECT_EQ(to_json(o), R"({"b":true,"d":1.5,"i":-7,"s":"x\"y"})");
}

TEST(Json, TuneResultSerializes) {
  const auto ds = data::dataset_by_name("hurricane", data::SuiteScale::kTiny);
  const NdArray field = data::generate_field(data::field_by_name(ds, "TCf"), 0);
  auto compressor = pressio::registry().create("sz");
  TunerConfig cfg;
  cfg.target_ratio = 6.0;
  cfg.threads = 1;
  const Tuner tuner(*compressor, cfg);
  const TuneResult r = tuner.tune(field.view());
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"error_bound\":"), std::string::npos);
  EXPECT_NE(json.find("\"achieved_ratio\":"), std::string::npos);
  EXPECT_NE(json.find("\"regions\":["), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  int depth = 0;
  for (const char c : json) {
    depth += (c == '{' || c == '[');
    depth -= (c == '}' || c == ']');
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(Json, TuneResultBytesArePinned) {
  // Exact bytes of the rendering (key order, number format, region array,
  // no regions key when there are none) — the CLI's `tune --json` extends
  // this object, so downstream parsers see these keys verbatim.
  TuneResult r;
  r.error_bound = 0.1;
  r.achieved_ratio = 6.25;
  r.feasible = true;
  r.compress_calls = 9;
  r.probe_cache_hits = 2;
  r.seconds = 0.125;
  RegionOutcome a;
  a.region = Region{1e-9, 0.5};
  a.best_bound = 0.1;
  a.best_ratio = 6.25;
  a.compress_calls = 5;
  a.cache_hits = 2;
  a.hit_cutoff = true;
  RegionOutcome b;
  b.region = Region{0.45, 1.0};
  b.best_bound = 0.7;
  b.best_ratio = 19.5;
  b.compress_calls = 4;
  b.cancelled = true;
  r.regions = {a, b};
  EXPECT_EQ(to_json(r),
            R"({"error_bound":0.10000000000000001,"achieved_ratio":6.25,"feasible":true,)"
            R"("from_prediction":false,"compress_calls":9,"probe_cache_hits":2,)"
            R"("probes_executed":7,"seconds":0.125,"regions":[)"
            R"({"lo":1.0000000000000001e-09,"hi":0.5,"best_bound":0.10000000000000001,)"
            R"("best_ratio":6.25,"compress_calls":5,"cache_hits":2,"hit_cutoff":true,)"
            R"("cancelled":false},)"
            R"({"lo":0.45000000000000001,"hi":1,"best_bound":0.69999999999999996,)"
            R"("best_ratio":19.5,"compress_calls":4,"cache_hits":0,"hit_cutoff":false,)"
            R"("cancelled":true}]})");

  TuneResult bare;
  bare.error_bound = 3.0;
  bare.achieved_ratio = 1.0 / 3.0;
  bare.from_prediction = true;
  bare.compress_calls = 1;
  EXPECT_EQ(to_json(bare),
            R"({"error_bound":3,"achieved_ratio":0.33333333333333331,"feasible":false,)"
            R"("from_prediction":true,"compress_calls":1,"probe_cache_hits":0,)"
            R"("probes_executed":1,"seconds":0})");
}

}  // namespace
}  // namespace fraz
