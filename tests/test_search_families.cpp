#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "opt/global_search.hpp"
#include "util/error.hpp"

/// Property sweep of the global optimizer across the function families that
/// matter for error-bound -> ratio curves (paper §V-B.1): smooth bowls,
/// staircases with sloped treads, multi-valley oscillations, plateaus with a
/// narrow dip, and noisy monotone ramps — each across several seeds, since a
/// robust tuner must not depend on a lucky random stream.

namespace fraz::opt {
namespace {

struct Family {
  const char* name;
  std::function<double(double)> f;
  double lo, hi;
  double best_x;      ///< location of the global minimum
  double x_tolerance; ///< acceptable distance from best_x
};

std::vector<Family> families() {
  return {
      {"bowl", [](double x) { return (x - 2.0) * (x - 2.0); }, -10, 10, 2.0, 0.2},
      {"staircase",
       [](double x) {
         const double step = std::floor(x / 1.5);
         return 30.0 - 3.0 * step + 0.02 * (x - 1.5 * step);
       },
       0, 15, 14.9, 1.6},  // lowest tread is [13.5, 15)
      {"multi_valley", [](double x) { return std::sin(3 * x) + 0.1 * x; }, -8, 8,
       -6.818, 0.3},  // deepest valley pulled left by the linear term
      {"plateau_dip",
       [](double x) {
         return 5.0 - 4.0 * std::exp(-50.0 * (x - 0.7) * (x - 0.7));
       },
       0, 10, 0.7, 0.15},
      {"noisy_ramp",
       [](double x) {
         // Deterministic "noise" from a high-frequency sinusoid.
         return -x + 0.3 * std::sin(37.0 * x);
       },
       0, 5, 5.0, 0.35},
  };
}

using FamilyParam = std::tuple<int, std::uint64_t>;
class FamilySweep : public testing::TestWithParam<FamilyParam> {};

TEST_P(FamilySweep, FindsGlobalMinimum) {
  const auto [family_index, seed] = GetParam();
  const Family family = families()[static_cast<std::size_t>(family_index)];
  SearchOptions opt;
  opt.max_calls = 160;
  opt.seed = seed;
  const SearchResult r = find_min_global(family.f, family.lo, family.hi, opt);
  EXPECT_NEAR(r.best_x, family.best_x, family.x_tolerance)
      << family.name << " seed " << seed;
}

std::string family_param_name(const testing::TestParamInfo<FamilyParam>& info) {
  const auto [family_index, seed] = info.param;
  return std::string(families()[static_cast<std::size_t>(family_index)].name) + "_seed" +
         std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(FunctionsAndSeeds, FamilySweep,
                         testing::Combine(testing::Range(0, 5),
                                          testing::Values(1ull, 42ull, 20260610ull)),
                         family_param_name);

TEST(FamilyCutoffs, StaircaseCutoffHitsAcceptableTread) {
  // FRaZ's usage pattern on a staircase: stop at any tread within the band.
  const Family stairs = families()[1];
  SearchOptions opt;
  opt.max_calls = 100;
  opt.cutoff = 3.1;  // treads at 30, 27, 24, ..., 3: accept the lowest two
  const SearchResult r = find_min_global(stairs.f, stairs.lo, stairs.hi, opt);
  EXPECT_TRUE(r.hit_cutoff);
  EXPECT_LE(r.best_f, 3.1);
  EXPECT_LT(r.calls, 100);
}

TEST(FamilyBaselines, ClimbingFindsMonotoneTargetsSlowly) {
  // The climbing baseline reaches monotone targets but pays per decade.
  // Band wide enough (epsilon 0.2 -> ratio 1.5 > growth 1.3) that the
  // geometric climb cannot step over it.
  const auto ramp = [](double x) { return 10.0 * x; };
  const SearchResult climb = climbing_search(ramp, 1e-6, 10.0, 50.0, 0.2, 200);
  EXPECT_TRUE(climb.hit_cutoff);
  EXPECT_GT(climb.calls, 20);  // many geometric steps from 1e-6 up to 5
  const SearchResult bisect = binary_search_monotone(ramp, 1e-6, 10.0, 50.0, 0.2, 200);
  EXPECT_TRUE(bisect.hit_cutoff);
  EXPECT_LT(bisect.calls, climb.calls);
}

TEST(FamilyBaselines, ClimbingCanStepOverNarrowBands) {
  // A real flaw of the paper's baseline: with acceptance band narrower than
  // one growth step ((1+e)/(1-e) < growth), the climb can jump straight over
  // the acceptable region and never converge — FRaZ's optimizer does not
  // share the failure mode.
  const auto ramp = [](double x) { return 10.0 * x; };
  const double epsilon = 0.02;  // band ratio 1.04 << growth 1.3
  const SearchResult climb = climbing_search(ramp, 1e-6, 10.0, 50.0, epsilon, 200);
  EXPECT_FALSE(climb.hit_cutoff);

  SearchOptions opt;
  opt.max_calls = 200;
  opt.cutoff = 0.0;  // exact hit not needed; rely on quadratic refinement
  const SearchResult global = find_min_global(
      [&](double x) {
        const double d = ramp(x) - 50.0;
        return d * d;
      },
      1e-6, 10.0, opt);
  EXPECT_LE(std::abs(ramp(global.best_x) - 50.0), 50.0 * epsilon);
}

TEST(FamilyBaselines, ClimbingGrowthValidation) {
  const auto ramp = [](double x) { return x; };
  EXPECT_THROW(climbing_search(ramp, 0.0, 1.0, 0.5, 0.1), fraz::InvalidArgument);
  EXPECT_THROW(climbing_search(ramp, 1.0, 0.5, 0.5, 0.1), fraz::InvalidArgument);
  EXPECT_THROW(climbing_search(ramp, 0.1, 1.0, 0.5, 0.1, 10, 1.0), fraz::InvalidArgument);
}

}  // namespace
}  // namespace fraz::opt
