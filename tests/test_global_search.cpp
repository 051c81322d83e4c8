#include "opt/global_search.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"

namespace fraz::opt {
namespace {

/// Mirrors core/loss.hpp's cutoff (kept local so the optimizer test has no
/// dependency on the core library).
double loss_cutoff_for_test(double target, double epsilon) {
  return (epsilon * target) * (epsilon * target);
}

TEST(FindMinGlobal, Parabola) {
  const auto r = find_min_global([](double x) { return (x - 3.0) * (x - 3.0); }, 0, 10);
  EXPECT_NEAR(r.best_x, 3.0, 0.05);
  EXPECT_NEAR(r.best_f, 0.0, 0.01);
}

TEST(FindMinGlobal, ManyLocalMinima) {
  // Global minimum at x = pi/2 + 2k*pi shifted by envelope: use a classic
  // multi-valley test: f(x) = sin(x) + 0.1 x has global min near x ~ -pi/2
  // within [-10, 10] pulled left by the linear term.
  const auto f = [](double x) { return std::sin(x) + 0.05 * x; };
  SearchOptions opt;
  opt.max_calls = 80;
  const auto r = find_min_global(f, -10, 10, opt);
  // True minimum: derivative cos(x) = -0.05 -> x ~ -7.904 (valley near -2.5pi)
  EXPECT_NEAR(r.best_x, -7.904, 0.3);
}

TEST(FindMinGlobal, StepFunctionEscapesPlateaus) {
  // The paper's motivating landscape: a staircase with slight slope on each
  // step.  BOBYQA-style local methods stall; the LIPO step must cross flats.
  const auto f = [](double x) {
    const double step = std::floor(x / 2.0);
    return 50.0 - 10.0 * step + 0.05 * (x - 2.0 * step);
  };
  SearchOptions opt;
  opt.max_calls = 60;
  const auto r = find_min_global(f, 0, 20, opt);
  EXPECT_GE(r.best_x, 18.0);  // lowest step is [18, 20)
}

TEST(FindMinGlobal, CutoffStopsEarly) {
  int calls = 0;
  const auto f = [&calls](double x) {
    ++calls;
    return (x - 5.0) * (x - 5.0);
  };
  SearchOptions opt;
  opt.max_calls = 1000;
  opt.cutoff = 1.0;  // any x within 1 of the minimum value suffices
  const auto r = find_min_global(f, 0, 10, opt);
  EXPECT_TRUE(r.hit_cutoff);
  EXPECT_LE(r.best_f, 1.0);
  EXPECT_LT(calls, 100);
  EXPECT_EQ(calls, r.calls);
}

TEST(FindMinGlobal, MaxCallsRespected) {
  int calls = 0;
  const auto f = [&calls](double x) {
    ++calls;
    return std::sin(37 * x);
  };
  SearchOptions opt;
  opt.max_calls = 17;
  const auto r = find_min_global(f, 0, 1, opt);
  EXPECT_EQ(calls, 17);
  EXPECT_EQ(r.calls, 17);
  EXPECT_EQ(r.history.size(), 17u);
}

TEST(FindMinGlobal, DeterministicForSeed) {
  const auto f = [](double x) { return std::cos(3 * x) + 0.1 * x * x; };
  SearchOptions opt;
  opt.seed = 99;
  const auto a = find_min_global(f, -5, 5, opt);
  const auto b = find_min_global(f, -5, 5, opt);
  EXPECT_EQ(a.best_x, b.best_x);
  EXPECT_EQ(a.history, b.history);
  opt.seed = 100;
  const auto c = find_min_global(f, -5, 5, opt);
  EXPECT_NE(a.history, c.history);  // different stream, different probes
}

TEST(FindMinGlobal, HistoryWithinBounds) {
  const auto f = [](double x) { return std::abs(x - 0.25); };
  const auto r = find_min_global(f, 0.0, 1.0);
  for (const auto& [x, fx] : r.history) {
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
    EXPECT_DOUBLE_EQ(fx, std::abs(x - 0.25));
  }
}

TEST(FindMinGlobal, InvalidArgumentsThrow) {
  const auto f = [](double) { return 0.0; };
  EXPECT_THROW(find_min_global(f, 1, 1, {}), InvalidArgument);
  EXPECT_THROW(find_min_global(f, 2, 1, {}), InvalidArgument);
  SearchOptions opt;
  opt.max_calls = 0;
  EXPECT_THROW(find_min_global(f, 0, 1, opt), InvalidArgument);
}

TEST(FindMinGlobal, NarrowValleyFound) {
  // A deep, narrow valley inside a broad bowl: LIPO must find, quadratic
  // refine.
  const auto f = [](double x) {
    return 0.01 * x * x - 5.0 * std::exp(-200.0 * (x - 1.3) * (x - 1.3));
  };
  SearchOptions opt;
  opt.max_calls = 200;
  const auto r = find_min_global(f, -10, 10, opt);
  EXPECT_NEAR(r.best_x, 1.3, 0.1);
}

// ------------------------------------------------------------ binary search

TEST(BinarySearch, FindsMonotoneTarget) {
  const auto g = [](double x) { return 3.0 * x + 1.0; };  // monotone increasing
  const auto r = binary_search_monotone(g, 0, 100, 150.0, 0.01);
  EXPECT_TRUE(r.hit_cutoff);
  EXPECT_NEAR(3.0 * r.best_x + 1.0, 150.0, 1.5 + 0.01 * 150.0);
}

TEST(BinarySearch, GivesUpOnUnreachableTarget) {
  const auto g = [](double x) { return x; };
  const auto r = binary_search_monotone(g, 0, 1, 50.0, 0.1, 32);
  EXPECT_FALSE(r.hit_cutoff);
  EXPECT_LE(r.calls, 32);
}

TEST(BinarySearch, SlowerThanGlobalOnStaircase) {
  // The paper's §V-B.1 observation: on a step-like ratio curve the global
  // method reaches the band in far fewer compressor calls than bisection
  // climbing from the bottom.  Staircase with long flat treads makes
  // bisection wander; LIPO jumps straight to promising treads.
  const auto ratio_curve = [](double e) {
    // Ratio staircase from ~2 to ~42 over e in [0, 10].
    return 2.0 + 4.0 * std::floor(e);
  };
  const double target = 30.0;  // on the tread at e in [7, 8)
  const double epsilon = 0.05;

  SearchOptions opt;
  opt.max_calls = 64;
  opt.cutoff = loss_cutoff_for_test(target, epsilon);
  const auto global = find_min_global(
      [&](double e) {
        const double d = ratio_curve(e) - target;
        return d * d;
      },
      0, 10, opt);
  const auto binary = binary_search_monotone(ratio_curve, 0, 10, target, epsilon, 64);
  ASSERT_TRUE(global.hit_cutoff);
  // Binary search may also converge but must not beat the global method by
  // a wide margin; typically it needs several times more probes.
  EXPECT_LE(global.calls, binary.calls + 2);
}

}  // namespace
}  // namespace fraz::opt
