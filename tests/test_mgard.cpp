#include "compressors/mgard/mgard.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "compressors/mgard/hierarchy.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace fraz {
namespace {

using testhelpers::make_field;
using testhelpers::max_error;
using testhelpers::mean_squared_error;

// ----------------------------------------------------------- hierarchy

TEST(MgardHierarchy, LevelCountScalesWithExtent) {
  using mgard_detail::level_count;
  EXPECT_EQ(level_count({2, 2}), 1u);
  EXPECT_GE(level_count({64, 64}), 5u);
  EXPECT_LE(level_count({3, 100000}), 12u);
}

TEST(MgardHierarchy, Level0IsCoarsestAndLastLevelIsEverything) {
  using namespace mgard_detail;
  const std::size_t n = 17;
  const unsigned levels = 3;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(on_axis_level(i, n, levels, levels));  // finest includes all
    if (on_axis_level(i, n, 0, levels)) {
      // Coarse membership is hereditary: every finer level contains it too.
      for (unsigned l = 0; l <= levels; ++l) EXPECT_TRUE(on_axis_level(i, n, l, levels));
    }
  }
  EXPECT_TRUE(on_axis_level(0, n, 0, levels));
  EXPECT_TRUE(on_axis_level(n - 1, n, 0, levels));  // last index on all levels
}

TEST(MgardHierarchy, AxisLevelIsFirstMembership) {
  using namespace mgard_detail;
  const std::size_t n = 33;
  const unsigned levels = 4;
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned l = axis_level(i, n, levels);
    EXPECT_TRUE(on_axis_level(i, n, l, levels));
    if (l > 0) {
      EXPECT_FALSE(on_axis_level(i, n, l - 1, levels));
    }
  }
}

TEST(MgardHierarchy, BracketSurroundsAndWeightsInUnit) {
  using namespace mgard_detail;
  const std::size_t n = 29;
  const unsigned levels = 3;
  for (unsigned l = 0; l < levels; ++l)
    for (std::size_t i = 0; i < n; ++i) {
      if (on_axis_level(i, n, l, levels)) continue;
      const Bracket b = axis_bracket(i, n, l, levels);
      EXPECT_LT(b.lo, i);
      EXPECT_GT(b.hi, i);
      EXPECT_TRUE(on_axis_level(b.lo, n, l, levels));
      EXPECT_TRUE(on_axis_level(b.hi, n, l, levels));
      EXPECT_GT(b.weight, 0.0);
      EXPECT_LT(b.weight, 1.0);
    }
}

TEST(MgardHierarchy, NodeLevelsCoverEveryNodeOnce) {
  using namespace mgard_detail;
  const Shape shape{9, 13};
  const unsigned levels = level_count(shape);
  const auto lvl = node_levels(shape, levels);
  ASSERT_EQ(lvl.size(), shape_elements(shape));
  std::size_t level0 = 0;
  for (const auto l : lvl) {
    EXPECT_LE(l, levels);
    level0 += l == 0;
  }
  EXPECT_GE(level0, 4u);  // at least the four corners
  EXPECT_LT(level0, lvl.size());
}

// ------------------------------------------------------------- compressor

class MgardBoundSweep
    : public testing::TestWithParam<std::tuple<int, DType, double>> {};

TEST_P(MgardBoundSweep, InfinityNormRespected) {
  const auto [dims, dtype, bound] = GetParam();
  const Shape shape = dims == 2 ? Shape{37, 43} : Shape{11, 14, 17};
  const NdArray field = make_field(dtype, shape);
  MgardOptions opt;
  opt.norm = MgardNorm::kInfinity;
  opt.tolerance = bound;
  Buffer compressed;
  mgard_compress_into(field.view(), opt, compressed);
  const NdArray decoded = mgard_decompress(compressed.data(), compressed.size());
  ASSERT_EQ(decoded.shape(), shape);
  EXPECT_LE(max_error(field, decoded), bound) << "dims=" << dims << " bound=" << bound;
}

INSTANTIATE_TEST_SUITE_P(
    DimsTypesBounds, MgardBoundSweep,
    testing::Combine(testing::Values(2, 3),
                     testing::Values(DType::kFloat32, DType::kFloat64),
                     testing::Values(1e-4, 1e-2, 1.0)));

TEST(Mgard, L2ModeMeetsMseTarget) {
  const NdArray field = make_field(DType::kFloat32, {48, 56});
  for (double target : {1e-6, 1e-4, 1e-2}) {
    MgardOptions opt;
    opt.norm = MgardNorm::kL2;
    opt.tolerance = target;
    Buffer frame;
    mgard_compress_into(field.view(), opt, frame);
    const NdArray decoded = mgard_decompress(frame.data(), frame.size());
    EXPECT_LE(mean_squared_error(field, decoded), target) << "target=" << target;
  }
}

TEST(Mgard, L2ModeCompressesHarderThanEquivalentInfinity) {
  // With d = sqrt(3*mse), the L2 quantizer is coarser than an infinity-norm
  // quantizer at d', so the MSE archive should not be larger.
  const NdArray field = make_field(DType::kFloat32, {64, 64});
  MgardOptions inf_opt;
  inf_opt.norm = MgardNorm::kInfinity;
  inf_opt.tolerance = 1e-3;
  MgardOptions l2_opt;
  l2_opt.norm = MgardNorm::kL2;
  l2_opt.tolerance = 1e-6 / 3.0;  // same half-width
  Buffer l2, inf;
  mgard_compress_into(field.view(), l2_opt, l2);
  mgard_compress_into(field.view(), inf_opt, inf);
  EXPECT_EQ(l2.size(), inf.size());
}

TEST(Mgard, Rejects1dAsUnsupported) {
  const NdArray field = make_field(DType::kFloat32, {128});
  Buffer frame;
  EXPECT_THROW(mgard_compress_into(field.view(), MgardOptions{}, frame), Unsupported);
}

TEST(Mgard, RejectsDegenerateExtent) {
  const NdArray field = make_field(DType::kFloat32, {1, 64});
  Buffer frame;
  EXPECT_THROW(mgard_compress_into(field.view(), MgardOptions{}, frame), InvalidArgument);
}

TEST(Mgard, RejectsBadTolerance) {
  const NdArray field = make_field(DType::kFloat32, {8, 8});
  MgardOptions opt;
  opt.tolerance = 0;
  Buffer frame;
  EXPECT_THROW(mgard_compress_into(field.view(), opt, frame), InvalidArgument);
}

TEST(Mgard, AwkwardShapesRoundtrip) {
  for (const Shape& shape : {Shape{2, 2}, Shape{3, 5}, Shape{17, 2}, Shape{5, 6, 7},
                             Shape{2, 2, 2}, Shape{33, 31}}) {
    const NdArray field = make_field(DType::kFloat32, shape);
    MgardOptions opt;
    opt.tolerance = 1e-2;
    Buffer frame;
    mgard_compress_into(field.view(), opt, frame);
    const NdArray decoded = mgard_decompress(frame.data(), frame.size());
    ASSERT_EQ(decoded.shape(), shape);
    EXPECT_LE(max_error(field, decoded), 1e-2) << "rank " << shape.size();
  }
}

TEST(Mgard, SmoothFieldBeatsRawSize) {
  const NdArray field = make_field(DType::kFloat32, {64, 64});
  MgardOptions opt;
  opt.tolerance = 0.1;
  Buffer compressed;
  mgard_compress_into(field.view(), opt, compressed);
  EXPECT_LT(compressed.size(), field.size_bytes() / 4);
}

TEST(Mgard, RatioGrowsWithTolerance) {
  const NdArray field = make_field(DType::kFloat32, {48, 48, 12});
  Buffer tight, loose;
  mgard_compress_into(field.view(), {MgardNorm::kInfinity, 1e-4}, tight);
  mgard_compress_into(field.view(), {MgardNorm::kInfinity, 1.0}, loose);
  EXPECT_LT(loose.size(), tight.size());
}

TEST(Mgard, DeterministicOutput) {
  const NdArray field = make_field(DType::kFloat64, {21, 23});
  MgardOptions opt;
  opt.tolerance = 1e-3;
  Buffer a, b;
  mgard_compress_into(field.view(), opt, a);
  mgard_compress_into(field.view(), opt, b);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
}

TEST(Mgard, RejectsForeignContainer) {
  const std::vector<std::uint8_t> junk(64, 0x22);
  EXPECT_THROW(mgard_decompress(junk.data(), junk.size()), CorruptStream);
}

}  // namespace
}  // namespace fraz
