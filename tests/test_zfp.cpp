#include "compressors/zfp/zfp.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "test_helpers.hpp"
#include "util/error.hpp"

namespace fraz {
namespace {

using testhelpers::make_field;
using testhelpers::max_error;

/// Accuracy-mode property sweep: dims x dtype x tolerance.
class ZfpAccuracySweep
    : public testing::TestWithParam<std::tuple<int, DType, double>> {};

TEST_P(ZfpAccuracySweep, ErrorBoundRespected) {
  const auto [dims, dtype, tolerance] = GetParam();
  const Shape shape = dims == 1 ? Shape{301} : dims == 2 ? Shape{29, 34} : Shape{10, 13, 18};
  const NdArray field = make_field(dtype, shape);
  ZfpOptions opt;
  opt.mode = ZfpMode::kAccuracy;
  opt.tolerance = tolerance;
  Buffer compressed;
  zfp_compress_into(field.view(), opt, compressed);
  const NdArray decoded = zfp_decompress(compressed.data(), compressed.size());
  ASSERT_EQ(decoded.shape(), shape);
  ASSERT_EQ(decoded.dtype(), dtype);
  EXPECT_LE(max_error(field, decoded), tolerance)
      << "dims=" << dims << " tol=" << tolerance;
}

INSTANTIATE_TEST_SUITE_P(
    DimsTypesTolerances, ZfpAccuracySweep,
    testing::Combine(testing::Values(1, 2, 3),
                     testing::Values(DType::kFloat32, DType::kFloat64),
                     testing::Values(1e-4, 1e-2, 1.0, 10.0)));

TEST(Zfp, RatioGrowsWithTolerance) {
  const NdArray field = make_field(DType::kFloat32, {16, 32, 32});
  double last_size = 1e18;
  for (double tol : {1e-5, 1e-3, 1e-1, 10.0}) {
    ZfpOptions opt;
    opt.tolerance = tol;
    Buffer compressed;
    zfp_compress_into(field.view(), opt, compressed);
    EXPECT_LE(compressed.size(), last_size * 1.02) << "tol=" << tol;
    last_size = static_cast<double>(compressed.size());
  }
}

TEST(Zfp, ToleranceFlooringCreatesSteps) {
  // The paper: ZFP "uses a flooring function in the minimum exponent
  // calculation", so tolerances within the same power of two produce the
  // same compressed size.
  const NdArray field = make_field(DType::kFloat32, {16, 16, 16});
  ZfpOptions a, b, c;
  a.tolerance = 0.130;
  b.tolerance = 0.200;  // same floor(log2): both in [2^-3, 2^-2)
  c.tolerance = 0.300;  // next step: in [2^-2, 2^-1)
  Buffer ca, cb, cc;
  zfp_compress_into(field.view(), a, ca);
  zfp_compress_into(field.view(), b, cb);
  zfp_compress_into(field.view(), c, cc);
  EXPECT_EQ(ca.size(), cb.size());
  EXPECT_LT(cc.size(), ca.size());
}

TEST(Zfp, ConstantFieldNearlyFree) {
  NdArray field(DType::kFloat32, {16, 16, 16});
  for (std::size_t i = 0; i < field.elements(); ++i) field.set_flat(i, 3.25);
  ZfpOptions opt;
  opt.tolerance = 1e-3;
  Buffer compressed;
  zfp_compress_into(field.view(), opt, compressed);
  const NdArray decoded = zfp_decompress(compressed.data(), compressed.size());
  EXPECT_LE(max_error(field, decoded), 1e-3);
  EXPECT_LT(compressed.size(), field.size_bytes() / 8);
}

TEST(Zfp, AllZeroFieldExact) {
  NdArray field(DType::kFloat64, {4, 8, 12});
  ZfpOptions opt;
  opt.tolerance = 1e-6;
  Buffer frame;
  zfp_compress_into(field.view(), opt, frame);
  const NdArray decoded = zfp_decompress(frame.data(), frame.size());
  EXPECT_EQ(max_error(field, decoded), 0.0);
}

TEST(Zfp, PartialBlocksHandled) {
  // Shapes deliberately not multiples of 4 in every dimension.
  for (const Shape& shape : {Shape{5}, Shape{7, 9}, Shape{5, 6, 7}, Shape{1, 1, 1},
                             Shape{4, 4, 5}}) {
    const NdArray field = make_field(DType::kFloat32, shape);
    ZfpOptions opt;
    opt.tolerance = 1e-2;
    Buffer frame;
    zfp_compress_into(field.view(), opt, frame);
    const NdArray decoded = zfp_decompress(frame.data(), frame.size());
    ASSERT_EQ(decoded.shape(), shape);
    EXPECT_LE(max_error(field, decoded), 1e-2) << "shape rank " << shape.size();
  }
}

// ---------------------------------------------------------- fixed-rate mode

TEST(Zfp, FixedRateSizeMatchesBudget) {
  // For block-aligned shapes the stream must be ~rate bits per value.
  const Shape shape{16, 16, 16};
  const NdArray field = make_field(DType::kFloat32, shape);
  for (double rate : {2.0, 4.0, 8.0}) {
    ZfpOptions opt;
    opt.mode = ZfpMode::kFixedRate;
    opt.rate = rate;
    Buffer compressed;
    zfp_compress_into(field.view(), opt, compressed);
    const double bits_per_value = 8.0 * static_cast<double>(compressed.size()) /
                                  static_cast<double>(field.elements());
    // Container + mode header amortize to well under half a bit here.
    EXPECT_NEAR(bits_per_value, rate, 0.5) << "rate=" << rate;
  }
}

TEST(Zfp, FixedRateErrorShrinksWithRate) {
  const NdArray field = make_field(DType::kFloat32, {16, 16, 16});
  double last_err = 1e30;
  for (double rate : {1.0, 4.0, 12.0, 24.0}) {
    ZfpOptions opt;
    opt.mode = ZfpMode::kFixedRate;
    opt.rate = rate;
    Buffer frame;
    zfp_compress_into(field.view(), opt, frame);
    const NdArray decoded = zfp_decompress(frame.data(), frame.size());
    const double err = max_error(field, decoded);
    EXPECT_LT(err, last_err) << "rate=" << rate;
    last_err = err;
  }
}

TEST(Zfp, FixedRateWorseThanAccuracyAtSameSize) {
  // The paper's Fig. 1 headline: at matched compressed size, fixed-rate
  // reconstruction loses to fixed-accuracy.
  const NdArray field = make_field(DType::kFloat32, {16, 32, 32});
  ZfpOptions acc;
  acc.mode = ZfpMode::kAccuracy;
  acc.tolerance = 0.5;
  Buffer ca;
  zfp_compress_into(field.view(), acc, ca);
  const double bits = 8.0 * static_cast<double>(ca.size()) /
                      static_cast<double>(field.elements());
  ZfpOptions rate;
  rate.mode = ZfpMode::kFixedRate;
  rate.rate = bits;  // same budget
  Buffer cr;
  zfp_compress_into(field.view(), rate, cr);
  const double err_acc = max_error(field, zfp_decompress(ca.data(), ca.size()));
  const double err_rate = max_error(field, zfp_decompress(cr.data(), cr.size()));
  EXPECT_LE(err_acc, err_rate * 1.05);  // allow a hair of slack
}

TEST(Zfp, FractionalRatesSupported) {
  const NdArray field = make_field(DType::kFloat32, {16, 16, 16});
  ZfpOptions opt;
  opt.mode = ZfpMode::kFixedRate;
  opt.rate = 0.32;  // CR 100 for f32
  Buffer compressed;
  zfp_compress_into(field.view(), opt, compressed);
  const NdArray decoded = zfp_decompress(compressed.data(), compressed.size());
  EXPECT_EQ(decoded.shape(), field.shape());
  const double ratio = static_cast<double>(field.size_bytes()) /
                       static_cast<double>(compressed.size());
  EXPECT_GT(ratio, 50.0);
}

// ----------------------------------------------------------------- guards

TEST(Zfp, RejectsBadArguments) {
  const NdArray field = make_field(DType::kFloat32, {8, 8});
  ZfpOptions opt;
  Buffer frame;
  opt.tolerance = 0.0;
  EXPECT_THROW(zfp_compress_into(field.view(), opt, frame), InvalidArgument);
  opt.tolerance = -1;
  EXPECT_THROW(zfp_compress_into(field.view(), opt, frame), InvalidArgument);
  opt = ZfpOptions{};
  opt.mode = ZfpMode::kFixedRate;
  opt.rate = 0;
  EXPECT_THROW(zfp_compress_into(field.view(), opt, frame), InvalidArgument);
}

TEST(Zfp, RejectsForeignContainer) {
  const std::vector<std::uint8_t> junk(64, 0x5a);
  EXPECT_THROW(zfp_decompress(junk.data(), junk.size()), CorruptStream);
}

TEST(Zfp, DeterministicOutput) {
  const NdArray field = make_field(DType::kFloat64, {9, 10, 11});
  ZfpOptions opt;
  opt.tolerance = 1e-3;
  Buffer a, b;
  zfp_compress_into(field.view(), opt, a);
  zfp_compress_into(field.view(), opt, b);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
}

}  // namespace
}  // namespace fraz
