#include "compressors/sz/sz.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>

#include "codec/checksum.hpp"
#include "data/datasets.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fraz {
namespace {

using testhelpers::make_field;
using testhelpers::max_error;

/// The core property: |original - decompressed| <= bound for every element,
/// across ranks, scalar types, bounds, and with/without regression.
class SzBoundSweep
    : public testing::TestWithParam<std::tuple<int, DType, double, bool>> {};

TEST_P(SzBoundSweep, ErrorBoundRespected) {
  const auto [dims, dtype, bound, regression] = GetParam();
  const Shape shape = dims == 1 ? Shape{2000} : dims == 2 ? Shape{37, 41} : Shape{11, 14, 17};
  const NdArray field = make_field(dtype, shape);
  SzOptions opt;
  opt.error_bound = bound;
  opt.regression = regression;
  Buffer compressed;
  sz_compress_into(field.view(), opt, compressed);
  const NdArray decoded = sz_decompress(compressed.data(), compressed.size());
  ASSERT_EQ(decoded.shape(), shape);
  ASSERT_EQ(decoded.dtype(), dtype);
  EXPECT_LE(max_error(field, decoded), bound)
      << "dims=" << dims << " bound=" << bound << " regression=" << regression;
}

INSTANTIATE_TEST_SUITE_P(
    DimsTypesBounds, SzBoundSweep,
    testing::Combine(testing::Values(1, 2, 3),
                     testing::Values(DType::kFloat32, DType::kFloat64),
                     testing::Values(1e-5, 1e-3, 0.1, 5.0),
                     testing::Values(false, true)));

TEST(Sz, BoundHoldsOnRealisticFields) {
  // Bound property on the synthetic SDRBench analogues (rough data defeats
  // prediction, exercising the unpredictable escape path).
  for (const auto& ds : data::sdrbench_suite(data::SuiteScale::kTiny)) {
    const NdArray field = data::generate_field(ds.fields[0], 0);
    const double bound = value_range(field.view()) * 1e-3;
    SzOptions opt;
    opt.error_bound = bound;
    Buffer frame;
    sz_compress_into(field.view(), opt, frame);
    const NdArray decoded = sz_decompress(frame.data(), frame.size());
    EXPECT_LE(max_error(field, decoded), bound) << ds.name;
  }
}

TEST(Sz, RatioGrowsBroadlyWithBound) {
  const NdArray field = make_field(DType::kFloat32, {16, 32, 32});
  Buffer tight, loose;
  {
    SzOptions opt;
    opt.error_bound = 1e-4;
    sz_compress_into(field.view(), opt, tight);
  }
  {
    SzOptions opt;
    opt.error_bound = 1.0;
    sz_compress_into(field.view(), opt, loose);
  }
  EXPECT_LT(loose.size(), tight.size());
}

TEST(Sz, ConstantFieldCompressesExtremely) {
  NdArray field(DType::kFloat32, {32, 32});
  for (std::size_t i = 0; i < field.elements(); ++i) field.set_flat(i, -7.5);
  SzOptions opt;
  opt.error_bound = 1e-6;
  Buffer compressed;
  sz_compress_into(field.view(), opt, compressed);
  EXPECT_LT(compressed.size(), field.size_bytes() / 20);
  const NdArray decoded = sz_decompress(compressed.data(), compressed.size());
  EXPECT_LE(max_error(field, decoded), 1e-6);
}

TEST(Sz, SingleElementArray) {
  NdArray field(DType::kFloat64, {1});
  field.set_flat(0, 123.456);
  SzOptions opt;
  opt.error_bound = 1e-3;
  Buffer frame;
  sz_compress_into(field.view(), opt, frame);
  const NdArray decoded = sz_decompress(frame.data(), frame.size());
  EXPECT_LE(std::abs(decoded.at_flat(0) - 123.456), 1e-3);
}

TEST(Sz, RandomDataEscapesStillBounded) {
  // White noise defeats both predictors; escapes store exact values, so the
  // bound must hold trivially and the ratio stays near (or below) 1.
  Rng rng(7);
  NdArray field(DType::kFloat32, {4096});
  for (std::size_t i = 0; i < field.elements(); ++i)
    field.set_flat(i, rng.uniform(-1e6, 1e6));
  SzOptions opt;
  opt.error_bound = 1e-3;
  Buffer frame;
  sz_compress_into(field.view(), opt, frame);
  const NdArray decoded = sz_decompress(frame.data(), frame.size());
  EXPECT_LE(max_error(field, decoded), 1e-3);
}

TEST(Sz, HugeValuesWithTinyBound) {
  // Forces the regression-coefficient overflow fallback path.
  NdArray field(DType::kFloat32, {24, 24});
  for (std::size_t i = 0; i < field.elements(); ++i)
    field.set_flat(i, 1e30 * std::sin(static_cast<double>(i)));
  SzOptions opt;
  opt.error_bound = 1e-10;
  Buffer frame;
  sz_compress_into(field.view(), opt, frame);
  const NdArray decoded = sz_decompress(frame.data(), frame.size());
  EXPECT_LE(max_error(field, decoded), 1e-10);
}

TEST(Sz, RegressionImprovesPlanarData) {
  // A perfect plane: regression predicts it exactly, Lorenzo-only also does
  // well, but regression should not be worse.
  NdArray field(DType::kFloat32, {48, 48});
  for (std::size_t y = 0; y < 48; ++y)
    for (std::size_t x = 0; x < 48; ++x)
      field.set_flat(y * 48 + x, 3.0 * static_cast<double>(x) - 2.0 * static_cast<double>(y));
  SzOptions with;
  with.error_bound = 1e-3;
  with.regression = true;
  SzOptions without = with;
  without.regression = false;
  Buffer with_frame, without_frame;
  sz_compress_into(field.view(), with, with_frame);
  sz_compress_into(field.view(), without, without_frame);
  EXPECT_LE(with_frame.size(), without_frame.size() + 64);
}

TEST(Sz, DeterministicOutput) {
  const NdArray field = make_field(DType::kFloat32, {13, 17, 19});
  SzOptions opt;
  opt.error_bound = 1e-2;
  Buffer a, b;
  sz_compress_into(field.view(), opt, a);
  sz_compress_into(field.view(), opt, b);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
}

TEST(Sz, RejectsBadArguments) {
  const NdArray field = make_field(DType::kFloat32, {8, 8});
  SzOptions opt;
  Buffer frame;
  opt.error_bound = 0;
  EXPECT_THROW(sz_compress_into(field.view(), opt, frame), InvalidArgument);
  opt.error_bound = -2;
  EXPECT_THROW(sz_compress_into(field.view(), opt, frame), InvalidArgument);
  opt.error_bound = std::numeric_limits<double>::infinity();
  EXPECT_THROW(sz_compress_into(field.view(), opt, frame), InvalidArgument);
}

TEST(Sz, RejectsForeignContainer) {
  const std::vector<std::uint8_t> junk(64, 0x11);
  EXPECT_THROW(sz_decompress(junk.data(), junk.size()), CorruptStream);
}

TEST(Sz, PartialBlocksAtEveryEdge) {
  for (const Shape& shape : {Shape{6, 6, 6}, Shape{7, 8, 9}, Shape{13, 5, 6}, Shape{1, 1, 7},
                             Shape{25, 25}, Shape{1, 300}}) {
    const NdArray field = make_field(DType::kFloat32, shape);
    SzOptions opt;
    opt.error_bound = 1e-2;
    Buffer frame;
    sz_compress_into(field.view(), opt, frame);
    const NdArray decoded = sz_decompress(frame.data(), frame.size());
    ASSERT_EQ(decoded.shape(), shape);
    EXPECT_LE(max_error(field, decoded), 1e-2);
  }
}

/// Byte pins for the serial (v1) encoder and decoder: size and CRC-32 of each
/// frame and of its decoded values.  The shapes reach every edge of the v1
/// block loop: 3D chunks whose leading extent is below the 6-point block
/// edge (the tuner's 2-plane chunks), 2D extents that are not multiples of
/// 12, and 1D runs of whole and partial 256-point blocks.  Each field is
/// a smooth wave, noisy in places; the "specials" variants carry a NaN, +-Inf
/// and a denormal, which force escapes and poison their neighbours'
/// predictions.  The tightest bound (1e-7 of the value range) is escape- and
/// Lorenzo-heavy.  Any change to these values is a v1 format break.
NdArray pin_field(DType dtype, const Shape& shape, bool specials) {
  // A smooth wave with noise in alternate stretches of 211 flat indices:
  // the noisy stretches favour regression, the clean ones Lorenzo.
  NdArray field(dtype, shape);
  Rng rng(21);
  const std::size_t inner = shape.back();
  const std::size_t mid = shape.size() == 3 ? shape[1] : 1;
  for (std::size_t i = 0; i < field.elements(); ++i) {
    const double x = static_cast<double>(i % inner);
    const double y = static_cast<double>((i / inner) % mid);
    const double z = static_cast<double>(i / (inner * mid));
    const double noise = (i / 211) % 2 == 0 ? 3.0 * (rng.uniform() - 0.5) : 0.0;
    field.set_flat(i, 40.0 * std::sin(0.09 * x + 0.05 * y + 0.13 * z) + noise);
  }
  if (specials) {
    const std::size_t n = field.elements();
    const double denormal = dtype == DType::kFloat32
                                ? static_cast<double>(std::numeric_limits<float>::denorm_min())
                                : std::numeric_limits<double>::denorm_min();
    field.set_flat(n / 7, std::numeric_limits<double>::quiet_NaN());
    field.set_flat(n / 3, std::numeric_limits<double>::infinity());
    field.set_flat(n / 2 + 1, -std::numeric_limits<double>::infinity());
    field.set_flat((3 * n) / 4, denormal);
  }
  return field;
}

TEST(Sz, V1EncoderBytesArePinned) {
  struct Pin {
    std::size_t frame_size;
    std::uint32_t frame_crc;    // over the frame minus its self-checksum trailer
    std::uint32_t decoded_crc;  // over the decoded values' bytes
  };
  // One row per (shape, dtype, bound, specials) in loop order below, then one
  // regression=false row per shape (f32, 1e-4, specials).
  const Pin pins[] = {
      {11249, 0x8561b1cfu, 0xe5a96b1du},
      {11260, 0x08371831u, 0x64c93172u},
      {3762, 0x41bf37a5u, 0x2ced9536u},
      {3928, 0xe508e33au, 0x2eb7a434u},
      {789, 0xe7b241b5u, 0xefe8a001u},
      {943, 0xe6a89a62u, 0x6b670805u},
      {15839, 0x54a733b2u, 0x840dce5bu},
      {16201, 0xb53e4583u, 0xf426246cu},
      {3774, 0xdb3ee3c8u, 0x7090d76fu},
      {4000, 0x5c64234au, 0x06b479a8u},
      {789, 0xdc9f6dfcu, 0x8b0368a5u},
      {1015, 0xeba8c28bu, 0xc57e6395u},
      {16741, 0x502e7f9bu, 0x171f43e7u},
      {16763, 0x5938d34fu, 0x21a43e75u},
      {5836, 0x31fe4683u, 0x2c462f48u},
      {5960, 0xab56b445u, 0x3b71dee0u},
      {1236, 0xb0d1e3d1u, 0x83156679u},
      {1435, 0xfcaa70f4u, 0x4097644eu},
      {24683, 0x99354a0au, 0x7d7cc568u},
      {24779, 0xb819aac0u, 0x90fa539du},
      {5836, 0xfa4275f8u, 0x0b8687d1u},
      {6046, 0x15e63d77u, 0x0c5234bdu},
      {1236, 0x87df3720u, 0x215576adu},
      {1520, 0xe8f35c7eu, 0x4960b48au},
      {4658, 0x359c8952u, 0xc3b58a63u},
      {4657, 0x58da6468u, 0xb0d6f223u},
      {1888, 0xb22a516du, 0x8742ec0cu},
      {1932, 0x243f4efau, 0x2e8159c7u},
      {391, 0x4a5601deu, 0xccd8ae7bu},
      {472, 0xf6f3388au, 0xc9be9f09u},
      {7383, 0x517cdaefu, 0x7f3355fbu},
      {7388, 0xe483eba7u, 0xbbefa8d5u},
      {1888, 0x7dc4b3b8u, 0x14987a8fu},
      {1966, 0x9f0e8859u, 0x8982adc0u},
      {391, 0xff48994eu, 0x702f8f16u},
      {510, 0xf4b0a8f7u, 0xc1622125u},
      {1682, 0x968c4a6eu, 0xbbc46f69u},
      {1677, 0x06f9aedbu, 0xb06baa69u},
      {819, 0x1dae7101u, 0x58004e23u},
      {859, 0x489ca5a6u, 0x312e80c4u},
      {196, 0x9b4b785au, 0x566221c4u},
      {250, 0x6b6efec4u, 0xa78ce6c7u},
      {2499, 0xa945d4bbu, 0xe8e87383u},
      {2502, 0x233f7083u, 0x397bdb0bu},
      {819, 0x0f314828u, 0xa5a58906u},
      {897, 0x09f801fcu, 0x990ca489u},
      {196, 0xb55c847du, 0x63175010u},
      {288, 0x588e2298u, 0xa82a282fu},
      {65203, 0x6a6d6ec6u, 0xab8fdc25u},
      {65205, 0xca9827aeu, 0x53683e4cu},
      {20023, 0xfe280f02u, 0x864cc743u},
      {20045, 0x6f85f747u, 0x15a77593u},
      {5553, 0x62895dc5u, 0x54694051u},
      {5582, 0xc1f0fb5du, 0xc86d61e0u},
      {124155, 0x31480a17u, 0x86590d1bu},
      {124157, 0xdc6b195au, 0x79013af1u},
      {19998, 0x47080d27u, 0x898e734bu},
      {20064, 0xc8b3d2acu, 0x99e641f8u},
      {5553, 0xc804d895u, 0xec1ba2eau},
      {5597, 0x6119352au, 0x96e2d806u},
      {4152, 0x0028e7e4u, 0x0a58aafdu},
      {4155, 0xe9b72746u, 0xdce8098bu},
      {1828, 0x0b405c38u, 0x136e605cu},
      {1882, 0xce7c59bfu, 0x5fc50a99u},
      {412, 0xd80eebf5u, 0x6b970775u},
      {450, 0xbb8c0027u, 0x2c7fcf6bu},
      {7759, 0x5b6d89ecu, 0x0f285684u},
      {7772, 0xff3cfe01u, 0xd582e026u},
      {1828, 0xfdebb166u, 0xfc80bd9du},
      {1889, 0x442632f7u, 0xcf06b6fcu},
      {412, 0xbd8f0a68u, 0xf3d2a2cdu},
      {465, 0x36bd1485u, 0x4c4119fbu},
      {3927, 0xf4cf4f0eu, 0xc607a471u},
      {5849, 0x8e14d751u, 0x7393094cu},
      {1942, 0x18642a84u, 0xdefe8845u},
      {846, 0x2c7b6adfu, 0x3ff15b8eu},
      {20045, 0xc07e079cu, 0x15a77593u},
      {1882, 0xd3ccfd9du, 0x5fc50a99u},
  };
  const Shape shapes[] = {{2, 40, 36}, {5, 30, 31}, {12, 100}, {13, 29}, {16384}, {1000}};
  const DType dtypes[] = {DType::kFloat32, DType::kFloat64};
  const double rel_bounds[] = {1e-7, 1e-4, 1e-2};
  std::size_t row = 0;
  const auto check = [&](const Shape& shape, DType dtype, double rel, bool specials,
                         bool regression) {
    const NdArray field = pin_field(dtype, shape, specials);
    SzOptions opt;
    opt.error_bound = rel * value_range(pin_field(dtype, shape, false).view());
    opt.regression = regression;
    Buffer frame;
    sz_compress_into(field.view(), opt, frame);
    const NdArray decoded = sz_decompress(frame.data(), frame.size());
    const auto* bytes = static_cast<const std::uint8_t*>(decoded.data());
    const std::uint32_t frame_crc = crc32(frame.data(), frame.size() - 4);
    const std::uint32_t decoded_crc = crc32(bytes, decoded.size_bytes());
    ASSERT_LT(row, std::size(pins));
    SCOPED_TRACE(testing::Message() << "row " << row);
    EXPECT_EQ(frame.size(), pins[row].frame_size) << "v1 bytes moved";
    EXPECT_EQ(frame_crc, pins[row].frame_crc) << "v1 bytes moved";
    EXPECT_EQ(decoded_crc, pins[row].decoded_crc) << "v1 decode moved";
    for (std::size_t i = 0; i < field.elements(); ++i) {
      const double v = field.at_flat(i);
      if (std::isfinite(v)) {
        ASSERT_LE(std::abs(decoded.at_flat(i) - v), opt.error_bound) << i;
      }
    }
    ++row;
  };
  for (const Shape& shape : shapes)
    for (const DType dtype : dtypes)
      for (const double rel : rel_bounds)
        for (const bool specials : {false, true}) check(shape, dtype, rel, specials, true);
  for (const Shape& shape : shapes) check(shape, DType::kFloat32, 1e-4, true, false);
  EXPECT_EQ(row, std::size(pins));
}

}  // namespace
}  // namespace fraz
