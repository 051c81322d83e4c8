#include "compressors/truncate/truncate.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "pressio/registry.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace fraz {
namespace {

using testhelpers::make_field;
using testhelpers::max_error;

TEST(Truncate, RatioIsExactlyWidthOverBits) {
  const NdArray field = make_field(DType::kFloat32, {64, 64});
  for (unsigned bits : {4u, 8u, 16u, 32u}) {
    TruncateOptions opt;
    opt.bits = bits;
    Buffer compressed;
    truncate_compress_into(field.view(), opt, compressed);
    const double ratio =
        static_cast<double>(field.size_bytes()) / static_cast<double>(compressed.size());
    // Container framing adds a small constant; the payload is exact.
    EXPECT_NEAR(ratio, 32.0 / bits, 0.25) << "bits=" << bits;
  }
}

TEST(Truncate, FullWidthIsLossless) {
  const NdArray field = make_field(DType::kFloat32, {17, 23});
  TruncateOptions opt;
  opt.bits = 32;
  Buffer frame;
  truncate_compress_into(field.view(), opt, frame);
  const NdArray decoded = truncate_decompress(frame.data(), frame.size());
  EXPECT_EQ(max_error(field, decoded), 0.0);
}

TEST(Truncate, RelativeErrorBoundedByKeptMantissa) {
  const NdArray field = make_field(DType::kFloat64, {2048});
  TruncateOptions opt;
  opt.bits = 1 + 11 + 10;  // sign + exponent + 10 mantissa bits
  Buffer frame;
  truncate_compress_into(field.view(), opt, frame);
  const NdArray decoded = truncate_decompress(frame.data(), frame.size());
  for (std::size_t i = 0; i < field.elements(); ++i) {
    const double v = field.at_flat(i);
    const double err = std::abs(v - decoded.at_flat(i));
    EXPECT_LE(err, std::abs(v) * std::pow(2.0, -10) + 1e-300) << "i=" << i;
  }
}

TEST(Truncate, ErrorShrinksWithBits) {
  const NdArray field = make_field(DType::kFloat32, {32, 32});
  double last = 1e300;
  for (unsigned bits : {10u, 14u, 20u, 28u}) {
    TruncateOptions opt;
    opt.bits = bits;
    Buffer frame;
    truncate_compress_into(field.view(), opt, frame);
    const NdArray decoded = truncate_decompress(frame.data(), frame.size());
    const double err = max_error(field, decoded);
    EXPECT_LT(err, last) << "bits=" << bits;
    last = err;
  }
}

TEST(Truncate, RejectsBadArguments) {
  const NdArray field = make_field(DType::kFloat32, {8, 8});
  TruncateOptions opt;
  Buffer frame;
  opt.bits = 0;
  EXPECT_THROW(truncate_compress_into(field.view(), opt, frame), InvalidArgument);
  opt.bits = 33;  // beyond f32 width
  EXPECT_THROW(truncate_compress_into(field.view(), opt, frame), InvalidArgument);
}

TEST(Truncate, RejectsForeignContainer) {
  const std::vector<std::uint8_t> junk(64, 0x33);
  EXPECT_THROW(truncate_decompress(junk.data(), junk.size()), CorruptStream);
}

// --------------------------------------------------------------- plugin

TEST(TruncatePlugin, ErrorBoundRespected) {
  auto c = pressio::registry().create("truncate");
  const NdArray field = make_field(DType::kFloat32, {24, 24});
  for (double bound : {10.0, 0.5, 1e-2}) {
    c->set_error_bound(bound);
    Buffer compressed;
    ASSERT_TRUE(c->compress_into(field.view(), compressed).ok());
    NdArray decoded;
    ASSERT_TRUE(c->decompress_into(compressed.data(), compressed.size(), decoded).ok());
    EXPECT_LE(max_error(field, decoded), bound) << "bound=" << bound;
  }
}

TEST(TruncatePlugin, ExplicitBitsOverrideBound) {
  auto c = pressio::registry().create("truncate");
  pressio::Options o;
  o.set("truncate:bits", std::int64_t{16});
  c->set_options(o);
  const NdArray field = make_field(DType::kFloat32, {64, 64});
  Buffer compressed;
  ASSERT_TRUE(c->compress_into(field.view(), compressed).ok());
  const double ratio =
      static_cast<double>(field.size_bytes()) / static_cast<double>(compressed.size());
  EXPECT_NEAR(ratio, 2.0, 0.1);
}

TEST(TruncatePlugin, QualityFarBelowErrorBoundedPeersAtSameRatio) {
  // The paper-intro claim quantified: at a matched ratio, mantissa
  // truncation loses badly to an error-bounded compressor tuned by FRaZ.
  const NdArray field = make_field(DType::kFloat32, {32, 48});
  auto trunc = pressio::registry().create("truncate");
  pressio::Options o;
  o.set("truncate:bits", std::int64_t{8});  // ratio 4
  trunc->set_options(o);
  Buffer archive;
  ASSERT_TRUE(trunc->compress_into(field.view(), archive).ok());
  NdArray trunc_out;
  ASSERT_TRUE(trunc->decompress_into(archive.data(), archive.size(), trunc_out).ok());

  auto sz = pressio::registry().create("sz");
  // Find an SZ bound with ratio ~4 by direct probing (cheap on this field).
  double best_err = 1e300;
  const double range = value_range(field.view());
  for (double frac = 1e-6; frac < 1; frac *= 2) {
    sz->set_error_bound(range * frac);
    Buffer compressed;
    ASSERT_TRUE(sz->compress_into(field.view(), compressed).ok());
    const double ratio =
        static_cast<double>(field.size_bytes()) / static_cast<double>(compressed.size());
    if (ratio >= 4.0) {
      NdArray sz_out;
      ASSERT_TRUE(sz->decompress_into(compressed.data(), compressed.size(), sz_out).ok());
      best_err = max_error(field, sz_out);
      break;
    }
  }
  EXPECT_LT(best_err, max_error(field, trunc_out) / 4);
}

}  // namespace
}  // namespace fraz
