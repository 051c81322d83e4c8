/// Unit tests for the szx ultra-fast backend: unconditional absolute error
/// bound, bit-exact raw fallback for non-finite data, ratio behaviour, and
/// the pressio plugin contract.

#include "compressors/szx/szx.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "pressio/registry.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace fraz {
namespace {

using testhelpers::make_field;
using testhelpers::max_error;

TEST(Szx, ErrorBoundRespectedAcrossRanksAndDtypes) {
  for (const DType dt : {DType::kFloat32, DType::kFloat64}) {
    for (const Shape& shape : {Shape{1009}, Shape{48, 37}, Shape{12, 10, 14}}) {
      const NdArray field = make_field(dt, shape);
      for (const double bound : {1.0, 1e-2, 1e-4}) {
        SzxOptions opt;
        opt.error_bound = bound;
        Buffer frame;
        szx_compress_into(field.view(), opt, frame);
        const NdArray decoded = szx_decompress(frame.data(), frame.size());
        ASSERT_EQ(decoded.dtype(), dt);
        ASSERT_EQ(decoded.shape(), shape);
        EXPECT_LE(max_error(field, decoded), bound)
            << "rank=" << shape.size() << " bound=" << bound;
      }
    }
  }
}

TEST(Szx, RatioGrowsWithBound) {
  const NdArray field = make_field(DType::kFloat32, {128, 128});
  double last_ratio = 0.0;
  for (const double bound : {1e-4, 1e-2, 1.0, 20.0}) {
    SzxOptions opt;
    opt.error_bound = bound;
    Buffer compressed;
    szx_compress_into(field.view(), opt, compressed);
    const double ratio =
        static_cast<double>(field.size_bytes()) / static_cast<double>(compressed.size());
    EXPECT_GT(ratio, last_ratio) << "bound=" << bound;
    last_ratio = ratio;
  }
  // A bound near the field's half-range needs only 1-2 code bits per value.
  EXPECT_GT(last_ratio, 8.0);
}

TEST(Szx, ConstantFieldCollapsesToConstantBlocks) {
  NdArray field(DType::kFloat64, {4096});
  for (std::size_t i = 0; i < field.elements(); ++i) field.typed<double>()[i] = 2.75;
  SzxOptions opt;
  opt.error_bound = 1e-6;
  Buffer compressed;
  szx_compress_into(field.view(), opt, compressed);
  // 32 blocks of 128 doubles, one scalar each, plus framing.
  EXPECT_LT(compressed.size(), 1000u);
  const NdArray decoded = szx_decompress(compressed.data(), compressed.size());
  EXPECT_EQ(max_error(field, decoded), 0.0);
}

TEST(Szx, NonFiniteAndSpecialValuesRoundTripBitExactly) {
  for (const DType dt : {DType::kFloat32, DType::kFloat64}) {
    const NdArray base = make_field(dt, {600});
    NdArray field(dt, {600});
    std::memcpy(field.data(), base.data(), base.size_bytes());
    auto poke = [&](std::size_t i, double v) {
      if (dt == DType::kFloat32)
        field.typed<float>()[i] = static_cast<float>(v);
      else
        field.typed<double>()[i] = v;
    };
    poke(0, std::numeric_limits<double>::quiet_NaN());
    poke(7, std::numeric_limits<double>::infinity());
    poke(130, -std::numeric_limits<double>::infinity());
    poke(131, std::numeric_limits<double>::signaling_NaN());
    poke(599, std::numeric_limits<double>::quiet_NaN());
    if (dt == DType::kFloat32) {
      field.typed<float>()[300] = -0.0f;
      field.typed<float>()[301] = std::numeric_limits<float>::denorm_min();
    } else {
      field.typed<double>()[300] = -0.0;
      field.typed<double>()[301] = std::numeric_limits<double>::denorm_min();
    }

    SzxOptions opt;
    opt.error_bound = 1e-3;
    Buffer frame;
    szx_compress_into(field.view(), opt, frame);
    const NdArray decoded = szx_decompress(frame.data(), frame.size());
    // Blocks containing specials are stored raw, so the whole block is
    // bit-exact; finite blocks honour the bound.
    const auto* in = static_cast<const std::uint8_t*>(field.data());
    const auto* out = static_cast<const std::uint8_t*>(decoded.data());
    const std::size_t width = dt == DType::kFloat32 ? 4 : 8;
    for (const std::size_t i : {std::size_t{0}, std::size_t{7}, std::size_t{130},
                                std::size_t{131}, std::size_t{599}})
      EXPECT_EQ(std::memcmp(in + i * width, out + i * width, width), 0) << "i=" << i;
    EXPECT_LE(max_error(field, decoded), 1e-3);
  }
}

TEST(Szx, RejectsBadArguments) {
  const NdArray field = make_field(DType::kFloat32, {64});
  Buffer frame;
  for (const double bad : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    SzxOptions opt;
    opt.error_bound = bad;
    EXPECT_THROW(szx_compress_into(field.view(), opt, frame), InvalidArgument)
        << "bound=" << bad;
  }
}

TEST(Szx, RejectsForeignContainer) {
  const std::vector<std::uint8_t> junk(64, 0x33);
  EXPECT_THROW(szx_decompress(junk.data(), junk.size()), CorruptStream);
}

// --------------------------------------------------------------- plugin

TEST(SzxPlugin, ErrorBoundRespected) {
  auto c = pressio::registry().create("szx");
  const NdArray field = make_field(DType::kFloat32, {24, 24});
  for (const double bound : {10.0, 0.5, 1e-2}) {
    c->set_error_bound(bound);
    Buffer archive;
    ASSERT_TRUE(c->compress_into(field.view(), archive).ok());
    NdArray decoded;
    ASSERT_TRUE(c->decompress_into(archive.data(), archive.size(), decoded).ok());
    EXPECT_LE(max_error(field, decoded), bound) << "bound=" << bound;
  }
}

TEST(SzxPlugin, CapabilitiesAreHonest) {
  auto c = pressio::registry().create("szx");
  const auto caps = c->capabilities();
  EXPECT_EQ(caps.name, "szx");
  EXPECT_TRUE(caps.error_bounded);
  EXPECT_FALSE(caps.lossless);
  EXPECT_TRUE(caps.thread_safe);  // stateless per call
  EXPECT_TRUE(caps.supports(DType::kFloat32, 3));
  EXPECT_TRUE(caps.supports(DType::kFloat64, 1));
}

TEST(SzxPlugin, OptionRoundTripAndValidation) {
  auto c = pressio::registry().create("szx");
  pressio::Options o;
  o.set("szx:error_bound", 0.25);
  c->set_options(o);
  EXPECT_EQ(c->error_bound(), 0.25);

  pressio::Options bad;
  bad.set("szx:error_bound", -1.0);
  EXPECT_THROW(c->set_options(bad), InvalidArgument);
  EXPECT_THROW(c->set_error_bound(0.0), InvalidArgument);
}

}  // namespace
}  // namespace fraz
