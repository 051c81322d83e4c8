/// Unit tests for the fpc lossless fast path: bit-exact round-trips on
/// every input (specials and NaN payloads included), table-size knob
/// validation, and the pressio plugin's lossless capability contract.

#include "compressors/fpc/fpc.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "pressio/registry.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fraz {
namespace {

using testhelpers::make_field;

/// Lossless means bitwise, not value-wise: compare raw bytes.
void expect_bit_exact(const NdArray& a, const NdArray& b) {
  ASSERT_EQ(a.dtype(), b.dtype());
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size_bytes()), 0);
}

TEST(Fpc, BitExactRoundTripAcrossRanksAndDtypes) {
  for (const DType dt : {DType::kFloat32, DType::kFloat64}) {
    for (const Shape& shape : {Shape{777}, Shape{33, 41}, Shape{9, 11, 13}}) {
      const NdArray field = make_field(dt, shape);
      Buffer frame;
      fpc_compress_into(field.view(), FpcOptions{}, frame);
      expect_bit_exact(field, fpc_decompress(frame.data(), frame.size()));
    }
  }
}

TEST(Fpc, SpecialValuesSurviveBitExactly) {
  for (const DType dt : {DType::kFloat32, DType::kFloat64}) {
    NdArray field(dt, {512});
    Rng rng(3);
    for (std::size_t i = 0; i < field.elements(); ++i) {
      const double v = rng.normal() * 1e6;
      if (dt == DType::kFloat32)
        field.typed<float>()[i] = static_cast<float>(v);
      else
        field.typed<double>()[i] = v;
    }
    auto poke = [&](std::size_t i, double v) {
      if (dt == DType::kFloat32)
        field.typed<float>()[i] = static_cast<float>(v);
      else
        field.typed<double>()[i] = v;
    };
    poke(0, std::numeric_limits<double>::quiet_NaN());
    poke(1, std::numeric_limits<double>::signaling_NaN());
    poke(2, std::numeric_limits<double>::infinity());
    poke(3, -std::numeric_limits<double>::infinity());
    poke(4, -0.0);
    poke(5, std::numeric_limits<double>::denorm_min());
    // A NaN with a distinctive payload — must survive verbatim.
    if (dt == DType::kFloat64) {
      const std::uint64_t payload_nan = 0x7ff800000000beefull;
      std::memcpy(field.typed<double>() + 6, &payload_nan, 8);
    } else {
      const std::uint32_t payload_nan = 0x7fc0beefu;
      std::memcpy(field.typed<float>() + 6, &payload_nan, 4);
    }
    Buffer frame;
    fpc_compress_into(field.view(), FpcOptions{}, frame);
    expect_bit_exact(field, fpc_decompress(frame.data(), frame.size()));
  }
}

TEST(Fpc, RoughDataStillCompressesLosslessly) {
  // Worst-case input for the predictors: pure noise.  Ratio may dip near
  // (or slightly below, via the 4-bit headers) 1, but correctness holds.
  NdArray field(DType::kFloat64, {4096});
  Rng rng(17);
  for (std::size_t i = 0; i < field.elements(); ++i) {
    const std::uint64_t bits = rng.next();
    std::memcpy(field.typed<double>() + i, &bits, 8);
  }
  FpcOptions opt;
  Buffer compressed;
  fpc_compress_into(field.view(), opt, compressed);
  expect_bit_exact(field, fpc_decompress(compressed.data(), compressed.size()));
}

TEST(Fpc, TableBitsTradeRatioNotCorrectness) {
  const NdArray field = make_field(DType::kFloat64, {64, 64});
  for (const unsigned bits : {8u, 12u, 20u}) {
    FpcOptions opt;
    opt.table_bits = bits;
    Buffer frame;
    fpc_compress_into(field.view(), opt, frame);
    expect_bit_exact(field, fpc_decompress(frame.data(), frame.size()));
  }
}

TEST(Fpc, RejectsBadArguments) {
  const NdArray field = make_field(DType::kFloat32, {64});
  Buffer frame;
  for (const unsigned bad : {0u, 7u, 21u, 64u}) {
    FpcOptions opt;
    opt.table_bits = bad;
    EXPECT_THROW(fpc_compress_into(field.view(), opt, frame), InvalidArgument) << "bits=" << bad;
  }
}

TEST(Fpc, RejectsForeignContainer) {
  const std::vector<std::uint8_t> junk(64, 0x33);
  EXPECT_THROW(fpc_decompress(junk.data(), junk.size()), CorruptStream);
}

// --------------------------------------------------------------- plugin

TEST(FpcPlugin, LosslessAtAnyBound) {
  auto c = pressio::registry().create("fpc");
  const NdArray field = make_field(DType::kFloat64, {48, 32});
  for (const double bound : {1e-12, 1.0, 1e6}) {
    c->set_error_bound(bound);  // accepted and trivially honoured
    Buffer archive;
    ASSERT_TRUE(c->compress_into(field.view(), archive).ok());
    NdArray decoded;
    ASSERT_TRUE(c->decompress_into(archive.data(), archive.size(), decoded).ok());
    expect_bit_exact(field, decoded);
  }
}

TEST(FpcPlugin, CapabilitiesAreHonest) {
  auto c = pressio::registry().create("fpc");
  const auto caps = c->capabilities();
  EXPECT_EQ(caps.name, "fpc");
  EXPECT_TRUE(caps.lossless);
  EXPECT_TRUE(caps.thread_safe);
  EXPECT_TRUE(caps.supports(DType::kFloat32, 2));
  EXPECT_TRUE(caps.supports(DType::kFloat64, 3));
}

TEST(FpcPlugin, TableBitsOptionValidated) {
  auto c = pressio::registry().create("fpc");
  pressio::Options o;
  o.set("fpc:table_bits", std::int64_t{12});
  c->set_options(o);
  EXPECT_EQ(c->get_options().get<std::int64_t>("fpc:table_bits"), 12);

  pressio::Options bad;
  bad.set("fpc:table_bits", std::int64_t{21});
  EXPECT_THROW(c->set_options(bad), InvalidArgument);
}

}  // namespace
}  // namespace fraz
