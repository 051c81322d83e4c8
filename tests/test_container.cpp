#include "compressors/container.hpp"

#include <gtest/gtest.h>

#include "pressio/registry.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace fraz {
namespace {

std::vector<std::uint8_t> sample_payload() {
  std::vector<std::uint8_t> p(257);
  for (std::size_t i = 0; i < p.size(); ++i) p[i] = static_cast<std::uint8_t>(i * 13);
  return p;
}

TEST(Container, SealAndOpenRoundtrip) {
  const auto payload = sample_payload();
  Buffer sealed;
  seal_container_into(CompressorId::kSz, DType::kFloat32, {4, 5, 6}, payload, sealed);
  const Container c = open_container(sealed.data(), sealed.size(), CompressorId::kSz);
  EXPECT_EQ(c.dtype, DType::kFloat32);
  EXPECT_EQ(c.shape, (Shape{4, 5, 6}));
  ASSERT_EQ(c.payload_size, payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), c.payload));
}

TEST(Container, Float64Shape1d) {
  Buffer sealed;
  seal_container_into(CompressorId::kZfp, DType::kFloat64, {100}, {}, sealed);
  const Container c = open_container(sealed.data(), sealed.size(), CompressorId::kZfp);
  EXPECT_EQ(c.dtype, DType::kFloat64);
  EXPECT_EQ(c.shape, (Shape{100}));
  EXPECT_EQ(c.payload_size, 0u);
}

TEST(Container, WrongCompressorIdThrowsUnsupported) {
  Buffer sealed;
  seal_container_into(CompressorId::kSz, DType::kFloat32, {4}, sample_payload(), sealed);
  EXPECT_THROW(open_container(sealed.data(), sealed.size(), CompressorId::kZfp), Unsupported);
}

TEST(Container, BadMagicThrows) {
  Buffer sealed;
  seal_container_into(CompressorId::kSz, DType::kFloat32, {4}, sample_payload(), sealed);
  sealed.data()[0] ^= 0xff;
  EXPECT_THROW(open_container(sealed.data(), sealed.size(), CompressorId::kSz), CorruptStream);
}

TEST(Container, TruncationThrows) {
  Buffer sealed;
  seal_container_into(CompressorId::kSz, DType::kFloat32, {4}, sample_payload(), sealed);
  sealed.resize(sealed.size() - 5);
  EXPECT_THROW(open_container(sealed.data(), sealed.size(), CompressorId::kSz), CorruptStream);
}

TEST(Container, TooSmallBufferThrows) {
  const std::vector<std::uint8_t> tiny = {1, 2, 3};
  EXPECT_THROW(open_container(tiny.data(), tiny.size(), CompressorId::kSz), CorruptStream);
}

TEST(Container, OpenWithoutExpectedIdAcceptsAnyKnownProducer) {
  Buffer sealed;
  seal_container_into(CompressorId::kZfp, DType::kFloat64, {3, 4}, sample_payload(), sealed);
  const Container c = open_container(sealed.data(), sealed.size());
  EXPECT_EQ(c.id, CompressorId::kZfp);
  EXPECT_EQ(c.shape, (Shape{3, 4}));
}

TEST(Container, PointerPayloadOverloadMatchesVectorOverload) {
  const auto payload = sample_payload();
  Buffer from_vector, from_pointer;
  seal_container_into(CompressorId::kSz, DType::kFloat32, {4, 5}, payload, from_vector);
  seal_container_into(CompressorId::kSz, DType::kFloat32, {4, 5}, payload.data(),
                      payload.size(), from_pointer);
  ASSERT_EQ(from_vector.size(), from_pointer.size());
  EXPECT_TRUE(std::equal(from_vector.begin(), from_vector.end(), from_pointer.begin()));
}

TEST(Container, TruncationAtEveryBoundaryIsCorruptStreamOnAllBackends) {
  // Real compressed streams, cut at EVERY prefix length: whatever structure
  // the truncation lands in (magic, header varints, payload, checksum), the
  // decoder must report CorruptStream — never garbage output, never a crash.
  const NdArray field = testhelpers::make_field(DType::kFloat32, {6, 10, 8});
  for (const auto& name : pressio::registry().names()) {
    auto compressor = pressio::registry().create(name);
    compressor->set_error_bound(0.05);
    Buffer sealed;
    ASSERT_TRUE(compressor->compress_into(field.view(), sealed).ok());
    ASSERT_GT(sealed.size(), 16u) << name;
    for (std::size_t cut = 0; cut < sealed.size(); ++cut) {
      NdArray out;
      const Status s = compressor->decompress_into(sealed.data(), cut, out);
      ASSERT_FALSE(s.ok()) << name << ": decoded a " << cut << "-byte truncation";
      ASSERT_EQ(s.code(), StatusCode::kCorruptStream)
          << name << " cut=" << cut << ": " << s.to_string();
    }
  }
}

TEST(Container, EveryBitFlipIsDetected) {
  Buffer sealed;
  seal_container_into(CompressorId::kMgard, DType::kFloat32, {7, 9}, sample_payload(), sealed);
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> corrupted(sealed.begin(), sealed.end());
    const std::size_t byte = rng.below(corrupted.size());
    corrupted[byte] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    EXPECT_THROW(open_container(corrupted.data(), corrupted.size(), CompressorId::kMgard),
                 Error)
        << "flip at byte " << byte << " went undetected";
  }
}

}  // namespace
}  // namespace fraz
