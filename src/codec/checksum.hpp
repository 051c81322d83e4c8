#ifndef FRAZ_CODEC_CHECKSUM_HPP
#define FRAZ_CODEC_CHECKSUM_HPP

/// \file checksum.hpp
/// CRC-32 (IEEE 802.3 polynomial) used to validate compressed containers so
/// that corrupted archives are rejected with CorruptStream instead of
/// producing garbage reconstructions.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fraz {

/// CRC-32 of \p data.  Scalar slicing-by-8 (eight table lookups per eight
/// bytes); same values as the classic byte-at-a-time loop.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size) noexcept;

/// CRC-32 of a byte vector.
inline std::uint32_t crc32(const std::vector<std::uint8_t>& data) noexcept {
  return crc32(data.data(), data.size());
}

}  // namespace fraz

#endif  // FRAZ_CODEC_CHECKSUM_HPP
