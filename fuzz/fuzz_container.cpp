/// Fuzz every backend's decoder through its container: the frame is decoded
/// by the Registry backend its container id names, so this one harness
/// covers sz (v1, with lz inside, and v2), zfp, mgard, truncate, szx and
/// fpc.  The trailing CRC is restamped before decoding, so mutations reach
/// the payload decoders instead of dying at the checksum.  The contract is
/// a Status for any input — no crash, no out-of-bounds read.  Seeds live at
/// tests/corpus/container/.
#include <map>
#include <string>
#include <vector>

#include "archive/format.hpp"
#include "codec/checksum.hpp"
#include "compressors/container.hpp"
#include "fuzz_driver.hpp"
#include "ndarray/ndarray.hpp"
#include "pressio/registry.hpp"
#include "util/error.hpp"

namespace {

/// Decoded arrays are sized by the frame's shape by design; frames larger
/// than this are skipped so the fuzzer explores decoders, not the allocator.
constexpr std::size_t kMaxElements = std::size_t{1} << 22;

}  // namespace

void fraz_fuzz_one(const std::uint8_t* data, std::size_t size) {
  if (size < 4) return;
  std::vector<std::uint8_t> frame(data, data + size);
  const std::uint32_t crc = fraz::crc32(frame.data(), size - 4);
  for (unsigned i = 0; i < 4; ++i) frame[size - 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));

  fraz::Container c;
  try {
    c = fraz::open_container(frame.data(), frame.size());
  } catch (const fraz::Error&) {
    return;  // rejected before any backend sees it
  }
  if (fraz::shape_elements(c.shape) > kMaxElements) return;

  static std::map<fraz::CompressorId, fraz::pressio::CompressorPtr> backends;
  auto& backend = backends[c.id];
  if (!backend) backend = fraz::pressio::registry().create(fraz::archive::backend_name(c.id));
  fraz::NdArray out;
  (void)backend->decompress_into(frame.data(), frame.size(), out);
}
