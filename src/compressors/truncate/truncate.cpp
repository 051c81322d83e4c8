#include "compressors/truncate/truncate.hpp"

#include <cstring>

#include "codec/bitstream.hpp"
#include "codec/varint.hpp"
#include "compressors/container.hpp"
#include "util/error.hpp"

namespace fraz {

namespace {

template <typename Scalar, typename UInt>
void compress_impl(const ArrayView& input, unsigned bits, Buffer& out) {
  const Scalar* data = input.typed<Scalar>();
  BitWriter writer;
  const unsigned width = sizeof(Scalar) * 8;
  for (std::size_t i = 0; i < input.elements(); ++i) {
    UInt u;
    std::memcpy(&u, data + i, sizeof(Scalar));
    writer.write_bits(u >> (width - bits), bits);
  }
  std::vector<std::uint8_t> payload;
  payload.push_back(static_cast<std::uint8_t>(bits));
  const auto stream = writer.take();
  payload.insert(payload.end(), stream.begin(), stream.end());
  seal_container_into(CompressorId::kTruncate, input.dtype(), input.shape(), payload, out);
}

template <typename Scalar, typename UInt>
void decompress_impl(const Container& c, NdArray& out) {
  ByteReader in(c.payload, c.payload_size, "truncate");
  const unsigned width = sizeof(Scalar) * 8;
  const unsigned bits = in.u8();
  if (bits < 1 || bits > width) in.fail("bad kept-bit count");
  BitReader reader(in.data(), in.remaining());
  Scalar* data = out.typed<Scalar>();
  // Midpoint refill: reconstruct dropped bits as 100...0, the centre of the
  // truncated interval (halves the worst-case mantissa error vs zeros).
  const UInt refill = bits == width ? UInt{0} : UInt{1} << (width - bits - 1);
  for (std::size_t i = 0; i < out.elements(); ++i) {
    UInt u = static_cast<UInt>(reader.read_bits(bits)) << (width - bits);
    u |= refill;
    std::memcpy(data + i, &u, sizeof(Scalar));
  }
}

}  // namespace

void truncate_compress_into(const ArrayView& input, const TruncateOptions& options,
                            Buffer& out) {
  require(input.dims() >= 1 && input.dims() <= 3, "truncate: supports 1D/2D/3D data");
  require(input.elements() > 0, "truncate: empty input");
  const unsigned width = static_cast<unsigned>(dtype_size(input.dtype())) * 8;
  require(options.bits >= 1 && options.bits <= width,
          "truncate: bits must be in [1, scalar width]");
  if (input.dtype() == DType::kFloat32)
    compress_impl<float, std::uint32_t>(input, options.bits, out);
  else
    compress_impl<double, std::uint64_t>(input, options.bits, out);
}

NdArray truncate_decompress(const std::uint8_t* data, std::size_t size) {
  const Container c = open_container(data, size, CompressorId::kTruncate);
  // decompress_impl writes elements 0..n-1 in order.
  NdArray out = NdArray::unfilled(c.dtype, c.shape);
  if (c.dtype == DType::kFloat32)
    decompress_impl<float, std::uint32_t>(c, out);
  else
    decompress_impl<double, std::uint64_t>(c, out);
  return out;
}

}  // namespace fraz
