#include "compressors/szx/szx.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "codec/varint.hpp"
#include "compressors/container.hpp"
#include "compressors/szx/szx_kernels.hpp"
#include "util/error.hpp"

namespace fraz {

namespace {

/// Payload layout (after the shared container header):
///   u8      payload version (1)
///   u8      block size log2 (7 -> 128 scalars per block)
///   f64     absolute error bound
///   varint  states byte count, then 2-bit block states packed LSB-first
///   varint  data byte count, then per-block data in block order:
///             state 0 (constant): Scalar midpoint
///             state 1 (packed):   Scalar base, u8 bits (<= 30),
///                                 ceil(n*bits/8) packed-code bytes
///             state 2 (raw):      n Scalars verbatim
constexpr std::uint8_t kPayloadVersion = 1;
constexpr std::uint8_t kBlockLog2 = 7;

enum BlockState : unsigned { kConstant = 0, kPacked = 1, kRaw = 2 };

unsigned bit_width(std::uint32_t v) {
  unsigned bits = 0;
  while ((v >> bits) != 0 && bits < 32) ++bits;
  return bits;
}

template <typename Scalar>
void append_scalar(std::vector<std::uint8_t>& out, const Scalar v) {
  std::uint8_t raw[sizeof(Scalar)];
  std::memcpy(raw, &v, sizeof(Scalar));
  out.insert(out.end(), raw, raw + sizeof(Scalar));
}

void append_f64_bits(std::vector<std::uint8_t>& out, const double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(u >> (8 * i)));
}

template <typename Scalar>
void encode_payload(const ArrayView& input, const double e, std::vector<std::uint8_t>& payload) {
  const Scalar* p = input.typed<Scalar>();
  const std::size_t n = input.elements();
  const std::size_t n_blocks = (n + szxk::kBlock - 1) / szxk::kBlock;
  std::vector<std::uint8_t> states((n_blocks + 3) / 4, 0);
  std::vector<std::uint8_t> data;
  data.reserve(n * sizeof(Scalar) / 4 + 64);
  const bool vec = szxk::simd_active();
  const double twoe = 2.0 * e;
  std::uint32_t q[szxk::kBlock];

  for (std::size_t b = 0; b < n_blocks; ++b) {
    const std::size_t off = b * szxk::kBlock;
    const std::size_t bn = std::min(szxk::kBlock, n - off);
    const Scalar* bp = p + off;
    const szxk::BlockStats st =
        vec ? szxk::block_stats_vec(bp, bn) : szxk::block_stats_scalar(bp, bn);
    unsigned state = kRaw;
    if (st.all_finite) {
      if (st.max - st.min <= twoe) {
        // Candidate constant block: the midpoint (as stored) must stay within
        // the bound of both extremes, hence of every element.
        const auto mid = static_cast<Scalar>(st.min + 0.5 * (st.max - st.min));
        const auto md = static_cast<double>(mid);
        if (std::fabs(md - st.min) <= e && std::fabs(md - st.max) <= e) {
          state = kConstant;
          append_scalar(data, mid);
        }
      }
      if (state != kConstant) {
        const szxk::QuantResult qr = vec ? szxk::quantize_vec(bp, bn, st.min, twoe, e, q)
                                         : szxk::quantize_scalar(bp, bn, st.min, twoe, e, q);
        if (qr.ok) {
          state = kPacked;
          append_scalar(data, static_cast<Scalar>(st.min));
          const unsigned bits = bit_width(qr.qor);
          data.push_back(static_cast<std::uint8_t>(bits));
          szxk::pack_bits(q, bn, bits, data);
        }
      }
    }
    if (state == kRaw) {
      const auto* raw = reinterpret_cast<const std::uint8_t*>(bp);
      data.insert(data.end(), raw, raw + bn * sizeof(Scalar));
    }
    states[b >> 2] |= static_cast<std::uint8_t>(state << ((b & 3) * 2));
  }

  payload.push_back(kPayloadVersion);
  payload.push_back(kBlockLog2);
  append_f64_bits(payload, e);
  put_varint(payload, states.size());
  payload.insert(payload.end(), states.begin(), states.end());
  put_varint(payload, data.size());
  payload.insert(payload.end(), data.begin(), data.end());
}

template <typename Scalar>
void decode_payload(const Container& c, const std::size_t n, NdArray& out) {
  ByteReader in(c.payload, c.payload_size, "szx");
  if (in.u8() != kPayloadVersion) in.fail("unknown payload version");
  if (in.u8() != kBlockLog2) in.fail("unsupported block size");
  const double e = in.f64();
  if (!(std::isfinite(e) && e > 0.0)) in.fail("bad error bound");
  const double twoe = 2.0 * e;

  const std::size_t n_blocks = (n + szxk::kBlock - 1) / szxk::kBlock;
  if (in.varint() != (n_blocks + 3) / 4) in.fail("state stream size mismatch");
  const std::uint8_t* states = in.take((n_blocks + 3) / 4);
  if (in.varint() != in.remaining()) in.fail("data stream size mismatch");

  Scalar* outp = out.typed<Scalar>();
  const bool vec = szxk::simd_active();
  std::uint32_t q[szxk::kBlock];
  for (std::size_t b = 0; b < n_blocks; ++b) {
    const std::size_t off = b * szxk::kBlock;
    const std::size_t bn = std::min(szxk::kBlock, n - off);
    const unsigned state = (states[b >> 2] >> ((b & 3) * 2)) & 3u;
    switch (state) {
      case kConstant:
        std::fill(outp + off, outp + off + bn, in.scalar<Scalar>());
        break;
      case kPacked: {
        const auto base = static_cast<double>(in.scalar<Scalar>());
        const unsigned bits = in.u8();
        if (bits > szxk::kMaxQBits) in.fail("packed bit width out of range");
        szxk::unpack_bits(in.take((bn * bits + 7) / 8), bn, bits, q);
        if (vec)
          szxk::dequantize_vec(q, bn, base, twoe, outp + off);
        else
          szxk::dequantize_scalar(q, bn, base, twoe, outp + off);
        break;
      }
      case kRaw:
        std::memcpy(outp + off, in.take(bn * sizeof(Scalar)), bn * sizeof(Scalar));
        break;
      default:
        throw CorruptStream("szx: invalid block state");
    }
  }
  in.expect_end("trailing bytes after block data");
}

}  // namespace

void szx_compress_into(const ArrayView& input, const SzxOptions& options, Buffer& out) {
  require(input.dims() >= 1 && input.dims() <= 8, "szx: supports 1D..8D data");
  require(input.elements() > 0, "szx: empty input");
  require(std::isfinite(options.error_bound) && options.error_bound > 0,
          "szx: error bound must be positive and finite");
  std::vector<std::uint8_t> payload;
  if (input.dtype() == DType::kFloat32)
    encode_payload<float>(input, options.error_bound, payload);
  else
    encode_payload<double>(input, options.error_bound, payload);
  seal_container_into(CompressorId::kSzx, input.dtype(), input.shape(), payload, out);
}

NdArray szx_decompress(const std::uint8_t* data, std::size_t size) {
  const Container c = open_container(data, size, CompressorId::kSzx);
  std::uint64_t n = 1;
  for (const std::size_t extent : c.shape) {
    if (extent == 0 || n > (std::uint64_t{1} << 42) / extent)
      throw CorruptStream("szx: implausible shape");
    n *= extent;
  }
  // decode_payload writes each block's elements in every block state.
  NdArray out = NdArray::unfilled(c.dtype, c.shape);
  if (c.dtype == DType::kFloat32)
    decode_payload<float>(c, static_cast<std::size_t>(n), out);
  else
    decode_payload<double>(c, static_cast<std::size_t>(n), out);
  return out;
}

}  // namespace fraz
