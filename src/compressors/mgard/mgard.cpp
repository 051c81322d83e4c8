#include "compressors/mgard/mgard.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "codec/huffman.hpp"
#include "codec/lz.hpp"
#include "codec/varint.hpp"
#include "compressors/container.hpp"
#include "compressors/mgard/hierarchy.hpp"
#include "util/error.hpp"

namespace fraz {

namespace {

using namespace mgard_detail;

/// Quantization radius for the Huffman alphabet; large residuals escape to a
/// raw-scalar stream (code 0), exactly as in the SZ reproduction.
constexpr std::int64_t kRadius = std::int64_t{1} << 21;

/// Effective per-level quantizer half-width for the requested norm.
///
/// MGARD 0.0.0.2's computable bound comes from splitting the loss budget
/// across the level hierarchy: coefficients are taken against the *original*
/// coarse values, the decoder interpolates from reconstructions, and the
/// per-level errors telescope — |err| <= sum_l d_l.  A uniform split
/// d_l = tolerance / (levels + 1) guarantees the bound at the cost of a
/// (levels+1)-times finer quantizer, which is exactly why the paper finds
/// MGARD's ratios the weakest of the three compressors (Figs. 9, 10).
double half_width(const MgardOptions& opt, unsigned levels) {
  const double budget = opt.norm == MgardNorm::kInfinity
                            ? opt.tolerance
                            // Uniform quantization error ~U(-d, d): variance
                            // d^2/3, so d = sqrt(3*MSE) meets the L2 target.
                            : std::sqrt(3.0 * opt.tolerance);
  return budget / static_cast<double>(levels + 1);
}

std::array<std::size_t, 3> strides_of(const Shape& shape) {
  std::array<std::size_t, 3> s{0, 0, 0};
  const std::size_t d = shape.size();
  s[d - 1] = 1;
  for (std::size_t i = d - 1; i-- > 0;) s[i] = s[i + 1] * shape[i + 1];
  return s;
}

/// Multilinear interpolation of node \p coord from the (already
/// reconstructed) next-coarser grid.  Axes whose coordinate lies on the
/// coarse grid contribute a single plane; the remaining axes contribute the
/// bracketing pair with linear weights.
template <typename Scalar>
double interpolate(const Scalar* recon, const Shape& shape,
                   const std::array<std::size_t, 3>& stride, const std::size_t* coord,
                   unsigned coarse_level, unsigned total_levels) {
  const unsigned dims = static_cast<unsigned>(shape.size());
  // Per axis: one or two taps.
  std::size_t tap_idx[3][2] = {};
  double tap_w[3][2] = {};
  unsigned tap_n[3] = {1, 1, 1};
  for (unsigned d = 0; d < dims; ++d) {
    if (on_axis_level(coord[d], shape[d], coarse_level, total_levels)) {
      tap_idx[d][0] = coord[d];
      tap_w[d][0] = 1.0;
      tap_n[d] = 1;
    } else {
      const Bracket b = axis_bracket(coord[d], shape[d], coarse_level, total_levels);
      tap_idx[d][0] = b.lo;
      tap_w[d][0] = 1.0 - b.weight;
      tap_idx[d][1] = b.hi;
      tap_w[d][1] = b.weight;
      tap_n[d] = 2;
    }
  }
  double acc = 0;
  const unsigned n0 = tap_n[0];
  const unsigned n1 = dims > 1 ? tap_n[1] : 1;
  const unsigned n2 = dims > 2 ? tap_n[2] : 1;
  for (unsigned a = 0; a < n0; ++a)
    for (unsigned b = 0; b < n1; ++b)
      for (unsigned c = 0; c < n2; ++c) {
        std::size_t idx = tap_idx[0][a] * stride[0];
        double w = tap_w[0][a];
        if (dims > 1) {
          idx += tap_idx[1][b] * stride[1];
          w *= tap_w[1][b];
        }
        if (dims > 2) {
          idx += tap_idx[2][c] * stride[2];
          w *= tap_w[2][c];
        }
        acc += w * static_cast<double>(recon[idx]);
      }
  return acc;
}

template <typename Scalar>
void put_scalar(std::vector<std::uint8_t>& out, Scalar v) {
  std::uint8_t bytes[sizeof(Scalar)];
  std::memcpy(bytes, &v, sizeof(Scalar));
  out.insert(out.end(), bytes, bytes + sizeof(Scalar));
}

/// Convert flat index to coordinates (row-major).
inline void unflatten(std::size_t idx, const Shape& shape, std::size_t* coord) {
  for (unsigned d = static_cast<unsigned>(shape.size()); d-- > 0;) {
    coord[d] = idx % shape[d];
    idx /= shape[d];
  }
}

template <typename Scalar>
void compress_impl(const ArrayView& input, const MgardOptions& opt, Buffer& out) {
  const Shape& shape = input.shape();
  const auto stride = strides_of(shape);
  const Scalar* data = input.typed<Scalar>();
  const unsigned levels = level_count(shape);
  const std::vector<std::uint8_t> lvl = node_levels(shape, levels);
  const double d_half = half_width(opt, levels);
  const double step = 2.0 * d_half;

  std::vector<std::uint32_t> codes(input.elements());
  std::vector<std::uint8_t> raw_stream;

  // Multilevel decomposition against the ORIGINAL field (as in MGARD
  // 0.0.0.2): coefficient = value - interpolation of original coarse values.
  // The decoder interpolates from reconstructions instead, so per-level
  // quantization errors telescope; the per-level half-width keeps the total
  // within the requested tolerance.
  for (unsigned l = 0; l <= levels; ++l) {
    for (std::size_t idx = 0; idx < input.elements(); ++idx) {
      if (lvl[idx] != l) continue;
      std::size_t coord[3] = {0, 0, 0};
      unflatten(idx, shape, coord);
      const double v = static_cast<double>(data[idx]);
      // Level 0 nodes have no coarser grid: predict 0 (direct quantization).
      const double pred = l == 0 ? 0.0 : interpolate(data, shape, stride, coord, l - 1, levels);
      const double qf = (v - pred) / step;
      bool escaped = true;
      if (std::abs(qf) < static_cast<double>(kRadius) - 1) {
        const std::int64_t q = std::llround(qf);
        const double candidate = pred + step * static_cast<double>(q);
        if (std::isfinite(candidate) && std::abs(candidate - v) <= d_half) {
          codes[idx] = static_cast<std::uint32_t>(kRadius + q);
          escaped = false;
        }
      }
      if (escaped) {
        codes[idx] = 0;
        put_scalar(raw_stream, data[idx]);
      }
    }
  }

  const std::vector<std::uint8_t> huff = huffman_encode(codes);
  std::vector<std::uint8_t> assembled;
  assembled.reserve(huff.size() + raw_stream.size() + 32);
  assembled.push_back(static_cast<std::uint8_t>(opt.norm));
  put_scalar(assembled, opt.tolerance);
  put_varint(assembled, levels);
  put_varint(assembled, huff.size());
  assembled.insert(assembled.end(), huff.begin(), huff.end());
  put_varint(assembled, raw_stream.size());
  assembled.insert(assembled.end(), raw_stream.begin(), raw_stream.end());

  const std::vector<std::uint8_t> packed = lz_compress(assembled);
  seal_container_into(CompressorId::kMgard, input.dtype(), input.shape(), packed, out);
}

template <typename Scalar>
NdArray decompress_impl(const Container& c) {
  const std::vector<std::uint8_t> assembled = lz_decompress(c.payload, c.payload_size);
  ByteReader in(assembled.data(), assembled.size(), "mgard");
  MgardOptions opt;
  const std::uint8_t norm_tag = in.u8();
  if (norm_tag > 1) in.fail("bad norm tag");
  opt.norm = static_cast<MgardNorm>(norm_tag);
  opt.tolerance = in.scalar<double>();
  if (!(opt.tolerance > 0) || !std::isfinite(opt.tolerance)) in.fail("bad stored tolerance");
  const auto levels = static_cast<unsigned>(in.varint());
  if (levels == 0 || levels > 20) in.fail("bad level count");

  const ByteReader code_stream = in.section();
  const std::vector<std::uint32_t> codes =
      huffman_decode(code_stream.data(), code_stream.remaining());
  ByteReader raw_stream = in.section();

  const Shape& shape = c.shape;
  const auto stride = strides_of(shape);
  // Every node's level is in [0, levels], so the level sweep writes each one.
  NdArray out = NdArray::unfilled(c.dtype, shape);
  Scalar* recon = out.typed<Scalar>();
  if (codes.size() != out.elements()) throw CorruptStream("mgard: code count mismatch");
  const std::vector<std::uint8_t> lvl = node_levels(shape, levels);
  const double step = 2.0 * half_width(opt, levels);

  for (unsigned l = 0; l <= levels; ++l) {
    for (std::size_t idx = 0; idx < out.elements(); ++idx) {
      if (lvl[idx] != l) continue;
      const std::uint32_t code = codes[idx];
      if (code == 0) {
        recon[idx] = raw_stream.scalar<Scalar>();
        continue;
      }
      std::size_t coord[3] = {0, 0, 0};
      unflatten(idx, shape, coord);
      const double pred =
          l == 0 ? 0.0 : interpolate(recon, shape, stride, coord, l - 1, levels);
      const auto q = static_cast<std::int64_t>(code) - kRadius;
      recon[idx] = static_cast<Scalar>(pred + step * static_cast<double>(q));
    }
  }
  return out;
}

void validate(const ArrayView& input, const MgardOptions& opt) {
  if (input.dims() < 2 || input.dims() > 3)
    throw Unsupported("mgard: supports only 2D and 3D data");
  require(input.elements() > 0, "mgard: empty input");
  require(opt.tolerance > 0 && std::isfinite(opt.tolerance),
          "mgard: tolerance must be positive and finite");
  for (std::size_t d : input.shape())
    require(d >= 2, "mgard: every extent must be >= 2");
}

}  // namespace

void mgard_compress_into(const ArrayView& input, const MgardOptions& options, Buffer& out) {
  validate(input, options);
  if (input.dtype() == DType::kFloat32)
    compress_impl<float>(input, options, out);
  else
    compress_impl<double>(input, options, out);
}

NdArray mgard_decompress(const std::uint8_t* data, std::size_t size) {
  const Container c = open_container(data, size, CompressorId::kMgard);
  if (c.shape.size() < 2 || c.shape.size() > 3)
    throw Unsupported("mgard: container rank unsupported");
  return c.dtype == DType::kFloat32 ? decompress_impl<float>(c) : decompress_impl<double>(c);
}

}  // namespace fraz
