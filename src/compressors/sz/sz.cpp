#include "compressors/sz/sz.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "codec/lz.hpp"
#include "codec/rans.hpp"
#include "codec/varint.hpp"
#include "compressors/container.hpp"
#include "compressors/sz/sz_blocked.hpp"
#include "compressors/sz/sz_internal.hpp"
#include "compressors/sz/sz_kernels.hpp"
#include "util/error.hpp"

namespace fraz {

namespace {

using szi::BlockGeom;
using szi::CoeffSteps;
using szi::kRadius;
using szi::NormBlock;
using szi::put_scalar;

/// Block edge per rank (SZ uses 6^3 blocks for 3D data).
constexpr std::size_t block_edge(unsigned dims) noexcept {
  return dims == 3 ? 6 : dims == 2 ? 12 : 256;
}

CoeffSteps coeff_steps(double error_bound, unsigned dims) noexcept {
  return szi::coeff_steps(error_bound, static_cast<double>(block_edge(dims)));
}

/// Visit blocks of the array in row-major block order (v1 block size).
template <typename Fn>
void for_each_block(const Shape& shape, unsigned dims, Fn&& fn) {
  szi::for_each_block(shape, dims, block_edge(dims), std::forward<Fn>(fn));
}

std::size_t count_blocks(const Shape& shape, unsigned dims) {
  return szi::count_blocks(shape, dims, block_edge(dims));
}

/// SZ's 1-layer Lorenzo stencil in the v1 format's fixed term order (see
/// szi::Stencil for the names).  With s(di, dj, dk) the sample di planes,
/// dj rows and dk columns back:
///   3D  s(0,0,1) + s(0,1,0) + s(1,0,0) - s(0,1,1) - s(1,0,1) - s(1,1,0) + s(1,1,1)
///   2D  s(1,0) + s(0,1) - s(1,1)
///   1D  s(1)
/// A reassociated sum, such as the blocked pipeline's lorenzo7, changes v1
/// bytes.
template <unsigned D>
double lorenzo(double l, double n, double u, double nl, double ul, double un, double unl) {
  if constexpr (D == 3) return l + n + u - nl - ul - un + unl;
  if constexpr (D == 2) return n + l - nl;
  return l;
}

/// Walk row (p, r) of block \p g with the v1 stencil.  \p row is that row
/// inside the array the prediction reads: original values for the mode
/// decision, the reconstruction for quantize and decode.  Neighbours outside
/// the array are 0.0 (SZ's convention); inside it they may lie in earlier
/// blocks.  step is as for szi::lorenzo_walk.
template <unsigned D, typename Scalar, typename Step>
void lorenzo_row(const Scalar* row, const BlockGeom& g, const NormBlock& nb, std::size_t p,
                 std::size_t r, Step&& step) {
  const Scalar* zeros = szi::zero_row<Scalar>();
  bool has_north = false, has_up = false;
  if constexpr (D >= 2) has_north = g.base[D - 2] + r > 0;
  if constexpr (D == 3) has_up = g.base[0] + p > 0;
  szi::LorenzoRows<Scalar> rows{
      has_north ? row - nb.row_stride : zeros, has_up ? row - nb.plane_stride : zeros,
      has_north && has_up ? row - nb.row_stride - nb.plane_stride : zeros};
  if (g.base[D - 1] > 0) {
    rows.l = static_cast<double>(row[-1]);
    if (has_north) rows.nl = static_cast<double>(rows.north[-1]);
    if (has_up) rows.ul = static_cast<double>(rows.up[-1]);
    if (has_north && has_up) rows.unl = static_cast<double>(rows.upnorth[-1]);
  }
  szi::lorenzo_walk<lorenzo<D>>(rows, nb.inner, std::forward<Step>(step));
}

/// Separable least-squares fit of v ~ b0 + b1*x0 + b2*x1 + b3*x2 over the
/// block, local coordinates slowest first (3D: plane, row, column; 2D: row,
/// column, with b3 = 0).  The value sums run point by point in row-major
/// order, the order the v1 bytes are pinned with.  Each coordinate's sum of
/// squared deviations is n (len^2 - 1) / 12, a multiple of 1/4 that double
/// holds exactly, so the closed form equals the point-by-point sum.
template <unsigned D, typename Scalar>
std::array<double, 4> fit_regression(const Scalar* data, const NormBlock& nb) {
  const std::size_t len[3] = {D == 3 ? nb.planes : nb.rows, D == 3 ? nb.rows : nb.inner,
                              D == 3 ? nb.inner : 1};
  double mean_c[3];
  for (unsigned d = 0; d < 3; ++d) mean_c[d] = (static_cast<double>(len[d]) - 1.0) / 2.0;
  const auto n = static_cast<double>(len[0] * len[1] * len[2]);

  double mean_v = 0;
  for (std::size_t p = 0; p < nb.planes; ++p)
    for (std::size_t r = 0; r < nb.rows; ++r) {
      const Scalar* row = data + nb.row_index(p, r);
      for (std::size_t c = 0; c < nb.inner; ++c) mean_v += static_cast<double>(row[c]);
    }
  mean_v /= n;

  double num[3] = {0, 0, 0};
  for (std::size_t p = 0; p < nb.planes; ++p)
    for (std::size_t r = 0; r < nb.rows; ++r) {
      const Scalar* row = data + nb.row_index(p, r);
      const double d0 = static_cast<double>(D == 3 ? p : r) - mean_c[0];
      const double d1 = static_cast<double>(r) - mean_c[1];  // 3D: the row coordinate
      for (std::size_t c = 0; c < nb.inner; ++c) {
        const double dv = static_cast<double>(row[c]) - mean_v;
        num[0] += dv * d0;
        if constexpr (D == 3) num[1] += dv * d1;
        num[D - 1] += dv * (static_cast<double>(c) - mean_c[D - 1]);
      }
    }
  std::array<double, 4> coeff{};
  for (unsigned d = 0; d < 3; ++d) {
    const double l = static_cast<double>(len[d]);
    const double den = n * (l * l - 1.0) / 12.0;
    coeff[d + 1] = den > 0 ? num[d] / den : 0.0;
  }
  coeff[0] = mean_v - coeff[1] * mean_c[0] - coeff[2] * mean_c[1] - coeff[3] * mean_c[2];
  return coeff;
}

/// Encoder-side mode decision for one block (2D/3D): fit, quantize the
/// coefficients into \p q / \p coeff (both sides predict from the rounded
/// values), and compare per-point absolute residuals of both predictors on
/// the original values.
template <unsigned D, typename Scalar>
bool decide_regression(const Scalar* data, const BlockGeom& g, const NormBlock& nb, double e,
                       const CoeffSteps& steps, std::array<double, 4>& coeff,
                       std::array<std::int64_t, 4>& q) {
  if (!szi::quantize_coeffs(fit_regression<D>(data, nb), steps, coeff, q)) return false;
  // The Lorenzo proxy uses original values, which hides the quantization
  // noise the real predictor inherits from reconstructed neighbours (a
  // 7-term 3D stencil feeds back ~1.5e of noise per point), so a
  // bound-proportional penalty is added — the same correction SZ 2.x applies
  // when arbitrating Lorenzo vs regression.  Expected |noise| scales with the
  // stencil size: ~7 reconstructed neighbours in 3D, 3 in 2D.
  const double lorenzo_noise = e * (D == 3 ? 1.5 : 0.6);
  double cost_lorenzo = 0, cost_reg = 0;
  for (std::size_t p = 0; p < nb.planes; ++p)
    for (std::size_t r = 0; r < nb.rows; ++r) {
      const Scalar* drow = data + nb.row_index(p, r);
      const szi::RowPlane plane = szi::regression_row(coeff, D, p, r);
      lorenzo_row<D>(drow, g, nb, p, r, [&](std::size_t c, double pred) {
        const double v = static_cast<double>(drow[c]);
        cost_lorenzo += std::abs(v - pred) + lorenzo_noise;
        cost_reg += std::abs(v - (plane.base + plane.step * static_cast<double>(c)));
        return v;
      });
    }
  return cost_reg < cost_lorenzo;
}

template <typename Scalar, unsigned D>
void compress_impl(const ArrayView& input, const SzOptions& opt, Buffer& out) {
  const Shape& shape = input.shape();
  const auto stride = szi::strides_of(shape);
  const Scalar* data = input.typed<Scalar>();
  const double e = opt.error_bound;
  const double twoe = 2.0 * e;
  const CoeffSteps steps = coeff_steps(e, D);
  const bool vec = szk::simd_active();

  std::vector<Scalar> recon(input.elements());
  // Every element emits exactly one code (escapes emit code 0).
  std::vector<std::uint32_t> codes(input.elements());
  std::uint32_t* cp = codes.data();
  std::vector<std::uint8_t> flags((count_blocks(shape, D) + 7) / 8, 0);
  std::vector<std::uint8_t> coeff_stream;
  std::vector<std::uint8_t> raw_stream;
  std::size_t block_index = 0;

  for_each_block(shape, D, [&](const BlockGeom& g) {
    const NormBlock nb = szi::normalize_block(g, D, stride);
    // ---- mode decision (encoder-side heuristic on original values) ----
    bool use_regression = false;
    std::array<double, 4> coeff{};
    if constexpr (D >= 2) {
      std::array<std::int64_t, 4> q{};
      use_regression = opt.regression && decide_regression<D>(data, g, nb, e, steps, coeff, q);
      if (use_regression)
        for (const std::int64_t v : q) put_varint(coeff_stream, zigzag_encode(v));
    }
    if (use_regression) flags[block_index / 8] |= std::uint8_t(1u << (block_index % 8));
    ++block_index;

    // ---- residual quantization over the block ----
    if (use_regression) {
      // Regression prediction has no serial dependence, so each row goes
      // through the (possibly vectorized) kernel.
      szi::quantize_regression_block(data, recon.data(), nb, coeff, D, twoe, e, vec, cp,
                                     raw_stream);
      return;
    }
    for (std::size_t p = 0; p < nb.planes; ++p)
      for (std::size_t r = 0; r < nb.rows; ++r) {
        const std::size_t idx0 = nb.row_index(p, r);
        const Scalar* drow = data + idx0;
        Scalar* rrow = recon.data() + idx0;
        lorenzo_row<D>(rrow, g, nb, p, r, [&](std::size_t c, double pred) {
          const double v = static_cast<double>(drow[c]);
          const double qf = (v - pred) / twoe;
          if (std::abs(qf) < szk::kQfLimit) {
            // Round half away from zero: llround(qf) on this range, see
            // sz_kernels.hpp.
            const double tr = std::trunc(qf);
            const double rq = tr + std::trunc((qf - tr) * 2.0);
            const Scalar candidate = static_cast<Scalar>(pred + twoe * rq);
            // Validate after Scalar rounding so the bound holds exactly.
            if (std::isfinite(static_cast<double>(candidate)) &&
                std::abs(static_cast<double>(candidate) - v) <= e) {
              *cp++ = static_cast<std::uint32_t>(kRadius + static_cast<std::int64_t>(rq));
              rrow[c] = candidate;
              return static_cast<double>(candidate);
            }
          }
          *cp++ = 0;
          put_scalar(raw_stream, drow[c]);
          rrow[c] = drow[c];
          return v;
        });
      }
  });

  // ---- stage 3: entropy coding of the quantization codes ----
  // rANS rather than plain Huffman: SZ 2.1.7's Zstd stage brings the coded
  // stream to its order-0 entropy, which Huffman's 1-bit/symbol floor cannot
  // reach on the nearly-constant code streams of extreme ratios (Fig. 9/10).
  const std::vector<std::uint8_t> huff = rans_encode(codes);
  std::vector<std::uint8_t> assembled;
  assembled.reserve(huff.size() + coeff_stream.size() + raw_stream.size() + 64);
  put_scalar(assembled, e);
  assembled.push_back(opt.regression ? 1 : 0);
  put_varint(assembled, flags.size());
  assembled.insert(assembled.end(), flags.begin(), flags.end());
  put_varint(assembled, coeff_stream.size());
  assembled.insert(assembled.end(), coeff_stream.begin(), coeff_stream.end());
  put_varint(assembled, huff.size());
  assembled.insert(assembled.end(), huff.begin(), huff.end());
  put_varint(assembled, raw_stream.size());
  assembled.insert(assembled.end(), raw_stream.begin(), raw_stream.end());

  // ---- stage 4: dictionary coder over everything ----
  const std::vector<std::uint8_t> packed = lz_compress(assembled);
  seal_container_into(CompressorId::kSz, input.dtype(), input.shape(), packed, out);
}

template <typename Scalar, unsigned D>
NdArray decompress_impl(const Container& c) {
  const std::vector<std::uint8_t> assembled = lz_decompress(c.payload, c.payload_size);
  ByteReader in(assembled.data(), assembled.size(), "sz");
  const double e = in.scalar<double>();
  if (!(e > 0) || !std::isfinite(e)) in.fail("bad stored error bound");
  in.u8();  // regression enable flag (informational)
  const double twoe = 2.0 * e;

  const std::uint64_t flag_bytes = in.varint();
  if (flag_bytes != (count_blocks(c.shape, D) + 7) / 8) in.fail("flag size mismatch");
  const std::uint8_t* flags = in.take(flag_bytes);
  ByteReader coeff_stream = in.section();
  const ByteReader code_stream = in.section();
  const std::vector<std::uint32_t> codes =
      rans_decode(code_stream.data(), code_stream.remaining(), shape_elements(c.shape));
  ByteReader raw_stream = in.section();

  const auto stride = szi::strides_of(c.shape);
  const CoeffSteps steps = coeff_steps(e, D);
  // The block walk below writes every element once.
  NdArray out = NdArray::unfilled(c.dtype, c.shape);
  Scalar* recon = out.typed<Scalar>();
  szi::check_codes(codes);

  const bool vec = szk::simd_active();
  const std::uint32_t* cp = codes.data();
  std::size_t block_index = 0;
  for_each_block(c.shape, D, [&](const BlockGeom& g) {
    const NormBlock nb = szi::normalize_block(g, D, stride);
    const bool use_regression = (flags[block_index / 8] >> (block_index % 8)) & 1u;
    ++block_index;
    const std::array<double, 4> coeff =
        use_regression ? szi::read_coeffs(coeff_stream, steps)
                       : std::array<double, 4>{};
    if (use_regression && D >= 2) {
      szi::reconstruct_regression_block(cp, nb, coeff, D, twoe, vec, recon, raw_stream);
      return;
    }
    for (std::size_t pl = 0; pl < nb.planes; ++pl)
      for (std::size_t r = 0; r < nb.rows; ++r) {
        Scalar* rrow = recon + nb.row_index(pl, r);
        lorenzo_row<D>(rrow, g, nb, pl, r, [&](std::size_t col, double pred) {
          // 1D regression flags are never produced by the encoder, but a
          // hostile stream may carry them: they predict point by point.
          if (D == 1 && use_regression)
            pred = coeff[0] + coeff[1] * static_cast<double>(col) + coeff[2] * 0.0 +
                   coeff[3] * 0.0;
          const std::uint32_t code = *cp++;
          const Scalar v =
              code == 0 ? raw_stream.scalar<Scalar>()
                        : static_cast<Scalar>(
                              pred + twoe * static_cast<double>(
                                                static_cast<std::int64_t>(code) - kRadius));
          rrow[col] = v;
          return static_cast<double>(v);
        });
      }
  });
  return out;
}

void validate(const ArrayView& input, const SzOptions& opt) {
  require(input.dims() >= 1 && input.dims() <= 3, "sz: supports 1D/2D/3D data");
  require(input.elements() > 0, "sz: empty input");
  require(opt.error_bound > 0 && std::isfinite(opt.error_bound),
          "sz: error bound must be positive and finite");
}

}  // namespace

void sz_compress_into(const ArrayView& input, const SzOptions& options, Buffer& out) {
  validate(input, options);
  if (options.mode == SzMode::kBlocked) {
    sz_blocked_compress_into(input, options, out);
    return;
  }
  using Encoder = void (*)(const ArrayView&, const SzOptions&, Buffer&);
  static constexpr Encoder encoders[2][3] = {
      {compress_impl<float, 1>, compress_impl<float, 2>, compress_impl<float, 3>},
      {compress_impl<double, 1>, compress_impl<double, 2>, compress_impl<double, 3>}};
  encoders[input.dtype() == DType::kFloat32 ? 0 : 1][input.dims() - 1](input, options, out);
}

NdArray sz_decompress(const std::uint8_t* data, std::size_t size, unsigned threads) {
  const Container c = open_container(data, size, CompressorId::kSz);
  require(c.shape.size() >= 1 && c.shape.size() <= 3, "sz: container rank unsupported");
  // The frame version, not the configured mode, selects the decoder: any sz
  // instance decodes both formats, so mixed archives always read back.
  if (c.version == 2) return sz_blocked_decompress(c, threads);
  using Decoder = NdArray (*)(const Container&);
  static constexpr Decoder decoders[2][3] = {
      {decompress_impl<float, 1>, decompress_impl<float, 2>, decompress_impl<float, 3>},
      {decompress_impl<double, 1>, decompress_impl<double, 2>, decompress_impl<double, 3>}};
  return decoders[c.dtype == DType::kFloat32 ? 0 : 1][c.shape.size() - 1](c);
}

}  // namespace fraz
