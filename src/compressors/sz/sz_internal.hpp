#ifndef FRAZ_COMPRESSORS_SZ_SZ_INTERNAL_HPP
#define FRAZ_COMPRESSORS_SZ_SZ_INTERNAL_HPP

/// \file sz_internal.hpp
/// Helpers shared by the serial (v1) and blocked (v2) sz pipelines: block
/// geometry (BlockGeom, the row view NormBlock, the zero row) and the
/// Lorenzo row walk both block loops use, the regression row decomposition
/// and run wrappers, coefficient and raw-scalar wire helpers.  The
/// regression fits are not shared: the serial one (sz.cpp) sums every point
/// in a fixed order, the blocked one samples.  Nor are the Lorenzo term
/// orders, which are part of each format.  The serial pipeline's bytes are
/// pinned by golden CRCs, so behaviour here must not drift.  Internal to the
/// sz backend; not part of any public API.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "codec/varint.hpp"
#include "compressors/sz/sz_kernels.hpp"
#include "ndarray/ndarray.hpp"
#include "util/error.hpp"

namespace fraz {
namespace szi {

using szk::kRadius;

/// Regression slope/intercept quantization steps, derived from the error
/// bound so coefficient rounding shifts predictions by at most ~e/2.  The
/// bound itself is unaffected (encoder and decoder predict from the same
/// quantized coefficients); this only preserves prediction quality.
struct CoeffSteps {
  double intercept;
  double slope;
};

/// \p span is the block edge of the calling pipeline (the v1 and v2 formats
/// use different block sizes, so their steps differ by construction).
inline CoeffSteps coeff_steps(double error_bound, double span) noexcept {
  return {error_bound / 8.0, error_bound / (8.0 * span)};
}

/// Row-major strides for a shape (slowest dimension first).
inline std::array<std::size_t, 3> strides_of(const Shape& shape) {
  std::array<std::size_t, 3> s{0, 0, 0};
  const std::size_t d = shape.size();
  s[d - 1] = 1;
  for (std::size_t i = d - 1; i-- > 0;) s[i] = s[i + 1] * shape[i + 1];
  return s;
}

/// The shared per-block geometry: origin and extent of the clipped block.
struct BlockGeom {
  std::size_t base[3];
  std::size_t len[3];  // extent per (used) axis; 1 for unused axes
};

/// The regression plane c0 + c1*x0 + c2*x1 + c3*x2 (local coordinates,
/// slowest first, summed left to right) along row (p, r) of a normalized
/// block (see NormBlock), as pred(c) = base + step * c with base
/// ((c0 + c1*p) + c2*r) in 3D and (c0 + c1*r) in 2D.  The 2D form drops the
/// trailing + c3*0, an exact no-op because quantized coefficients are never
/// -0.0 (see sz_kernels.hpp).  Encoder and decoder must use this identical
/// decomposition so predictions agree exactly.
struct RowPlane {
  double base;
  double step;
};

inline RowPlane regression_row(const std::array<double, 4>& coeff, unsigned dims,
                               std::size_t p, std::size_t r) {
  if (dims == 3)
    return {(coeff[0] + coeff[1] * static_cast<double>(p)) + coeff[2] * static_cast<double>(r),
            coeff[3]};
  return {coeff[0] + coeff[1] * static_cast<double>(r), coeff[2]};
}

/// Normalized block view: every block is (planes, rows, inner) with the
/// inner axis contiguous (stride 1).  1D and 2D blocks degenerate to
/// planes == 1 (and rows == 1 for 1D).
struct NormBlock {
  std::size_t planes, rows, inner;
  std::size_t base_idx;       // flat index of the block origin
  std::size_t plane_stride;   // global stride between p and p+1 (0 when planes==1)
  std::size_t row_stride;     // global stride between r and r+1 (0 when rows==1)

  /// Flat index of row (p, r) of the block.
  std::size_t row_index(std::size_t p, std::size_t r) const noexcept {
    return base_idx + p * plane_stride + r * row_stride;
  }
};

inline NormBlock normalize_block(const BlockGeom& g, unsigned dims,
                                 const std::array<std::size_t, 3>& stride) {
  NormBlock nb{};
  nb.planes = dims == 3 ? g.len[0] : 1;
  nb.rows = dims == 3 ? g.len[1] : dims == 2 ? g.len[0] : 1;
  nb.inner = g.len[dims - 1];
  for (unsigned d = 0; d < dims; ++d) nb.base_idx += g.base[d] * stride[d];
  nb.plane_stride = dims == 3 ? stride[0] : 0;
  nb.row_stride = dims == 3 ? stride[1] : dims == 2 ? stride[0] : 0;
  return nb;
}

/// Zero row standing in for absent neighbour rows, sized for the largest
/// inner edge of either pipeline (1D blocks); .bss, shared, read-only.
template <typename Scalar>
const Scalar* zero_row() {
  static const Scalar zeros[1024] = {};
  return zeros;
}

/// A Lorenzo stencil over one row: l is the row's own previous sample; n, u
/// and un the north (one row back), up (one plane back) and up-north samples
/// in the same column; nl, ul and unl theirs one column back.  Each pipeline
/// fixes its own term order, which is part of its format.
using Stencil = double (*)(double l, double n, double u, double nl, double ul, double un,
                           double unl);

/// One row's Lorenzo neighbours: the north, up and up-north rows (the zero
/// row where the pipeline treats one as absent) and the samples one column
/// before the row's first (0.0 where absent).
template <typename Scalar>
struct LorenzoRows {
  const Scalar* north;
  const Scalar* up;
  const Scalar* upnorth;
  double l = 0.0, nl = 0.0, ul = 0.0, unl = 0.0;
};

/// Walk n columns of a row: step(c, pred) gets Predict's prediction for
/// column c and returns the value the row then holds there, carried as the
/// next column's l (like the neighbour samples, each loaded once).
template <Stencil Predict, typename Scalar, typename Step>
void lorenzo_walk(LorenzoRows<Scalar> rows, std::size_t n, Step&& step) {
  for (std::size_t c = 0; c < n; ++c) {
    const double north = static_cast<double>(rows.north[c]);
    const double up = static_cast<double>(rows.up[c]);
    const double upnorth = static_cast<double>(rows.upnorth[c]);
    rows.l = step(c, Predict(rows.l, north, up, rows.nl, rows.ul, upnorth, rows.unl));
    rows.nl = north;
    rows.ul = up;
    rows.unl = upnorth;
  }
}

/// Quantize fitted regression coefficients to multiples of their steps:
/// \p q gets the integers the stream carries, \p coeff the values both sides
/// predict from.  False when one is too large to stay exact in double (and
/// varint-friendly); the block then uses Lorenzo.
inline bool quantize_coeffs(const std::array<double, 4>& fitted, const CoeffSteps& steps,
                            std::array<double, 4>& coeff, std::array<std::int64_t, 4>& q) {
  for (unsigned i = 0; i < 4; ++i) {
    const double step = i == 0 ? steps.intercept : steps.slope;
    const double scaled = fitted[i] / step;
    if (!(std::abs(scaled) < 4.5e15)) return false;
    q[i] = static_cast<std::int64_t>(std::llround(scaled));
    coeff[i] = static_cast<double>(q[i]) * step;
  }
  return true;
}

/// Read one regression block's coefficients: four zigzag varints of q.
inline std::array<double, 4> read_coeffs(ByteReader& in, const CoeffSteps& steps) {
  std::array<double, 4> coeff{};
  for (unsigned i = 0; i < 4; ++i)
    coeff[i] = static_cast<double>(zigzag_decode(in.varint())) *
               (i == 0 ? steps.intercept : steps.slope);
  return coeff;
}

/// Append an IEEE scalar verbatim (host byte order; ByteReader::scalar
/// reads it back).
template <typename Scalar>
void put_scalar(std::vector<std::uint8_t>& out, Scalar v) {
  std::uint8_t bytes[sizeof(Scalar)];
  std::memcpy(bytes, &v, sizeof(Scalar));
  out.insert(out.end(), bytes, bytes + sizeof(Scalar));
}

/// The encoder only emits codes in [0, 2R-1]; rejecting anything larger up
/// front both hardens decode and lets the reconstruct kernel assume its
/// int32 lanes are non-negative.  Max-reduction instead of branch-per-code
/// so the sweep vectorizes.
inline void check_codes(const std::vector<std::uint32_t>& codes) {
  std::uint32_t max_code = 0;
  for (const std::uint32_t code : codes) max_code = std::max(max_code, code);
  if (max_code > 2 * static_cast<std::uint32_t>(kRadius) - 1)
    throw CorruptStream("sz: quantization code out of range");
}

/// Quantize a regression block row by row through the run kernel (rows
/// of at most 32), the vector one when \p vec.  \p data and \p recon are
/// the whole arrays; codes advances past the block's codes, and escaped
/// originals are appended to \p raws in index order.
template <typename Scalar>
void quantize_regression_block(const Scalar* data, Scalar* recon, const NormBlock& nb,
                               const std::array<double, 4>& coeff, unsigned dims, double twoe,
                               double e, bool vec, std::uint32_t*& codes,
                               std::vector<std::uint8_t>& raws) {
  for (std::size_t p = 0; p < nb.planes; ++p)
    for (std::size_t r = 0; r < nb.rows; ++r) {
      const std::size_t idx0 = nb.row_index(p, r);
      const RowPlane pl = regression_row(coeff, dims, p, r);
      const std::uint32_t esc =
          vec ? szk::quantize_run_vec(data + idx0, nb.inner, pl.base, pl.step, twoe, e, codes,
                                      recon + idx0)
              : szk::quantize_run_scalar(data + idx0, nb.inner, pl.base, pl.step, twoe, e,
                                         codes, recon + idx0);
      codes += nb.inner;
      for (std::uint32_t m = esc; m != 0; m &= m - 1)
        put_scalar(raws, data[idx0 + static_cast<unsigned>(__builtin_ctz(m))]);
    }
}

/// Reconstruct a regression block row by row (the mirror of
/// quantize_regression_block), patching escapes from the raw stream in
/// index order.
template <typename Scalar>
void reconstruct_regression_block(const std::uint32_t*& codes, const NormBlock& nb,
                                  const std::array<double, 4>& coeff, unsigned dims,
                                  double twoe, bool vec, Scalar* recon, ByteReader& raws) {
  for (std::size_t p = 0; p < nb.planes; ++p)
    for (std::size_t r = 0; r < nb.rows; ++r) {
      Scalar* row = recon + nb.row_index(p, r);
      const RowPlane pl = regression_row(coeff, dims, p, r);
      const std::uint32_t esc =
          vec ? szk::reconstruct_run_vec(codes, nb.inner, pl.base, pl.step, twoe, row)
              : szk::reconstruct_run_scalar(codes, nb.inner, pl.base, pl.step, twoe, row);
      codes += nb.inner;
      for (std::uint32_t m = esc; m != 0; m &= m - 1)
        row[static_cast<unsigned>(__builtin_ctz(m))] = raws.scalar<Scalar>();
    }
}

/// Visit blocks of edge \p edge in row-major block order.
template <typename Fn>
void for_each_block(const Shape& shape, unsigned dims, std::size_t edge, Fn&& fn) {
  std::size_t counts[3] = {1, 1, 1};
  for (unsigned d = 0; d < dims; ++d) counts[d] = (shape[d] + edge - 1) / edge;
  for (std::size_t b0 = 0; b0 < counts[0]; ++b0)
    for (std::size_t b1 = 0; b1 < counts[1]; ++b1)
      for (std::size_t b2 = 0; b2 < counts[2]; ++b2) {
        BlockGeom g{};
        const std::size_t bases[3] = {b0 * edge, b1 * edge, b2 * edge};
        for (unsigned d = 0; d < 3; ++d) {
          g.base[d] = d < dims ? bases[d] : 0;
          g.len[d] = d < dims ? std::min(edge, shape[d] - bases[d]) : 1;
        }
        fn(g);
      }
}

inline std::size_t count_blocks(const Shape& shape, unsigned dims, std::size_t edge) {
  std::size_t total = 1;
  for (unsigned d = 0; d < dims; ++d) total *= (shape[d] + edge - 1) / edge;
  return total;
}

}  // namespace szi
}  // namespace fraz

#endif  // FRAZ_COMPRESSORS_SZ_SZ_INTERNAL_HPP
