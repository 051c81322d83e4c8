#include "compressors/sz/sz_blocked.hpp"

#include <array>
#include <cmath>
#include <cstring>

#include "codec/rans_interleaved.hpp"
#include "codec/varint.hpp"
#include "compressors/sz/sz_internal.hpp"
#include "compressors/sz/sz_kernels.hpp"
#include "opt/thread_pool.hpp"
#include "util/error.hpp"

namespace fraz {

namespace {

using szi::BlockGeom;
using szi::CoeffSteps;
using szi::kRadius;
using szi::NormBlock;
using szi::normalize_block;
using szi::zero_row;

/// A run of consecutive row-major blocks coded as one independent unit.
struct Group {
  std::size_t first_block;
  std::size_t block_count;
  std::size_t elems;
};

std::vector<BlockGeom> collect_blocks(const Shape& shape, unsigned dims) {
  std::vector<BlockGeom> blocks;
  blocks.reserve(szi::count_blocks(shape, dims, szb::blocked_edge(dims)));
  szi::for_each_block(shape, dims, szb::blocked_edge(dims),
                      [&](const BlockGeom& g) { blocks.push_back(g); });
  return blocks;
}

/// Greedy grouping: close a group once it reaches the element target.  A
/// pure function of the block list (hence of the shape), which is what makes
/// the payload thread-count independent.
std::vector<Group> build_groups(const std::vector<BlockGeom>& blocks) {
  std::vector<Group> groups;
  Group cur{0, 0, 0};
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    cur.block_count += 1;
    cur.elems += blocks[i].len[0] * blocks[i].len[1] * blocks[i].len[2];
    if (cur.elems >= szb::kGroupTargetElems) {
      groups.push_back(cur);
      cur = {i + 1, 0, 0};
    }
  }
  if (cur.block_count != 0) groups.push_back(cur);
  return groups;
}

/// The 7-term Lorenzo stencil over block-local reconstructed neighbours, in
/// one fixed evaluation order (names as for szi::Stencil).  Encoder and
/// decoder call this identical expression so predictions agree bit-for-bit;
/// out-of-block samples arrive as literal 0.0 (the zero row and zero
/// carries of block_rows), which also collapses the stencil to its 3-term
/// (2D) and 1-term (1D) forms.
double lorenzo7(double l, double n, double u, double nl, double ul, double un, double unl) {
  return u + n + l - nl - ul - un + unl;
}

/// Block-local neighbours of row (p, r) in the array at \p row: nothing
/// outside the block is read.
template <typename Scalar>
szi::LorenzoRows<Scalar> block_rows(const Scalar* row, const NormBlock& nb, std::size_t p,
                                    std::size_t r) {
  const Scalar* zeros = zero_row<Scalar>();
  return {r > 0 ? row - nb.row_stride : zeros, p > 0 ? row - nb.plane_stride : zeros,
          p > 0 && r > 0 ? row - nb.plane_stride - nb.row_stride : zeros};
}

// ---------------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------------

/// Block-local Lorenzo encode: quantize the block against its own
/// reconstruction, reading nothing outside it.  recon rows live in the
/// caller's field-sized buffer (groups touch disjoint blocks, so parallel
/// encoders never alias).
template <typename Scalar>
void encode_lorenzo_block(const Scalar* data, Scalar* recon, const NormBlock& nb, double e,
                          double twoe, std::uint32_t*& codes_out,
                          std::vector<std::uint8_t>& raws) {
  // Quantization is encoder-internal: the decoder only ever sees the emitted
  // code, so the reciprocal multiply and nearbyint (round-to-even, one
  // roundsd on the loop-carried chain instead of an int64 round trip) are
  // free to differ from llround in the last ulp — any q whose reconstruction
  // passes the bound check is a valid encoding.  What MUST mirror the decoder
  // exactly is the prediction + reconstruction arithmetic.
  const double inv_twoe = 1.0 / twoe;
  std::uint32_t* cp = codes_out;
  for (std::size_t p = 0; p < nb.planes; ++p)
    for (std::size_t r = 0; r < nb.rows; ++r) {
      const std::size_t row_idx = nb.row_index(p, r);
      const Scalar* drow = data + row_idx;
      Scalar* rrow = recon + row_idx;
      szi::lorenzo_walk<lorenzo7>(block_rows<Scalar>(rrow, nb, p, r), nb.inner,
                                  [&](std::size_t c, double pred) {
        const double v = static_cast<double>(drow[c]);
        const double qf = (v - pred) * inv_twoe;
        if (std::abs(qf) < static_cast<double>(kRadius) - 1) {
          const double qd = std::nearbyint(qf);
          const Scalar candidate = static_cast<Scalar>(pred + twoe * qd);
          // Validate after Scalar rounding so the bound holds exactly.
          if (std::isfinite(static_cast<double>(candidate)) &&
              std::abs(static_cast<double>(candidate) - v) <= e) {
            *cp++ = static_cast<std::uint32_t>(kRadius + static_cast<std::int64_t>(qd));
            rrow[c] = candidate;
            return static_cast<double>(candidate);
          }
        }
        *cp++ = 0;
        szi::put_scalar(raws, drow[c]);
        rrow[c] = drow[c];
        return v;
      });
    }
  codes_out = cp;
}

/// Sampled separable least-squares fit over the normalized block: one pass
/// over every other plane/row (all of the contiguous inner axis, which keeps
/// the accumulation vectorizable), coordinate moments computed in O(edge).
/// The v1 pipeline's full fit is pinned by golden CRCs, while the v2 format
/// treats the fit as an encoder-internal choice (any coefficients that win
/// the cost comparison below are valid), so the cheaper fit is format-legal.
template <typename Scalar>
std::array<double, 4> fit_regression_sampled(const Scalar* data, const NormBlock& nb,
                                             unsigned dims) {
  const std::size_t pstep = nb.planes > 1 ? 2 : 1;
  const std::size_t rstep = nb.rows > 1 ? 2 : 1;
  double sum_v = 0, sum_vp = 0, sum_vr = 0, sum_vc = 0;
  for (std::size_t p = 0; p < nb.planes; p += pstep)
    for (std::size_t r = 0; r < nb.rows; r += rstep) {
      const Scalar* drow = data + nb.row_index(p, r);
      double s = 0, sc = 0;
      for (std::size_t c = 0; c < nb.inner; ++c) {
        const double v = static_cast<double>(drow[c]);
        s += v;
        sc += v * static_cast<double>(c);
      }
      sum_v += s;
      sum_vp += static_cast<double>(p) * s;
      sum_vr += static_cast<double>(r) * s;
      sum_vc += sc;
    }
  // Per-axis coordinate moments of the sampled grid: count, mean, and the
  // centred second moment sum((x - mean)^2).
  const auto axis_moments = [](std::size_t len, std::size_t step, double& k, double& mean,
                               double& var_sum) {
    double sum = 0, sum2 = 0;
    k = 0;
    for (std::size_t x = 0; x < len; x += step) {
      k += 1;
      sum += static_cast<double>(x);
      sum2 += static_cast<double>(x) * static_cast<double>(x);
    }
    mean = sum / k;
    var_sum = sum2 - k * mean * mean;
  };
  double kp, mp, vp, kr, mr, vr, kc, mc, vc;
  axis_moments(nb.planes, pstep, kp, mp, vp);
  axis_moments(nb.rows, rstep, kr, mr, vr);
  axis_moments(nb.inner, 1, kc, mc, vc);
  const double mean_v = sum_v / (kp * kr * kc);
  const double slope_p = vp > 0 ? (sum_vp - mp * sum_v) / (kr * kc * vp) : 0.0;
  const double slope_r = vr > 0 ? (sum_vr - mr * sum_v) / (kp * kc * vr) : 0.0;
  const double slope_c = vc > 0 ? (sum_vc - mc * sum_v) / (kp * kr * vc) : 0.0;
  std::array<double, 4> coeff{};
  if (dims == 3) {
    coeff[1] = slope_p;
    coeff[2] = slope_r;
    coeff[3] = slope_c;
    coeff[0] = mean_v - slope_p * mp - slope_r * mr - slope_c * mc;
  } else {
    coeff[1] = slope_r;
    coeff[2] = slope_c;
    coeff[0] = mean_v - slope_r * mr - slope_c * mc;
  }
  return coeff;
}

/// Encoder-side mode decision for one block: fit, quantize coefficients, and
/// compare per-point absolute residuals of both predictors.  The Lorenzo
/// proxy runs on original values block-locally (matching what the real
/// predictor will see, minus reconstruction noise), so the same
/// bound-proportional penalty as the v1 pipeline is added.
template <typename Scalar>
bool decide_regression(const Scalar* data, const NormBlock& nb, unsigned dims, double e,
                       const CoeffSteps& steps, std::array<double, 4>& coeff,
                       std::array<std::int64_t, 4>& q) {
  if (!szi::quantize_coeffs(fit_regression_sampled(data, nb, dims), steps, coeff, q))
    return false;

  const double lorenzo_noise = e * (dims == 3 ? 1.5 : 0.6);
  double cost_lorenzo = 0, cost_reg = 0;
  // Stride-2 row/plane sampling: the decision only ranks the two predictors,
  // and the subset sees the same smoothness the full block does.  Encoder
  // internal (the payload stays a pure function of shape + data), and
  // deterministic, so tuned bounds are unaffected.
  const std::size_t pstep = nb.planes > 1 ? 2 : 1;
  const std::size_t rstep = nb.rows > 1 ? 2 : 1;
  std::size_t sampled = 0;
  for (std::size_t p = 0; p < nb.planes; p += pstep)
    for (std::size_t r = 0; r < nb.rows; r += rstep) {
      const Scalar* drow = data + nb.row_index(p, r);
      // Regression prediction along the row, the decomposition the quantize
      // kernel uses.
      const szi::RowPlane plane = szi::regression_row(coeff, dims, p, r);
      szi::lorenzo_walk<lorenzo7>(block_rows(drow, nb, p, r), nb.inner,
                                  [&](std::size_t c, double pred) {
        const double v = static_cast<double>(drow[c]);
        cost_lorenzo += std::abs(v - pred);
        cost_reg += std::abs(v - (plane.base + plane.step * static_cast<double>(c)));
        return v;
      });
      sampled += nb.inner;
    }
  const double n = static_cast<double>(sampled);
  return cost_reg < cost_lorenzo + n * lorenzo_noise;
}

/// Encode one group into its self-contained blob.
template <typename Scalar>
std::vector<std::uint8_t> encode_group(const Scalar* data, Scalar* recon, unsigned dims,
                                       const std::array<std::size_t, 3>& stride,
                                       const BlockGeom* blocks, const Group& grp, double e,
                                       bool allow_regression) {
  const double twoe = 2.0 * e;
  const CoeffSteps steps =
      szi::coeff_steps(e, static_cast<double>(szb::blocked_edge(dims)));
  const bool vec = szk::simd_active();

  std::vector<std::uint8_t> flags((grp.block_count + 7) / 8, 0);
  std::vector<std::uint8_t> coeffs;
  std::vector<std::uint8_t> raws;
  // Every element emits exactly one code (escapes emit code 0), so the code
  // buffer size is known up front.  thread_local: one warm allocation per
  // worker for the whole compress, not one per group.
  thread_local std::vector<std::uint32_t> codes;
  if (codes.size() < grp.elems) codes.resize(grp.elems);
  std::uint32_t* cp = codes.data();

  for (std::size_t bi = 0; bi < grp.block_count; ++bi) {
    const BlockGeom& g = blocks[grp.first_block + bi];
    const NormBlock nb = normalize_block(g, dims, stride);

    std::array<double, 4> coeff{};
    std::array<std::int64_t, 4> cq{};
    bool use_regression =
        allow_regression && decide_regression(data, nb, dims, e, steps, coeff, cq);
    if (use_regression) {
      flags[bi / 8] |= static_cast<std::uint8_t>(1u << (bi % 8));
      for (const std::int64_t v : cq) put_varint(coeffs, zigzag_encode(v));
      szi::quantize_regression_block(data, recon, nb, coeff, dims, twoe, e, vec, cp, raws);
    } else {
      encode_lorenzo_block(data, recon, nb, e, twoe, cp, raws);
    }
  }

  const std::vector<std::uint8_t> entropy = rans_interleaved_encode(codes.data(), grp.elems);
  std::vector<std::uint8_t> blob;
  blob.reserve(flags.size() + coeffs.size() + entropy.size() + raws.size() + 32);
  put_varint(blob, flags.size());
  blob.insert(blob.end(), flags.begin(), flags.end());
  put_varint(blob, coeffs.size());
  blob.insert(blob.end(), coeffs.begin(), coeffs.end());
  put_varint(blob, entropy.size());
  blob.insert(blob.end(), entropy.begin(), entropy.end());
  put_varint(blob, raws.size());
  blob.insert(blob.end(), raws.begin(), raws.end());
  return blob;
}

template <typename Scalar>
void blocked_compress_impl(const ArrayView& input, const SzOptions& opt, Buffer& out) {
  const unsigned dims = static_cast<unsigned>(input.dims());
  const Shape& shape = input.shape();
  const auto stride = szi::strides_of(shape);
  const Scalar* data = input.typed<Scalar>();
  const double e = opt.error_bound;
  const bool allow_regression = opt.regression && dims >= 2;

  const std::vector<BlockGeom> blocks = collect_blocks(shape, dims);
  const std::vector<Group> groups = build_groups(blocks);

  // Field-sized reconstruction buffer shared by all workers: each group's
  // blocks cover disjoint index ranges, and block-local prediction never
  // reads another block's rows, so there is no cross-group traffic at all.
  std::vector<Scalar> recon(input.elements());
  std::vector<std::vector<std::uint8_t>> blobs(groups.size());
  parallel_for_shared(groups.size(), opt.threads, [&](std::size_t gi) {
    blobs[gi] = encode_group(data, recon.data(), dims, stride, blocks.data(), groups[gi], e,
                             allow_regression);
  });

  std::vector<std::uint8_t> payload;
  std::size_t total = 16;
  for (const auto& b : blobs) total += b.size() + 10;
  payload.reserve(total);
  szi::put_scalar(payload, e);
  payload.push_back(opt.regression ? 1 : 0);
  put_varint(payload, groups.size());
  for (const auto& b : blobs) {
    put_varint(payload, b.size());
    payload.insert(payload.end(), b.begin(), b.end());
  }
  seal_container_into(CompressorId::kSz, input.dtype(), shape, payload.data(), payload.size(),
                      out, /*version=*/2);
}

// ---------------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------------

/// Block-local Lorenzo reconstruction, the mirror of encode_lorenzo_block:
/// loop-carried previous-column samples and zero-row substitution keep the
/// inner loop branch-free except for the (validated-rare) escape test, which
/// is why blocked decode beats the v1 chain even before thread scaling.
template <typename Scalar>
void decode_lorenzo_block(Scalar* recon, const NormBlock& nb, double twoe,
                          const std::uint32_t*& cp, ByteReader& raws) {
  for (std::size_t p = 0; p < nb.planes; ++p)
    for (std::size_t r = 0; r < nb.rows; ++r) {
      Scalar* rrow = recon + nb.row_index(p, r);
      szi::lorenzo_walk<lorenzo7>(block_rows<Scalar>(rrow, nb, p, r), nb.inner,
                                  [&](std::size_t c, double pred) {
        const std::uint32_t code = *cp++;
        const Scalar v =
            code == 0 ? raws.scalar<Scalar>()
                      : static_cast<Scalar>(
                            pred + twoe * static_cast<double>(
                                              static_cast<std::int64_t>(code) - kRadius));
        rrow[c] = v;
        return static_cast<double>(v);
      });
    }
}

template <typename Scalar>
void decode_group(Scalar* out, unsigned dims, const std::array<std::size_t, 3>& stride,
                  const BlockGeom* blocks, const Group& grp, double e, ByteReader blob) {
  const double twoe = 2.0 * e;
  const CoeffSteps steps =
      szi::coeff_steps(e, static_cast<double>(szb::blocked_edge(dims)));
  const bool vec = szk::simd_active();

  const std::uint64_t flag_bytes = blob.varint();
  if (flag_bytes != (grp.block_count + 7) / 8) blob.fail("flag size mismatch");
  const std::uint8_t* flags = blob.take(flag_bytes);
  ByteReader coeffs = blob.section();
  const ByteReader entropy = blob.section();
  // thread_local: one warm code buffer per worker across all its groups.
  // Passing grp.elems rejects a hostile declared symbol count before the
  // codec sizes its output, so codes.size() == grp.elems on return.
  thread_local std::vector<std::uint32_t> codes;
  rans_interleaved_decode_into(entropy.data(), entropy.remaining(), codes, grp.elems);
  ByteReader raws = blob.section();
  blob.expect_end("group blob size mismatch");

  szi::check_codes(codes);

  const std::uint32_t* cp = codes.data();
  for (std::size_t bi = 0; bi < grp.block_count; ++bi) {
    const BlockGeom& g = blocks[grp.first_block + bi];
    const NormBlock nb = normalize_block(g, dims, stride);
    const bool use_regression = (flags[bi / 8] >> (bi % 8)) & 1u;
    if (use_regression) {
      // The encoder never flags 1D blocks (regression is 2D/3D only); a
      // hostile stream that does is rejected rather than fed to the 32-lane
      // kernels with an over-long run.
      if (dims < 2) throw CorruptStream("sz: regression flag on 1D block");
      const std::array<double, 4> coeff = szi::read_coeffs(coeffs, steps);
      szi::reconstruct_regression_block(cp, nb, coeff, dims, twoe, vec, out, raws);
    } else {
      decode_lorenzo_block(out, nb, twoe, cp, raws);
    }
  }
  coeffs.expect_end("trailing coefficient bytes");
  raws.expect_end("trailing raw bytes");
}

template <typename Scalar>
NdArray blocked_decompress_impl(const Container& c, unsigned threads) {
  ByteReader in(c.payload, c.payload_size, "sz");
  const double e = in.scalar<double>();
  if (!(e > 0) || !std::isfinite(e)) in.fail("bad stored error bound");
  in.u8();  // regression enable flag (informational)

  const unsigned dims = static_cast<unsigned>(c.shape.size());
  const std::vector<BlockGeom> blocks = collect_blocks(c.shape, dims);
  const std::vector<Group> groups = build_groups(blocks);

  if (in.varint() != groups.size()) in.fail("group count mismatch");
  std::vector<ByteReader> blobs;
  blobs.reserve(groups.size());
  for (std::size_t gi = 0; gi < groups.size(); ++gi) blobs.push_back(in.section());
  in.expect_end("trailing payload bytes");

  // The groups partition the blocks and each block writes all its elements.
  NdArray out = NdArray::unfilled(c.dtype, c.shape);
  const auto stride = szi::strides_of(c.shape);
  Scalar* recon = out.typed<Scalar>();
  parallel_for_shared(groups.size(), threads, [&](std::size_t gi) {
    decode_group(recon, dims, stride, blocks.data(), groups[gi], e, blobs[gi]);
  });
  return out;
}

}  // namespace

void sz_blocked_compress_into(const ArrayView& input, const SzOptions& options, Buffer& out) {
  if (input.dtype() == DType::kFloat32)
    blocked_compress_impl<float>(input, options, out);
  else
    blocked_compress_impl<double>(input, options, out);
}

NdArray sz_blocked_decompress(const Container& c, unsigned threads) {
  require(c.shape.size() >= 1 && c.shape.size() <= 3, "sz: container rank unsupported");
  return c.dtype == DType::kFloat32 ? blocked_decompress_impl<float>(c, threads)
                                    : blocked_decompress_impl<double>(c, threads);
}

}  // namespace fraz
