#include "compressors/zfp/zfp.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "codec/bitstream.hpp"
#include "codec/varint.hpp"
#include "compressors/container.hpp"
#include "compressors/zfp/transform.hpp"
#include "compressors/zfp/transform_kernels.hpp"
#include "util/error.hpp"

namespace fraz {

namespace {

using zfp_detail::int2uint;
using zfp_detail::sequency_order;
using zfp_detail::uint2int;

/// Per-scalar-type constants of the fixed-point representation.
template <typename Scalar>
struct Traits;

template <>
struct Traits<float> {
  using Int = std::int32_t;
  using UInt = std::uint32_t;
  static constexpr unsigned kIntPrec = 32;
  static constexpr int kExpBias = 150;    // emax in [-149, 128] for normal/subnormal f32
  static constexpr unsigned kExpBits = 9;
};

template <>
struct Traits<double> {
  using Int = std::int64_t;
  using UInt = std::uint64_t;
  static constexpr unsigned kIntPrec = 64;
  static constexpr int kExpBias = 1075;   // emax in [-1074, 1024]
  static constexpr unsigned kExpBits = 12;
};

/// Exponent e with |x| in [2^(e-1), 2^e); 0 for x == 0.
int exponent_of(double x) noexcept {
  int e = 0;
  std::frexp(x, &e);
  return e;
}

/// emin = floor(log2(tolerance)): the bit plane below which ZFP's accuracy
/// mode discards everything.  frexp gives tol = m * 2^e with m in [0.5, 1),
/// so floor(log2(tol)) = e - 1 (exact also for powers of two).
int accuracy_emin(double tolerance) noexcept { return exponent_of(tolerance) - 1; }

/// ZFP's per-block precision: how many top bit planes survive under the
/// accuracy policy.  The 2*(dims+1) term is the guard that accounts for
/// transform gain and alignment roundoff.
unsigned block_precision(int emax, int emin, unsigned dims, unsigned intprec) noexcept {
  const long p = static_cast<long>(emax) - emin + 2 * (static_cast<long>(dims) + 1);
  return static_cast<unsigned>(std::clamp(p, 0l, static_cast<long>(intprec)));
}

/// Embedded coding of `n` negabinary coefficients (already in sequency
/// order), most significant bit plane first, with group testing: the state
/// `n_sig` counts coefficients discovered significant so far; their plane
/// bits are coded verbatim, and the insignificant tail is coded with a unary
/// run-length scheme.  Mirrors zfp's encode_ints/decode_ints.
template <typename UInt>
void encode_planes(BitWriter& writer, const UInt* coeffs, unsigned n, unsigned maxprec,
                   std::int64_t budget) {
  const unsigned intprec = sizeof(UInt) * 8;
  const unsigned kmin = intprec > maxprec ? intprec - maxprec : 0;
  unsigned n_sig = 0;
  for (unsigned k = intprec; budget > 0 && k-- > kmin;) {
    // Gather bit plane k (n <= 64, so it fits one word).
    std::uint64_t plane = 0;
    for (unsigned i = 0; i < n; ++i)
      plane |= static_cast<std::uint64_t>((coeffs[i] >> k) & 1u) << i;
    // Verbatim bits for already-significant coefficients.
    unsigned m = std::min<std::int64_t>(n_sig, budget);
    budget -= m;
    writer.write_bits(plane, m);
    // m can reach 64 (every coefficient significant): a full-width shift is
    // undefined, and the intended result is an empty plane.
    plane = m >= 64 ? 0 : plane >> m;
    // Group-tested remainder.
    while (n_sig < n && budget > 0) {
      --budget;
      const unsigned any = plane != 0 ? 1u : 0u;
      writer.write_bit(any);
      if (!any) break;
      // Scan for the next significant coefficient; its terminating 1 at
      // position n-1 is implicit.
      while (n_sig < n - 1 && budget > 0) {
        --budget;
        const unsigned bit = static_cast<unsigned>(plane & 1u);
        writer.write_bit(bit);
        plane >>= 1;
        ++n_sig;
        if (bit) goto next_group;
      }
      // Either only the last coefficient remains (its bit is implicit) or the
      // budget ran out mid-scan; both consume the coefficient.
      plane >>= 1;
      ++n_sig;
    next_group:;
    }
  }
}

/// Exact mirror of encode_planes.
template <typename UInt>
void decode_planes(BitReader& reader, UInt* coeffs, unsigned n, unsigned maxprec,
                   std::int64_t budget) {
  const unsigned intprec = sizeof(UInt) * 8;
  const unsigned kmin = intprec > maxprec ? intprec - maxprec : 0;
  std::fill(coeffs, coeffs + n, UInt{0});
  unsigned n_sig = 0;
  for (unsigned k = intprec; budget > 0 && k-- > kmin;) {
    unsigned m = std::min<std::int64_t>(n_sig, budget);
    budget -= m;
    std::uint64_t plane = reader.read_bits(m);
    unsigned pos = n_sig;  // next position to be classified
    while (pos < n && budget > 0) {
      --budget;
      if (!reader.read_bit()) break;
      while (pos < n - 1 && budget > 0) {
        --budget;
        if (reader.read_bit()) {
          plane |= std::uint64_t{1} << pos;
          ++pos;
          goto next_group;
        }
        ++pos;
      }
      plane |= std::uint64_t{1} << pos;
      ++pos;
    next_group:;
    }
    n_sig = std::max(n_sig, pos);
    for (unsigned i = 0; i < n && plane; ++i, plane >>= 1)
      coeffs[i] |= static_cast<UInt>(plane & 1u) << k;
  }
}

/// Copy a (possibly partial) block from the array, padding out-of-range
/// positions by clamping to the last valid sample along each axis.
template <typename Scalar>
void gather_block(const Scalar* data, const Shape& shape, const std::size_t* base,
                  unsigned dims, Scalar* block) {
  std::size_t extent[3] = {1, 1, 1};
  for (unsigned d = 0; d < dims; ++d) extent[d] = shape[d];
  // strides for row-major (slowest dim first)
  std::size_t stride[3] = {0, 0, 0};
  stride[dims - 1] = 1;
  for (int d = static_cast<int>(dims) - 2; d >= 0; --d)
    stride[d] = stride[d + 1] * extent[d + 1];

  const unsigned n1 = dims >= 1 ? 4 : 1;
  const unsigned n2 = dims >= 2 ? 4 : 1;
  const unsigned n3 = dims >= 3 ? 4 : 1;
  // local index (a,b,c) maps to block offset c*16 + b*4 + a for 3D where
  // a is the fastest (last) dimension -- consistent with fwd_transform.
  for (unsigned c = 0; c < n3; ++c)
    for (unsigned b = 0; b < n2; ++b)
      for (unsigned a = 0; a < n1; ++a) {
        std::size_t idx = 0;
        const unsigned local[3] = {a, b, c};
        for (unsigned d = 0; d < dims; ++d) {
          // local[0] is the fastest-moving axis = last shape dimension.
          const unsigned axis = dims - 1 - d;
          const std::size_t coord = std::min(base[axis] + local[d], extent[axis] - 1);
          idx += coord * stride[axis];
        }
        block[c * 16 + b * 4 + a] = data[idx];
      }
}

/// Write back the valid region of a block.
template <typename Scalar>
void scatter_block(Scalar* data, const Shape& shape, const std::size_t* base, unsigned dims,
                   const Scalar* block) {
  std::size_t extent[3] = {1, 1, 1};
  for (unsigned d = 0; d < dims; ++d) extent[d] = shape[d];
  std::size_t stride[3] = {0, 0, 0};
  stride[dims - 1] = 1;
  for (int d = static_cast<int>(dims) - 2; d >= 0; --d)
    stride[d] = stride[d + 1] * extent[d + 1];

  const unsigned n1 = dims >= 1 ? 4 : 1;
  const unsigned n2 = dims >= 2 ? 4 : 1;
  const unsigned n3 = dims >= 3 ? 4 : 1;
  for (unsigned c = 0; c < n3; ++c)
    for (unsigned b = 0; b < n2; ++b)
      for (unsigned a = 0; a < n1; ++a) {
        std::size_t idx = 0;
        bool valid = true;
        const unsigned local[3] = {a, b, c};
        for (unsigned d = 0; d < dims; ++d) {
          const unsigned axis = dims - 1 - d;
          const std::size_t coord = base[axis] + local[d];
          if (coord >= extent[axis]) {
            valid = false;
            break;
          }
          idx += coord * stride[axis];
        }
        if (valid) data[idx] = block[c * 16 + b * 4 + a];
      }
}

/// Iterate the block grid in row-major order, invoking fn(base).
void for_each_block(const Shape& shape, unsigned dims,
                    const std::function<void(const std::size_t*)>& fn) {
  std::size_t blocks[3] = {1, 1, 1};
  for (unsigned d = 0; d < dims; ++d) blocks[d] = (shape[d] + 3) / 4;
  std::size_t base[3];
  for (std::size_t b0 = 0; b0 < blocks[0]; ++b0)
    for (std::size_t b1 = 0; b1 < blocks[1]; ++b1)
      for (std::size_t b2 = 0; b2 < blocks[2]; ++b2) {
        base[0] = b0 * 4;
        base[1] = b1 * 4;
        base[2] = b2 * 4;
        fn(base);
      }
}

/// Per-block bit budget for the chosen mode.  Accuracy mode is effectively
/// unbounded; rate mode fixes the budget exactly.
std::int64_t block_budget(const ZfpOptions& opt, unsigned block_elems, unsigned intprec,
                          unsigned expbits) {
  if (opt.mode == ZfpMode::kFixedRate) {
    const auto bits = static_cast<std::int64_t>(std::llround(opt.rate * block_elems));
    // A block cannot be smaller than its zero/nonzero flag.
    return std::max<std::int64_t>(bits, 1);
  }
  return static_cast<std::int64_t>(block_elems) * intprec + expbits + 64;
}

template <typename Scalar>
void compress_impl(const ArrayView& input, const ZfpOptions& opt, Buffer& out) {
  using T = Traits<Scalar>;
  using Int = typename T::Int;
  using UInt = typename T::UInt;

  const unsigned dims = static_cast<unsigned>(input.dims());
  const unsigned block_elems = 1u << (2 * dims);
  const std::uint8_t* order = sequency_order(dims);
  const Scalar* data = input.typed<Scalar>();
  const int emin = accuracy_emin(opt.tolerance);
  const std::int64_t budget = block_budget(opt, block_elems, T::kIntPrec, T::kExpBits);

  BitWriter writer;
  for_each_block(input.shape(), dims, [&](const std::size_t* base) {
    Scalar block[64];
    gather_block(data, input.shape(), base, dims, block);

    double maxabs = 0;
    for (unsigned i = 0; i < block_elems; ++i)
      maxabs = std::max(maxabs, std::abs(static_cast<double>(block[i])));
    const int emax = exponent_of(maxabs);
    const unsigned maxprec = opt.mode == ZfpMode::kAccuracy
                                 ? block_precision(emax, emin, dims, T::kIntPrec)
                                 : T::kIntPrec;

    const std::size_t block_start = writer.bit_count();
    std::int64_t bits = budget;
    if (maxabs == 0 || maxprec == 0) {
      writer.write_bit(0);  // empty block
    } else {
      writer.write_bit(1);
      writer.write_bits(static_cast<std::uint64_t>(emax + T::kExpBias), T::kExpBits);
      bits -= 1 + T::kExpBits;
      if (bits > 0) {
        // Block-floating-point alignment + decorrelating transform.
        Int iblock[64];
        for (unsigned i = 0; i < block_elems; ++i)
          iblock[i] = static_cast<Int>(
              std::ldexp(static_cast<double>(block[i]),
                         static_cast<int>(T::kIntPrec) - 2 - emax));
        zfpk::fwd_transform_any(iblock, dims);
        UInt ublock[64];
        for (unsigned i = 0; i < block_elems; ++i)
          ublock[i] = int2uint<Int, UInt>(iblock[order[i]]);
        encode_planes(writer, ublock, block_elems, maxprec, bits);
      }
    }
    if (opt.mode == ZfpMode::kFixedRate) {
      // Pad so every block consumes exactly `budget` bits (random access).
      while (writer.bit_count() <
             block_start + static_cast<std::size_t>(budget))
        writer.write_bit(0);
    }
  });

  std::vector<std::uint8_t> payload;
  payload.push_back(static_cast<std::uint8_t>(opt.mode));
  const double param = opt.mode == ZfpMode::kAccuracy ? opt.tolerance : opt.rate;
  std::uint64_t param_bits;
  std::memcpy(&param_bits, &param, 8);
  for (int b = 0; b < 8; ++b) payload.push_back(static_cast<std::uint8_t>(param_bits >> (8 * b)));
  const std::vector<std::uint8_t> stream = writer.take();
  payload.insert(payload.end(), stream.begin(), stream.end());

  seal_container_into(CompressorId::kZfp, input.dtype(), input.shape(), payload, out);
}

template <typename Scalar>
void decompress_impl(const Container& c, const ZfpOptions& opt, BitReader reader,
                     NdArray& out) {
  using T = Traits<Scalar>;
  using Int = typename T::Int;
  using UInt = typename T::UInt;

  const unsigned dims = static_cast<unsigned>(c.shape.size());
  const unsigned block_elems = 1u << (2 * dims);
  const std::uint8_t* order = sequency_order(dims);
  Scalar* data = out.typed<Scalar>();
  const int emin = accuracy_emin(opt.tolerance);
  const std::int64_t budget = block_budget(opt, block_elems, T::kIntPrec, T::kExpBits);

  for_each_block(c.shape, dims, [&](const std::size_t* base) {
    const std::size_t block_start = reader.bit_position();
    Scalar block[64] = {};
    std::int64_t bits = budget;
    if (reader.read_bit()) {
      const int emax = static_cast<int>(reader.read_bits(T::kExpBits)) - T::kExpBias;
      bits -= 1 + T::kExpBits;
      const unsigned maxprec = opt.mode == ZfpMode::kAccuracy
                                   ? block_precision(emax, emin, dims, T::kIntPrec)
                                   : T::kIntPrec;
      if (bits > 0) {
        UInt ublock[64];
        decode_planes(reader, ublock, block_elems, maxprec, bits);
        Int iblock[64];
        for (unsigned i = 0; i < block_elems; ++i)
          iblock[order[i]] = uint2int<Int, UInt>(ublock[i]);
        zfpk::inv_transform_any(iblock, dims);
        for (unsigned i = 0; i < block_elems; ++i)
          block[i] = static_cast<Scalar>(
              std::ldexp(static_cast<double>(iblock[i]),
                         emax + 2 - static_cast<int>(T::kIntPrec)));
      }
    }
    if (opt.mode == ZfpMode::kFixedRate) {
      // Skip the block's padding to the fixed boundary.
      const std::size_t target = block_start + static_cast<std::size_t>(budget);
      while (reader.bit_position() < target) reader.read_bit();
    }
    scatter_block(data, c.shape, base, dims, block);
  });
}

/// The payload header: mode tag, then the mode parameter as an f64.
ZfpOptions read_header(ByteReader& in) {
  ZfpOptions opt;
  const std::uint8_t mode_tag = in.u8();
  if (mode_tag > 1) in.fail("bad mode tag");
  opt.mode = static_cast<ZfpMode>(mode_tag);
  const double param = in.f64();
  if (!(param > 0) || !std::isfinite(param)) in.fail("bad mode parameter");
  (opt.mode == ZfpMode::kAccuracy ? opt.tolerance : opt.rate) = param;
  return opt;
}

void validate(const ArrayView& input, const ZfpOptions& opt) {
  require(input.dims() >= 1 && input.dims() <= 3, "zfp: supports 1D/2D/3D data");
  require(input.elements() > 0, "zfp: empty input");
  if (opt.mode == ZfpMode::kAccuracy)
    require(opt.tolerance > 0 && std::isfinite(opt.tolerance),
            "zfp: tolerance must be positive and finite");
  else
    require(opt.rate > 0 && std::isfinite(opt.rate), "zfp: rate must be positive and finite");
}

}  // namespace

void zfp_compress_into(const ArrayView& input, const ZfpOptions& options, Buffer& out) {
  validate(input, options);
  if (input.dtype() == DType::kFloat32)
    compress_impl<float>(input, options, out);
  else
    compress_impl<double>(input, options, out);
}

NdArray zfp_decompress(const std::uint8_t* data, std::size_t size) {
  const Container c = open_container(data, size, CompressorId::kZfp);
  require(c.shape.size() >= 1 && c.shape.size() <= 3, "zfp: container rank unsupported");
  ByteReader in(c.payload, c.payload_size, "zfp");
  const ZfpOptions opt = read_header(in);
  const BitReader planes(in.data(), in.remaining());
  // The 4^d blocks tile the array and each scatters all its in-bounds values.
  NdArray out = NdArray::unfilled(c.dtype, c.shape);
  if (c.dtype == DType::kFloat32)
    decompress_impl<float>(c, opt, planes, out);
  else
    decompress_impl<double>(c, opt, planes, out);
  return out;
}

}  // namespace fraz
