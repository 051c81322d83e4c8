#include "compressors/fpc/fpc.hpp"

#include <cmath>
#include <cstring>

#include "codec/varint.hpp"
#include "compressors/container.hpp"
#include "util/error.hpp"

namespace fraz {

namespace {

/// Payload layout (after the shared container header):
///   u8      payload version (1)
///   u8      table_bits (8..20)
///   headers ceil(n/2) bytes — one nibble per value, value 2i in the low
///           nibble; nibble = (predictor << 3) | zero-byte code
///   residual bytes, little-endian low bytes of the chosen XOR residual
constexpr std::uint8_t kPayloadVersion = 1;
constexpr unsigned kMinTableBits = 8;
constexpr unsigned kMaxTableBits = 20;

/// Traits tying the scalar type to its bit pattern and hash shifts.  The f64
/// shifts are the reference FPC constants; the f32 variants scale the context
/// window to the narrower word.
template <typename Scalar>
struct FpcTraits;

template <>
struct FpcTraits<double> {
  using UInt = std::uint64_t;
  static constexpr unsigned kFcmShift = 48;   // value bits feeding the FCM context
  static constexpr unsigned kDfcmShift = 40;  // delta bits feeding the DFCM context
  /// 3-bit code for a leading-zero-byte count.  8 counts but 4 is rare
  /// (codes 4..7 mean 5..8 zero bytes), so lzb 4 demotes to code 3.
  static unsigned code_of(const unsigned lzb) { return lzb >= 5 ? lzb - 1 : (lzb == 4 ? 3 : lzb); }
  static unsigned lzb_of(const unsigned code) { return code >= 4 ? code + 1 : code; }
};

template <>
struct FpcTraits<float> {
  using UInt = std::uint32_t;
  static constexpr unsigned kFcmShift = 16;
  static constexpr unsigned kDfcmShift = 8;
  static unsigned code_of(const unsigned lzb) { return lzb; }  // 0..4 fit directly
  static unsigned lzb_of(const unsigned code) { return code; }
};

template <typename UInt>
unsigned leading_zero_bytes(const UInt x) {
  if (x == 0) return sizeof(UInt);
  return static_cast<unsigned>(__builtin_clzll(static_cast<std::uint64_t>(x)) -
                               (64 - sizeof(UInt) * 8)) /
         8;
}

/// The two predictor states advanced identically by encoder and decoder.
template <typename Scalar>
struct Predictors {
  using UInt = typename FpcTraits<Scalar>::UInt;
  std::vector<UInt> fcm;
  std::vector<UInt> dfcm;
  UInt fcm_hash = 0;
  UInt dfcm_hash = 0;
  UInt last = 0;
  UInt mask;

  explicit Predictors(const unsigned table_bits)
      : fcm(std::size_t{1} << table_bits, 0),
        dfcm(std::size_t{1} << table_bits, 0),
        mask((UInt{1} << table_bits) - 1) {}

  UInt predict_fcm() const { return fcm[fcm_hash]; }
  UInt predict_dfcm() const { return static_cast<UInt>(last + dfcm[dfcm_hash]); }

  void update(const UInt value) {
    fcm[fcm_hash] = value;
    fcm_hash = ((fcm_hash << 6) ^ (value >> FpcTraits<Scalar>::kFcmShift)) & mask;
    const UInt delta = static_cast<UInt>(value - last);
    dfcm[dfcm_hash] = delta;
    dfcm_hash = ((dfcm_hash << 2) ^ (delta >> FpcTraits<Scalar>::kDfcmShift)) & mask;
    last = value;
  }
};

template <typename Scalar>
void encode_payload(const ArrayView& input, const unsigned table_bits,
                    std::vector<std::uint8_t>& payload) {
  using Traits = FpcTraits<Scalar>;
  using UInt = typename Traits::UInt;
  const Scalar* data = input.typed<Scalar>();
  const std::size_t n = input.elements();

  Predictors<Scalar> pred(table_bits);
  std::vector<std::uint8_t> headers((n + 1) / 2, 0);
  std::vector<std::uint8_t> residuals;
  residuals.reserve(n * sizeof(Scalar) / 2 + 64);

  for (std::size_t i = 0; i < n; ++i) {
    UInt v;
    std::memcpy(&v, data + i, sizeof(Scalar));
    const UInt xf = v ^ pred.predict_fcm();
    const UInt xd = v ^ pred.predict_dfcm();
    const unsigned lf = leading_zero_bytes(xf);
    const unsigned ld = leading_zero_bytes(xd);
    // Tie goes to FCM so encoder and decoder never depend on table contents
    // beyond the shared update sequence.
    const bool use_dfcm = ld > lf;
    const UInt x = use_dfcm ? xd : xf;
    const unsigned code = Traits::code_of(use_dfcm ? ld : lf);
    const unsigned stored = sizeof(Scalar) - Traits::lzb_of(code);
    const unsigned nibble = (static_cast<unsigned>(use_dfcm) << 3) | code;
    headers[i >> 1] |= static_cast<std::uint8_t>(nibble << ((i & 1) * 4));
    for (unsigned b = 0; b < stored; ++b)
      residuals.push_back(static_cast<std::uint8_t>(x >> (8 * b)));
    pred.update(v);
  }

  payload.push_back(kPayloadVersion);
  payload.push_back(static_cast<std::uint8_t>(table_bits));
  payload.insert(payload.end(), headers.begin(), headers.end());
  payload.insert(payload.end(), residuals.begin(), residuals.end());
}

template <typename Scalar>
void decode_payload(const Container& c, const std::size_t n, NdArray& out) {
  using Traits = FpcTraits<Scalar>;
  using UInt = typename Traits::UInt;
  ByteReader in(c.payload, c.payload_size, "fpc");
  if (in.u8() != kPayloadVersion) in.fail("unknown payload version");
  const unsigned table_bits = in.u8();
  if (table_bits < kMinTableBits || table_bits > kMaxTableBits)
    in.fail("table_bits out of range");
  const std::uint8_t* headers = in.take((n + 1) / 2, "header stream truncated");

  Predictors<Scalar> pred(table_bits);
  Scalar* outp = out.typed<Scalar>();
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned nibble = (headers[i >> 1] >> ((i & 1) * 4)) & 0xFu;
    const bool use_dfcm = (nibble >> 3) != 0;
    const unsigned lzb = Traits::lzb_of(nibble & 7u);
    if (lzb > sizeof(Scalar)) in.fail("zero-byte code out of range");
    const unsigned stored = sizeof(Scalar) - lzb;
    const std::uint8_t* residual = in.take(stored, "residual stream truncated");
    UInt x = 0;
    for (unsigned b = 0; b < stored; ++b) x |= static_cast<UInt>(residual[b]) << (8 * b);
    const UInt v = x ^ (use_dfcm ? pred.predict_dfcm() : pred.predict_fcm());
    std::memcpy(outp + i, &v, sizeof(Scalar));
    pred.update(v);
  }
  in.expect_end("trailing bytes after residuals");
  // The unused high nibble of an odd-length header stream must be zero so
  // frames stay canonical (byte-identical re-encode).
  if ((n & 1) != 0 && (headers[n >> 1] >> 4) != 0)
    throw CorruptStream("fpc: nonzero padding nibble");
}

}  // namespace

void fpc_compress_into(const ArrayView& input, const FpcOptions& options, Buffer& out) {
  require(input.dims() >= 1 && input.dims() <= 8, "fpc: supports 1D..8D data");
  require(input.elements() > 0, "fpc: empty input");
  require(options.table_bits >= kMinTableBits && options.table_bits <= kMaxTableBits,
          "fpc: table_bits must be in [8, 20]");
  std::vector<std::uint8_t> payload;
  if (input.dtype() == DType::kFloat32)
    encode_payload<float>(input, options.table_bits, payload);
  else
    encode_payload<double>(input, options.table_bits, payload);
  seal_container_into(CompressorId::kFpc, input.dtype(), input.shape(), payload, out);
}

NdArray fpc_decompress(const std::uint8_t* data, std::size_t size) {
  const Container c = open_container(data, size, CompressorId::kFpc);
  std::uint64_t n = 1;
  for (const std::size_t extent : c.shape) {
    if (extent == 0 || n > (std::uint64_t{1} << 42) / extent)
      throw CorruptStream("fpc: implausible shape");
    n *= extent;
  }
  // decode_payload writes elements 0..n-1 in order.
  NdArray out = NdArray::unfilled(c.dtype, c.shape);
  if (c.dtype == DType::kFloat32)
    decode_payload<float>(c, static_cast<std::size_t>(n), out);
  else
    decode_payload<double>(c, static_cast<std::size_t>(n), out);
  return out;
}

}  // namespace fraz
