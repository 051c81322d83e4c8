#include "ndarray/ndarray.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

namespace fraz {

std::size_t shape_elements(const Shape& shape) {
  std::size_t n = shape.empty() ? 0 : 1;
  for (std::size_t d : shape) {
    require(d > 0, "shape_elements: zero extent");
    n *= d;
  }
  return n;
}

ArrayView::ArrayView(const void* data, DType dtype, Shape shape)
    : data_(data), dtype_(dtype), shape_(std::move(shape)), elements_(shape_elements(shape_)) {
  require(data_ != nullptr || elements_ == 0, "ArrayView: null data with nonzero shape");
}

NdArray::NdArray() : dtype_(DType::kFloat32), elements_(0) {}

NdArray::NdArray(DType dtype, Shape shape, Unfilled)
    : dtype_(dtype), shape_(std::move(shape)), elements_(shape_elements(shape_)) {
  // new[] of a byte array default-initializes: the bytes are left unset.
  if (elements_ != 0) buffer_.reset(new std::uint8_t[size_bytes()]);
}

NdArray::NdArray(DType dtype, Shape shape) : NdArray(dtype, std::move(shape), Unfilled{}) {
  if (buffer_) std::memset(buffer_.get(), 0, size_bytes());
}

NdArray NdArray::unfilled(DType dtype, Shape shape) {
  NdArray out(dtype, std::move(shape), Unfilled{});
#ifdef FRAZ_POISON_UNFILLED
  if (out.buffer_) std::memset(out.buffer_.get(), kUnfilledPoison, out.size_bytes());
#endif
  return out;
}

NdArray::NdArray(const NdArray& other) : NdArray(other.dtype_, other.shape_, Unfilled{}) {
  if (buffer_) std::memcpy(buffer_.get(), other.buffer_.get(), size_bytes());
}

NdArray& NdArray::operator=(const NdArray& other) {
  if (this != &other) *this = NdArray(other);
  return *this;
}

NdArray::NdArray(NdArray&& other) noexcept
    : dtype_(other.dtype_),
      shape_(std::exchange(other.shape_, Shape{})),
      elements_(std::exchange(other.elements_, 0)),
      buffer_(std::move(other.buffer_)) {}

NdArray& NdArray::operator=(NdArray&& other) noexcept {
  dtype_ = other.dtype_;
  shape_ = std::exchange(other.shape_, Shape{});
  elements_ = std::exchange(other.elements_, 0);
  buffer_ = std::move(other.buffer_);
  return *this;
}

double NdArray::at_flat(std::size_t i) const {
  require(i < elements_, "NdArray::at_flat: index out of range");
  if (dtype_ == DType::kFloat32) return reinterpret_cast<const float*>(buffer_.get())[i];
  return reinterpret_cast<const double*>(buffer_.get())[i];
}

void NdArray::set_flat(std::size_t i, double v) {
  require(i < elements_, "NdArray::set_flat: index out of range");
  if (dtype_ == DType::kFloat32)
    reinterpret_cast<float*>(buffer_.get())[i] = static_cast<float>(v);
  else
    reinterpret_cast<double*>(buffer_.get())[i] = v;
}

std::vector<double> NdArray::to_doubles() const {
  std::vector<double> out(elements_);
  if (dtype_ == DType::kFloat32) {
    const auto* p = reinterpret_cast<const float*>(buffer_.get());
    std::copy(p, p + elements_, out.begin());
  } else {
    const auto* p = reinterpret_cast<const double*>(buffer_.get());
    std::copy(p, p + elements_, out.begin());
  }
  return out;
}

NdArray NdArray::slice2d(std::size_t plane) const {
  if (dims() == 2) {
    require(plane == 0, "NdArray::slice2d: plane out of range for 2D array");
    return *this;
  }
  require(dims() == 3, "NdArray::slice2d: requires a 2D or 3D array");
  require(plane < shape_[0], "NdArray::slice2d: plane out of range");
  const std::size_t plane_elems = shape_[1] * shape_[2];
  const std::size_t esize = dtype_size(dtype_);
  NdArray out(dtype_, {shape_[1], shape_[2]});
  std::memcpy(out.data(), buffer_.get() + plane * plane_elems * esize, plane_elems * esize);
  return out;
}

namespace {
template <typename T>
double max_abs_impl(const T* p, std::size_t n) {
  double m = 0.0;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::abs(static_cast<double>(p[i])));
  return m;
}

template <typename T>
double range_impl(const T* p, std::size_t n) {
  if (n == 0) return 0.0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    const double v = p[i];
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return hi - lo;
}
}  // namespace

double max_abs(const ArrayView& v) {
  if (v.elements() == 0) return 0.0;
  return v.dtype() == DType::kFloat32 ? max_abs_impl(v.typed<float>(), v.elements())
                                      : max_abs_impl(v.typed<double>(), v.elements());
}

double value_range(const ArrayView& v) {
  if (v.elements() == 0) return 0.0;
  return v.dtype() == DType::kFloat32 ? range_impl(v.typed<float>(), v.elements())
                                      : range_impl(v.typed<double>(), v.elements());
}

}  // namespace fraz
