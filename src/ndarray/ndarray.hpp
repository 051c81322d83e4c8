#ifndef FRAZ_NDARRAY_NDARRAY_HPP
#define FRAZ_NDARRAY_NDARRAY_HPP

/// \file ndarray.hpp
/// Owning N-dimensional array of floating-point scalars plus a non-owning
/// const view.  This is the datum every compressor, metric, and the tuner
/// operate on.  Layout is row-major (C order, last dimension fastest), which
/// matches the raw SDRBench binary files.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "ndarray/dtype.hpp"
#include "util/error.hpp"

namespace fraz {

/// Shape of an array: extent per dimension, slowest-varying first.
using Shape = std::vector<std::size_t>;

/// Total element count of a shape.
std::size_t shape_elements(const Shape& shape);

/// Non-owning, read-only view over an array's raw buffer.
///
/// Views are the currency of the compression API: compressors read from an
/// ArrayView and the tuner passes views around without copying the (possibly
/// large) field.
class ArrayView {
public:
  ArrayView(const void* data, DType dtype, Shape shape);

  const void* data() const noexcept { return data_; }
  DType dtype() const noexcept { return dtype_; }
  const Shape& shape() const noexcept { return shape_; }
  std::size_t dims() const noexcept { return shape_.size(); }
  std::size_t elements() const noexcept { return elements_; }
  std::size_t size_bytes() const noexcept { return elements_ * dtype_size(dtype_); }

  /// Typed element pointer; T must match dtype().
  template <typename T>
  const T* typed() const {
    require(dtype_of<T>::value == dtype_, "ArrayView::typed: dtype mismatch");
    return static_cast<const T*>(data_);
  }

private:
  const void* data_;
  DType dtype_;
  Shape shape_;
  std::size_t elements_;
};

/// Owning N-dimensional array.
class NdArray {
public:
  /// An empty, zero-element array (useful as a default-constructed slot).
  NdArray();

  /// Allocate a zero-initialized array.
  NdArray(DType dtype, Shape shape);

  /// Allocate an array whose elements are left unset: only for an output
  /// the caller then writes completely (a read's plane range, a decoder's
  /// reconstruction), so its bytes are written once instead of zeroed and
  /// overwritten.  Builds configured with FRAZ_SANITIZE fill it with
  /// kUnfilledPoison instead, so an element a caller forgets to write
  /// breaks value comparisons in the sanitizer job.
  static NdArray unfilled(DType dtype, Shape shape);

  /// The byte sanitizer builds fill unfilled() arrays with: every f32 and
  /// f64 made of it is a huge finite value (0x7f7f7f7f ~ 3.4e38), which
  /// fails error-bound and equality checks alike, where a NaN would slip
  /// past max-error reductions built on std::max.
  static constexpr std::uint8_t kUnfilledPoison = 0x7f;

  NdArray(const NdArray& other);
  NdArray& operator=(const NdArray& other);
  /// Moves leave \p other empty: no elements, no shape, no buffer.
  NdArray(NdArray&& other) noexcept;
  NdArray& operator=(NdArray&& other) noexcept;

  /// Build from an existing vector of scalars; shape must match size.
  template <typename T>
  static NdArray from_vector(const std::vector<T>& values, Shape shape) {
    NdArray a(dtype_of<T>::value, std::move(shape));
    require(a.elements() == values.size(), "NdArray::from_vector: element count mismatch");
    auto* dst = a.typed<T>();
    for (std::size_t i = 0; i < values.size(); ++i) dst[i] = values[i];
    return a;
  }

  DType dtype() const noexcept { return dtype_; }
  const Shape& shape() const noexcept { return shape_; }
  std::size_t dims() const noexcept { return shape_.size(); }
  std::size_t elements() const noexcept { return elements_; }
  std::size_t size_bytes() const noexcept { return elements_ * dtype_size(dtype_); }

  void* data() noexcept { return buffer_.get(); }
  const void* data() const noexcept { return buffer_.get(); }

  /// Typed mutable pointer; T must match dtype().
  template <typename T>
  T* typed() {
    require(dtype_of<T>::value == dtype_, "NdArray::typed: dtype mismatch");
    return reinterpret_cast<T*>(buffer_.get());
  }

  /// Typed const pointer; T must match dtype().
  template <typename T>
  const T* typed() const {
    require(dtype_of<T>::value == dtype_, "NdArray::typed: dtype mismatch");
    return reinterpret_cast<const T*>(buffer_.get());
  }

  /// Non-owning view of the whole array.
  ArrayView view() const { return ArrayView(buffer_.get(), dtype_, shape_); }
  operator ArrayView() const { return view(); }

  /// Element i (flat index) widened to double, regardless of dtype.
  double at_flat(std::size_t i) const;
  /// Store \p v (narrowed if f32) at flat index i.
  void set_flat(std::size_t i, double v);

  /// Copy of the contents widened to double (convenience for metrics/plots).
  std::vector<double> to_doubles() const;

  /// Extract the 2D slice [plane, :, :] of a 3D array (or the whole array if
  /// 2D; throws for other ranks).  Used for SSIM and image dumps.
  NdArray slice2d(std::size_t plane) const;

private:
  struct Unfilled {};
  NdArray(DType dtype, Shape shape, Unfilled);

  DType dtype_;
  Shape shape_;
  std::size_t elements_;
  /// size_bytes() bytes; null when there are none.  Not a std::vector,
  /// whose sized construction always value-initializes.
  std::unique_ptr<std::uint8_t[]> buffer_;
};

/// Maximum absolute value in the view (0 for empty views).
double max_abs(const ArrayView& v);

/// Value range (max - min) of the view; 0 for constant or empty views.
double value_range(const ArrayView& v);

}  // namespace fraz

#endif  // FRAZ_NDARRAY_NDARRAY_HPP
