#ifndef FRAZ_UTIL_BUFFER_HPP
#define FRAZ_UTIL_BUFFER_HPP

/// \file buffer.hpp
/// Caller-owned, grow-only output buffer for the zero-copy compress path.
///
/// FRaZ's search performs dozens of compress calls per tune; a production
/// service performs millions.  Returning a fresh std::vector per call makes
/// the allocator a hot-path participant.  Buffer instead keeps its capacity
/// across reuse: `clear()` resets the size but never releases memory, so
/// after the first call at the largest output size every further
/// `compress_into` writes into already-owned storage.
///
/// The allocation counter exists so tests and benches can *prove* the
/// zero-allocation steady state instead of asserting it by folklore.

#include <cstddef>
#include <cstdint>

namespace fraz {

/// Grow-only byte buffer with an allocation counter.
class Buffer {
public:
  Buffer() = default;

  std::uint8_t* data() noexcept { return data_; }
  const std::uint8_t* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return capacity_; }
  bool empty() const noexcept { return size_ == 0; }

  const std::uint8_t* begin() const noexcept { return data_; }
  const std::uint8_t* end() const noexcept { return data_ + size_; }

  /// Reset the size to zero.  Capacity (and therefore memory) is retained —
  /// this is the call that makes reuse allocation-free.
  void clear() noexcept { size_ = 0; }

  /// Ensure capacity for at least \p n bytes (existing contents preserved).
  void reserve(std::size_t n);

  /// Set the size to \p n, growing capacity if needed.  Newly exposed bytes
  /// are uninitialized — callers are expected to overwrite them.
  void resize(std::size_t n) {
    reserve(n);
    size_ = n;
  }

  /// Append \p n bytes from \p src.
  void append(const void* src, std::size_t n);

  void push_back(std::uint8_t byte) {
    if (size_ == capacity_) reserve(size_ + 1);
    data_[size_++] = byte;
  }

  /// Number of times the buffer had to acquire a new allocation.  Stable
  /// across reuse once the high-water capacity is reached.
  std::size_t allocations() const noexcept { return allocations_; }

  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;
  Buffer(Buffer&& other) noexcept { swap(other); }
  Buffer& operator=(Buffer&& other) noexcept {
    if (this != &other) swap(other);
    return *this;
  }
  ~Buffer();

  void swap(Buffer& other) noexcept;

private:
  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  std::size_t allocations_ = 0;
};

}  // namespace fraz

#endif  // FRAZ_UTIL_BUFFER_HPP
