#ifndef FRAZ_UTIL_ERROR_HPP
#define FRAZ_UTIL_ERROR_HPP

/// \file error.hpp
/// Exception hierarchy shared by all fraz libraries, plus the errno
/// rendering helper every filesystem error message goes through.

#include <cstring>
#include <stdexcept>
#include <string>

namespace fraz {

/// Base class for all errors thrown by the fraz libraries.
class Error : public std::runtime_error {
public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller passed an argument outside the documented domain.
class InvalidArgument : public Error {
public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// A compressed container failed validation (bad magic, checksum, truncation).
class CorruptStream : public Error {
public:
  explicit CorruptStream(const std::string& what) : Error(what) {}
};

/// An operation is not supported by the selected component
/// (e.g. MGARD on 1D data, unknown compressor id).
class Unsupported : public Error {
public:
  explicit Unsupported(const std::string& what) : Error(what) {}
};

/// An I/O operation on the filesystem failed.
class IoError : public Error {
public:
  explicit IoError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] inline void throw_invalid(const std::string& what) { throw InvalidArgument(what); }
}  // namespace detail

/// Precondition check used throughout the public API: throws InvalidArgument
/// with \p what when \p cond is false.
inline void require(bool cond, const std::string& what) {
  if (!cond) detail::throw_invalid(what);
}

/// The same for a literal message: the string is built only on failure, so
/// a check that passes allocates nothing (NdArray::typed, shape_elements and
/// ArrayView run one on every call).
inline void require(bool cond, const char* what) {
  if (!cond) detail::throw_invalid(what);
}

/// Render \p err the way strerror would, but never claim "Success" for a
/// failure whose errno a C library call did not set.  Capture errno at the
/// failing call — before any other call can clobber it — and pass it here.
inline std::string errno_detail(int err) {
  return err != 0 ? std::strerror(err) : "unknown I/O error";
}

}  // namespace fraz

#endif  // FRAZ_UTIL_ERROR_HPP
