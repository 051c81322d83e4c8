#ifndef FRAZ_UTIL_STATUS_HPP
#define FRAZ_UTIL_STATUS_HPP

/// \file status.hpp
/// The library's error model: internals throw; `Status` appears only at
/// public entry points.
///
/// Inside the library a failure is an exception from the hierarchy in
/// error.hpp, thrown where it is found and caught only at a thread boundary
/// or a public entry point.  A public entry point (a Compressor's V2 calls,
/// ArchiveWriter / FieldSession / ArchiveReader, Engine's calls) returns a
/// `Status` (code, message) or a `Result<T>` (a value or a non-ok Status),
/// so a caller that compresses millions of times never unwinds a stack.
/// `guarded()` is the bridge from a throwing body to such a value.  The way
/// back, for internals that consume a Status API, is `Result<T>::value()`
/// and `Status::throw_if_error()`; both throw the matching exception.

#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "util/error.hpp"

namespace fraz {

/// Machine-readable failure category, mirroring the exception hierarchy.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,  ///< argument outside the documented domain
  kUnsupported,      ///< operation not supported by the selected component
  kCorruptStream,    ///< compressed container failed validation
  kIoError,          ///< filesystem operation failed
  kInternal,         ///< unclassified failure (foreign exception, logic bug)
};

/// Name of a status code ("ok", "invalid_argument", ...).
inline const char* status_code_name(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kUnsupported: return "unsupported";
    case StatusCode::kCorruptStream: return "corrupt_stream";
    case StatusCode::kIoError: return "io_error";
    case StatusCode::kInternal: return "internal";
  }
  return "unknown";
}

/// Success-or-failure of one operation.  Default-constructed = ok.
class Status {
public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  bool ok() const noexcept { return code_ == StatusCode::kOk; }
  StatusCode code() const noexcept { return code_; }
  const std::string& message() const noexcept { return message_; }

  /// Throw the matching exception when not ok (what Result<T>::value() does
  /// for a value).
  void throw_if_error() const;

  /// "invalid_argument: sz: error bound must be positive" (or "ok").
  std::string to_string() const {
    return ok() ? "ok" : std::string(status_code_name(code_)) + ": " + message_;
  }

  static Status invalid_argument(std::string m) {
    return {StatusCode::kInvalidArgument, std::move(m)};
  }
  static Status unsupported(std::string m) { return {StatusCode::kUnsupported, std::move(m)}; }
  static Status corrupt_stream(std::string m) {
    return {StatusCode::kCorruptStream, std::move(m)};
  }
  static Status io_error(std::string m) { return {StatusCode::kIoError, std::move(m)}; }
  static Status internal(std::string m) { return {StatusCode::kInternal, std::move(m)}; }

private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// A value of type T or a non-ok Status explaining its absence.
template <typename T>
class Result {
public:
  /// Implicit from a value (success).
  Result(T value) : value_(std::move(value)) {}
  /// Implicit from a non-ok Status (failure); ok statuses are a logic error.
  Result(Status status) : status_(std::move(status)) {
    require(!status_.ok(), "Result: constructed from an ok Status without a value");
  }

  bool ok() const noexcept { return value_.has_value(); }
  const Status& status() const noexcept { return status_; }

  /// Access the value; throws the status's exception when absent.
  T& value() &;
  const T& value() const&;
  T&& value() &&;

  /// The value, or \p fallback when this Result holds a failure.
  T value_or(T fallback) const& { return ok() ? *value_ : std::move(fallback); }

private:
  Status status_;           // ok when value_ holds
  std::optional<T> value_;
};

/// Convert the in-flight exception (inside a catch block) to a Status.
/// fraz::Error subclasses map to their code; anything else is kInternal.
inline Status status_from_current_exception() noexcept {
  try {
    throw;
  } catch (const InvalidArgument& e) {
    return Status::invalid_argument(e.what());
  } catch (const CorruptStream& e) {
    return Status::corrupt_stream(e.what());
  } catch (const Unsupported& e) {
    return Status::unsupported(e.what());
  } catch (const IoError& e) {
    return Status::io_error(e.what());
  } catch (const std::exception& e) {
    return Status::internal(e.what());
  } catch (...) {
    return Status::internal("unknown exception");
  }
}

/// Rethrow a non-ok Status as the matching fraz exception.
[[noreturn]] inline void throw_status(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument: throw InvalidArgument(status.message());
    case StatusCode::kCorruptStream: throw CorruptStream(status.message());
    case StatusCode::kUnsupported: throw Unsupported(status.message());
    case StatusCode::kIoError: throw IoError(status.message());
    default: throw Error(status.to_string());
  }
}

namespace detail {
template <typename R>
struct GuardedOf {
  using type = std::conditional_t<std::is_void_v<R>, Status, Result<R>>;
};
template <>
struct GuardedOf<Status> {
  using type = Status;
};
template <typename T>
struct GuardedOf<Result<T>> {
  using type = Result<T>;
};
}  // namespace detail

/// What guarded() returns for a body returning R: Status for void, else
/// Result<R>; a body that already returns a Status or Result<T> keeps it.
template <typename R>
using Guarded = typename detail::GuardedOf<R>::type;

/// Run the throwing \p body and return its outcome as a value: a void body
/// yields a Status, one returning T a Result<T>, and an exception the Status
/// status_from_current_exception() maps it to.  A body may also return a
/// Status or Result<T> itself, to report a failure it found without
/// throwing.  Public entry points wrap their bodies in this.
template <typename Fn>
Guarded<std::invoke_result_t<Fn&>> guarded(Fn&& body) noexcept {
  try {
    if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
      body();
      return Status();
    } else {
      return body();
    }
  } catch (...) {
    return status_from_current_exception();
  }
}

inline void Status::throw_if_error() const {
  if (!ok()) throw_status(*this);
}

template <typename T>
T& Result<T>::value() & {
  if (!ok()) throw_status(status_);
  return *value_;
}

template <typename T>
const T& Result<T>::value() const& {
  if (!ok()) throw_status(status_);
  return *value_;
}

template <typename T>
T&& Result<T>::value() && {
  if (!ok()) throw_status(status_);
  return std::move(*value_);
}

}  // namespace fraz

#endif  // FRAZ_UTIL_STATUS_HPP
