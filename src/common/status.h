// Status / Result error-handling primitives, in the style of Arrow / RocksDB.
//
// All fallible public APIs in omega return Status (no value) or Result<T>
// (value or error). Exceptions are not thrown across module boundaries.

#pragma once

#include <string>
#include <utility>
#include <variant>

namespace omega {

/// Machine-readable category of an error.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kAlreadyExists,
  kIOError,
  kCapacityExceeded,
  kNotImplemented,
  kInternal,
};

/// Returns a human-readable name for a status code, e.g. "InvalidArgument".
const char* StatusCodeToString(StatusCode code);

/// \brief Outcome of a fallible operation: a code plus an optional message.
///
/// A default-constructed Status is OK. Statuses are cheap to copy (the OK
/// case stores no message).
class Status {
 public:
  constexpr Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status CapacityExceeded(std::string msg) {
    return Status(StatusCode::kCapacityExceeded, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool IsInvalidArgument() const { return code_ == StatusCode::kInvalidArgument; }
  bool IsOutOfRange() const { return code_ == StatusCode::kOutOfRange; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsIOError() const { return code_ == StatusCode::kIOError; }
  bool IsCapacityExceeded() const { return code_ == StatusCode::kCapacityExceeded; }

 private:
  StatusCode code_;
  std::string msg_;
};

/// The status an OK Result reports. Constant-initialized, so it is valid even
/// during static initialization. (A function-local static here made GCC 12
/// warn maybe-uninitialized on destroying a Result that called status().)
inline constinit const Status kOkStatus;

/// \brief Either a value of type T or an error Status.
///
/// Mirrors arrow::Result. Accessing the value of an errored Result aborts,
/// so callers must check ok() (or use OMEGA_ASSIGN_OR_RETURN).
template <typename T>
class Result {
 public:
  Result(T value) : payload_(std::move(value)) {}              // NOLINT implicit
  Result(Status status) : payload_(std::move(status)) {}       // NOLINT implicit

  bool ok() const { return std::holds_alternative<T>(payload_); }

  const Status& status() const {
    if (ok()) return kOkStatus;
    return std::get<Status>(payload_);
  }

  T& value() & { return std::get<T>(payload_); }
  const T& value() const& { return std::get<T>(payload_); }
  T&& value() && { return std::move(std::get<T>(payload_)); }

  T ValueOr(T alt) const {
    if (ok()) return value();
    return alt;
  }

 private:
  std::variant<T, Status> payload_;
};

}  // namespace omega

/// Propagates a non-OK Status from the enclosing function.
#define OMEGA_RETURN_NOT_OK(expr)            \
  do {                                       \
    ::omega::Status _st = (expr);            \
    if (!_st.ok()) return _st;               \
  } while (false)

#define OMEGA_CONCAT_IMPL(a, b) a##b
#define OMEGA_CONCAT(a, b) OMEGA_CONCAT_IMPL(a, b)

/// Assigns the value of a Result expression to `lhs`, or propagates its error.
#define OMEGA_ASSIGN_OR_RETURN(lhs, expr)                          \
  auto OMEGA_CONCAT(_res_, __LINE__) = (expr);                     \
  if (!OMEGA_CONCAT(_res_, __LINE__).ok())                         \
    return OMEGA_CONCAT(_res_, __LINE__).status();                 \
  lhs = std::move(OMEGA_CONCAT(_res_, __LINE__)).value()
