// Lightweight Status / StatusOr error-handling primitives (RocksDB/Arrow
// idiom): fallible library entry points return Status or StatusOr<T>
// instead of throwing.
#ifndef CFCM_COMMON_STATUS_H_
#define CFCM_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace cfcm {

/// Error categories used across the library.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kIoError,
  kNumericalError,
};

/// \brief Result of a fallible operation: a code plus a human-readable
/// message. `Status::Ok()` carries no message.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status NumericalError(std::string msg) {
    return Status(StatusCode::kNumericalError, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Short textual form, e.g. "InvalidArgument: k must be positive".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Prints `status` and aborts: the value of an error StatusOr was read.
/// Not compiled out in any build type.
[[noreturn]] void DieOnErrorValueAccess(const Status& status);

/// \brief Either a value of type T or an error Status.
///
/// Check `ok()` first: reading the value (`value()`, `*`, `->`) of an
/// error StatusOr prints its status and aborts, in every build type.
template <typename T>
class StatusOr {
 public:
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  StatusOr(Status status) : status_(std::move(status)) {
    assert(!status_.ok() && "StatusOr(Status) requires a non-OK status");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  T& value() & {
    CheckOk();
    return *value_;
  }
  const T& value() const& {
    CheckOk();
    return *value_;
  }
  T&& value() && {
    CheckOk();
    return std::move(*value_);
  }

  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  void CheckOk() const {
    if (!ok()) DieOnErrorValueAccess(status_);
  }

  Status status_;
  std::optional<T> value_;
};

/// Propagates a non-OK status to the caller.
#define CFCM_RETURN_IF_ERROR(expr)        \
  do {                                    \
    ::cfcm::Status _st = (expr);          \
    if (!_st.ok()) return _st;            \
  } while (0)

}  // namespace cfcm

#endif  // CFCM_COMMON_STATUS_H_
