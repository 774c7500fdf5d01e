#ifndef KBOOST_UTIL_STATUS_H_
#define KBOOST_UTIL_STATUS_H_

#include <string>
#include <utility>

namespace kboost {

/// Error codes for fallible operations. Library code never throws; operations
/// that can fail for non-programming-error reasons (I/O, malformed input)
/// return a Status or StatusOr<T>.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kInternal = 4,
  kIoError = 5,
  kFailedPrecondition = 6,
  /// Nothing produces it today; the code and its wire value stay frozen.
  kCancelled = 7,
  /// A wait ran out of time: the client's socket send or receive timed out
  /// (ClientOptions::io_timeout_ms).
  kDeadlineExceeded = 8,
  /// A bounded resource was at capacity. Nothing produces it today; the code
  /// and its wire value stay frozen.
  kResourceExhausted = 9,
  /// The service as a whole cannot take the request right now — it is
  /// shutting down, or the connection was refused at the front door
  /// (connection limit). Clients should back off and retry against the
  /// same or another replica.
  kUnavailable = 10,
};

/// A lightweight success-or-error result, in the style of database engines
/// (RocksDB's Status / absl::Status). Cheap to copy when OK.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

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
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable rendering, e.g. "INVALID_ARGUMENT: bad edge".
  std::string ToString() const;

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status. Accessing the value of a
/// non-OK StatusOr aborts the process (contract violation).
template <typename T>
class StatusOr {
 public:
  /// Implicit construction from a value (mirrors absl::StatusOr ergonomics).
  StatusOr(T value) : status_(), value_(std::move(value)) {}  // NOLINT
  /// Implicit construction from a non-OK status.
  StatusOr(Status status) : status_(std::move(status)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    AbortIfNotOk();
    return value_;
  }
  T& value() & {
    AbortIfNotOk();
    return value_;
  }
  T&& value() && {
    AbortIfNotOk();
    return std::move(value_);
  }

  /// Dereference sugar, mirroring absl::StatusOr: same abort-on-error
  /// contract as value().
  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const {
    AbortIfNotOk();
    return &value_;
  }
  T* operator->() {
    AbortIfNotOk();
    return &value_;
  }

  /// The value, or `fallback` when this holds an error (never aborts).
  T value_or(T fallback) const& { return ok() ? value_ : std::move(fallback); }
  T value_or(T fallback) && {
    return ok() ? std::move(value_) : std::move(fallback);
  }

 private:
  void AbortIfNotOk() const;

  Status status_;
  T value_{};
};

namespace internal {
[[noreturn]] void DieStatusOrValue(const Status& status);
}  // namespace internal

template <typename T>
void StatusOr<T>::AbortIfNotOk() const {
  if (!status_.ok()) internal::DieStatusOrValue(status_);
}

}  // namespace kboost

#endif  // KBOOST_UTIL_STATUS_H_
