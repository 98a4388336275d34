// Status / Result<T> error handling, in the style used by database engines
// (RocksDB / Arrow): no exceptions on core paths, explicit error codes.
#ifndef RELCOMP_UTIL_STATUS_H_
#define RELCOMP_UTIL_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace relcomp {

/// Error category for a failed operation.
enum class StatusCode {
  kOk = 0,
  /// Malformed input (bad arity, unknown relation, unsafe query, ...).
  kInvalidArgument,
  /// The requested analysis is undecidable for this query language / model
  /// combination (Table I of the paper); a bounded procedure must be used.
  kUndecidable,
  /// An enumeration budget was exhausted before the search finished.
  kResourceExhausted,
  /// Referenced entity (relation, attribute, query) does not exist.
  kNotFound,
  /// Parse error in the textual query / schema language.
  kParseError,
  /// Internal invariant violation.
  kInternal,
  /// The service refused admission (per-tenant queue quota exceeded under
  /// OverloadPolicy::kReject). Distinct from kResourceExhausted, which
  /// reports a decider's own search budget running out.
  kUnavailable,
  /// A deadline passed: either while the request was still queued (shed
  /// before evaluation) or mid-run, observed by a cooperative checkpoint
  /// inside the search loops (the evaluation aborted with partial stats).
  kDeadlineExceeded,
  /// Every waiter cancelled the request — before evaluation started, or
  /// while it ran (the search observed the joint cancellation at a
  /// checkpoint and aborted).
  kCancelled,
  // Storage errors. Appended after kCancelled so that the status codes
  // persisted in cache snapshots keep their numbers.
  /// Stored bytes are damaged: a bad magic, a checksum mismatch, a payload
  /// that does not decode, or bytes trailing it.
  kCorruption,
  /// Stored bytes are missing: the file is shorter than its header says.
  kDataLoss,
  /// Stored bytes were written in a format version this build cannot read.
  kVersionMismatch,
  /// The operating system refused a file operation (open, write, rename).
  kIoError,
};

/// Human-readable name of a StatusCode.
const char* StatusCodeName(StatusCode code);

/// A success-or-error outcome carrying a code and a message. [[nodiscard]]:
/// an error value can never be dropped silently; discard one explicitly,
/// with `(void)`, where ignoring it is the design.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status Undecidable(std::string msg) {
    return Status(StatusCode::kUndecidable, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }
  static Status VersionMismatch(std::string msg) {
    return Status(StatusCode::kVersionMismatch, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<code>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// A value-or-error outcome. On success holds a T, otherwise a non-OK Status.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}          // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {}  // NOLINT(runtime/explicit)

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Access to the contained value; requires ok().
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value, or `fallback` if this result is an error.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  std::optional<T> value_;
  Status status_;
};

/// Propagates a non-OK Status out of the enclosing function.
#define RELCOMP_RETURN_IF_ERROR(expr)        \
  do {                                       \
    ::relcomp::Status _st = (expr);          \
    if (!_st.ok()) return _st;               \
  } while (0)

}  // namespace relcomp

#endif  // RELCOMP_UTIL_STATUS_H_
