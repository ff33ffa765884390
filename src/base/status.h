// Error model for the Solros libraries.
//
// The project follows the Google style rule of not using exceptions for
// control flow. Fallible operations return a `Status` (or a `Result<T>`,
// which is a Status plus a value). Codes intentionally mirror the POSIX
// errors that the paper's file-system and network services surface.
#ifndef SOLROS_SRC_BASE_STATUS_H_
#define SOLROS_SRC_BASE_STATUS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace solros {

enum class ErrorCode : uint8_t {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kResourceExhausted,  // no space / quota (ENOSPC)
  kWouldBlock,         // non-blocking op cannot proceed (EWOULDBLOCK)
  kNotSupported,
  kPermissionDenied,
  kFailedPrecondition,  // e.g. directory not empty, fs not mounted
  kIoError,
  kConnectionReset,
  kNotConnected,
  kTimedOut,
  kInternal,
};

// Returns a stable human-readable name ("kOk" -> "OK").
std::string_view ErrorCodeName(ErrorCode code);

// True when `code` means the system (device, DMA, transport) failed, as
// opposed to benign outcomes that correct programs produce all the time
// (kNotFound, kAlreadyExists, bad handles, unsupported ops). A system error
// that escapes a proxy keeps its trace under tail-based sampling.
bool IsSystemError(ErrorCode code);

// True when `code` is a fault that may clear if the operation is reissued:
// a timeout or an I/O error. The recovery layers retry on these, and the
// FS proxy degrades a P2P transfer to the buffered path on them.
bool IsTransientError(ErrorCode code);

// A cheap, value-type status. Ok statuses carry no allocation.
class Status {
 public:
  Status() : code_(ErrorCode::kOk) {}
  explicit Status(ErrorCode code) : code_(code) {}
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "kIoError: disk detached".
  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  ErrorCode code_;
  std::string message_;
};

// Shorthand constructors, mirroring absl::*Error.
inline Status OkStatus() { return Status(); }
inline Status InvalidArgumentError(std::string msg) {
  return Status(ErrorCode::kInvalidArgument, std::move(msg));
}
inline Status NotFoundError(std::string msg) {
  return Status(ErrorCode::kNotFound, std::move(msg));
}
inline Status AlreadyExistsError(std::string msg) {
  return Status(ErrorCode::kAlreadyExists, std::move(msg));
}
inline Status OutOfRangeError(std::string msg) {
  return Status(ErrorCode::kOutOfRange, std::move(msg));
}
inline Status ResourceExhaustedError(std::string msg) {
  return Status(ErrorCode::kResourceExhausted, std::move(msg));
}
inline Status NotSupportedError(std::string msg) {
  return Status(ErrorCode::kNotSupported, std::move(msg));
}
inline Status FailedPreconditionError(std::string msg) {
  return Status(ErrorCode::kFailedPrecondition, std::move(msg));
}
inline Status IoError(std::string msg) {
  return Status(ErrorCode::kIoError, std::move(msg));
}
inline Status TimedOutError(std::string msg) {
  return Status(ErrorCode::kTimedOut, std::move(msg));
}
inline Status InternalError(std::string msg) {
  return Status(ErrorCode::kInternal, std::move(msg));
}

// Result<T>: either a value or a non-OK Status.
template <typename T>
class Result {
 public:
  Result(T value) : storage_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : storage_(std::move(status)) {}  // NOLINT
  Result(ErrorCode code) : storage_(Status(code)) {}      // NOLINT

  bool ok() const { return std::holds_alternative<T>(storage_); }

  const Status& status() const {
    static const Status kOk;
    if (ok()) {
      return kOk;
    }
    return std::get<Status>(storage_);
  }
  ErrorCode code() const { return ok() ? ErrorCode::kOk : status().code(); }

  T& value() & { return std::get<T>(storage_); }
  const T& value() const& { return std::get<T>(storage_); }
  T&& value() && { return std::get<T>(std::move(storage_)); }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  T value_or(T fallback) const {
    return ok() ? value() : std::move(fallback);
  }

 private:
  std::variant<T, Status> storage_;
};

// Uniform accessors used by CHECK_OK in logging.h.
inline const Status& GetStatus(const Status& status) { return status; }
template <typename T>
const Status& GetStatus(const Result<T>& result) {
  return result.status();
}

// Propagation helpers. Usable in any function (or coroutine) whose return
// type can be constructed from a Status.
#define SOLROS_RETURN_IF_ERROR(expr)     \
  do {                                   \
    ::solros::Status _st = (expr);       \
    if (!_st.ok()) {                     \
      return _st;                        \
    }                                    \
  } while (0)

#define SOLROS_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                                 \
  if (!tmp.ok()) {                                   \
    return tmp.status();                             \
  }                                                  \
  lhs = std::move(tmp).value()

#define SOLROS_CONCAT_INNER(a, b) a##b
#define SOLROS_CONCAT(a, b) SOLROS_CONCAT_INNER(a, b)
#define SOLROS_ASSIGN_OR_RETURN(lhs, expr) \
  SOLROS_ASSIGN_OR_RETURN_IMPL(SOLROS_CONCAT(_res_, __LINE__), lhs, expr)

// Coroutine variants (a plain `return` is ill-formed in a coroutine body).
#define SOLROS_CO_RETURN_IF_ERROR(expr)  \
  do {                                   \
    ::solros::Status _st = (expr);       \
    if (!_st.ok()) {                     \
      co_return _st;                     \
    }                                    \
  } while (0)

#define SOLROS_CO_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                                    \
  if (!tmp.ok()) {                                      \
    co_return tmp.status();                             \
  }                                                     \
  lhs = std::move(tmp).value()

#define SOLROS_CO_ASSIGN_OR_RETURN(lhs, expr) \
  SOLROS_CO_ASSIGN_OR_RETURN_IMPL(SOLROS_CONCAT(_res_, __LINE__), lhs, expr)

}  // namespace solros

#endif  // SOLROS_SRC_BASE_STATUS_H_
