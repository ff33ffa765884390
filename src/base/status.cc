#include "src/base/status.h"

namespace solros {

std::string_view ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk:
      return "OK";
    case ErrorCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case ErrorCode::kNotFound:
      return "NOT_FOUND";
    case ErrorCode::kAlreadyExists:
      return "ALREADY_EXISTS";
    case ErrorCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case ErrorCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case ErrorCode::kWouldBlock:
      return "WOULD_BLOCK";
    case ErrorCode::kNotSupported:
      return "NOT_SUPPORTED";
    case ErrorCode::kPermissionDenied:
      return "PERMISSION_DENIED";
    case ErrorCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case ErrorCode::kIoError:
      return "IO_ERROR";
    case ErrorCode::kConnectionReset:
      return "CONNECTION_RESET";
    case ErrorCode::kNotConnected:
      return "NOT_CONNECTED";
    case ErrorCode::kTimedOut:
      return "TIMED_OUT";
    case ErrorCode::kInternal:
      return "INTERNAL";
  }
  return "UNKNOWN";
}

bool IsSystemError(ErrorCode code) {
  switch (code) {
    case ErrorCode::kIoError:
    case ErrorCode::kTimedOut:
    case ErrorCode::kInternal:
    case ErrorCode::kResourceExhausted:
    case ErrorCode::kConnectionReset:
      return true;
    default:
      return false;
  }
}

bool IsTransientError(ErrorCode code) {
  return code == ErrorCode::kTimedOut || code == ErrorCode::kIoError;
}

std::string Status::ToString() const {
  if (ok()) {
    return "OK";
  }
  std::string out(ErrorCodeName(code_));
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace solros
