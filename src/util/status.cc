#include "util/status.h"

namespace relcomp {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kUndecidable:
      return "Undecidable";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kParseError:
      return "ParseError";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
    case StatusCode::kCancelled:
      return "Cancelled";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kDataLoss:
      return "DataLoss";
    case StatusCode::kVersionMismatch:
      return "VersionMismatch";
    case StatusCode::kIoError:
      return "IoError";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace relcomp
