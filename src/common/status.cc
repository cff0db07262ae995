#include "common/status.h"

#include <cstdio>
#include <cstdlib>

namespace cfcm {

namespace {

const char* CodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kIoError:
      return "IoError";
    case StatusCode::kNumericalError:
      return "NumericalError";
  }
  return "Unknown";
}

}  // namespace

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = CodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

void DieOnErrorValueAccess(const Status& status) {
  std::fprintf(stderr, "StatusOr value read on error status: %s\n",
               status.ToString().c_str());
  std::abort();
}

}  // namespace cfcm
