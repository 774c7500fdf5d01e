#include "src/util/parse.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

namespace kboost {

Status ParseUint64(const char* text, const char* what, uint64_t* out) {
  if (text == nullptr || *text == '\0') {
    return Status::InvalidArgument(std::string(what) +
                                   " must be a non-negative integer, got ''");
  }
  // strtoull accepts leading whitespace and a sign (and negates through
  // unsigned wraparound); a flag value is a bare digit string, so anything
  // that does not start with a digit is malformed.
  if (text[0] < '0' || text[0] > '9') {
    return Status::InvalidArgument(std::string(what) +
                                   " must be a non-negative integer, got '" +
                                   text + "'");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*end != '\0') {
    return Status::InvalidArgument(std::string(what) +
                                   " must be a non-negative integer, got '" +
                                   text + "'");
  }
  if (errno == ERANGE) {
    return Status::OutOfRange(std::string(what) + " value '" + text +
                              "' overflows a 64-bit integer");
  }
  *out = static_cast<uint64_t>(value);
  return Status::Ok();
}

Status ParseDouble(const char* text, const char* what, double* out) {
  const auto malformed = [&] {
    return Status::InvalidArgument(std::string(what) +
                                   " must be a decimal number, got '" +
                                   (text == nullptr ? "" : text) + "'");
  };
  // strtod also takes leading whitespace, "inf", "nan" and hex floats;
  // limiting the alphabet to decimal notation rejects all three up front.
  if (text == nullptr || *text == '\0' ||
      text[std::strspn(text, "0123456789.eE+-")] != '\0') {
    return malformed();
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0') return malformed();
  if (errno == ERANGE || !std::isfinite(value)) {
    return Status::OutOfRange(std::string(what) + " value '" + text +
                              "' is out of a double's range");
  }
  *out = value;
  return Status::Ok();
}

}  // namespace kboost
