#include "src/util/parse.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
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

const char* FlagValue(int argc, char** argv, int start, const char* name) {
  const size_t len = std::strlen(name);
  for (int i = start; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return nullptr;
}

bool HasFlag(int argc, char** argv, int start, const char* name) {
  for (int i = start; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

bool ValidateFlags(int argc, char** argv, int start, const char* command,
                   std::initializer_list<const char*> value_flags,
                   std::initializer_list<const char*> switches) {
  for (int i = start; i < argc; ++i) {
    const char* arg = argv[i];
    bool known = false;
    for (const char* name : value_flags) {
      const size_t len = std::strlen(name);
      known |= std::strncmp(arg, name, len) == 0 && arg[len] == '=';
    }
    for (const char* name : switches) known |= std::strcmp(arg, name) == 0;
    if (!known) {
      std::fprintf(stderr, "error: unknown flag '%s' for '%s'\n", arg,
                   command);
      return false;
    }
  }
  return true;
}

bool ParseUint64Flag(int argc, char** argv, int start, const char* name,
                     uint64_t* out) {
  const char* text = FlagValue(argc, argv, start, name);
  if (text == nullptr) return true;
  if (Status s = ParseUint64(text, name, out); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return false;
  }
  return true;
}

}  // namespace kboost
