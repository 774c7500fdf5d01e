#ifndef KBOOST_UTIL_PARSE_H_
#define KBOOST_UTIL_PARSE_H_

#include <cstdint>

#include "src/util/status.h"

namespace kboost {

/// Strictly parses `text` as a base-10 unsigned 64-bit integer: the whole
/// string must be the number — no leading sign, no trailing characters, no
/// empty input — and the value must fit in uint64_t (overflow is rejected,
/// not wrapped). This is the validated replacement for the bare
/// `std::strtoull(s, nullptr, 10)` pattern, which silently turns garbage
/// like "abc" into 0 and saturates overflow without any error; every CLI
/// flag and example that accepts an integer goes through here.
/// InvalidArgument on any malformed input, with `what` naming the input in
/// the message (e.g. "--k").
Status ParseUint64(const char* text, const char* what, uint64_t* out);

/// Strictly parses `text` as a finite base-10 double: the whole string must
/// be the number — an optional sign, digits with at most one decimal point,
/// an optional exponent — so no whitespace, trailing characters, empty
/// input, inf/nan or hex floats. The validated replacement for bare
/// `std::atof`, which turns "abc" into 0 and "0.5x" into 0.5. Range checks
/// (a scale in (0, 1], say) stay with the caller. InvalidArgument on
/// malformed input and OutOfRange when the value overflows or underflows a
/// double, with `what` naming the input in the message.
Status ParseDouble(const char* text, const char* what, double* out);

}  // namespace kboost

#endif  // KBOOST_UTIL_PARSE_H_
