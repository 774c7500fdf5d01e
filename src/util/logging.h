#ifndef KBOOST_UTIL_LOGGING_H_
#define KBOOST_UTIL_LOGGING_H_

#include <sstream>
#include <string>

namespace kboost {
namespace internal {

/// Stream-style sink of a failed check. Collects the message, writes it to
/// stderr as one line on destruction, then aborts the process.
class FatalMessage {
 public:
  FatalMessage(const char* file, int line);
  ~FatalMessage();

  FatalMessage(const FatalMessage&) = delete;
  FatalMessage& operator=(const FatalMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace kboost

/// Contract check: aborts with a message when `cond` is false. Used for
/// programming errors (invalid indices, broken invariants), never for
/// recoverable conditions — those return Status.
#define KB_CHECK(cond)                                               \
  if (!(cond))                                                       \
  ::kboost::internal::FatalMessage(__FILE__, __LINE__).stream()      \
      << "Check failed: " #cond " "

#define KB_CHECK_OK(status_expr)                                     \
  if (const ::kboost::Status& kb_check_ok_s = (status_expr);         \
      !kb_check_ok_s.ok())                                           \
  ::kboost::internal::FatalMessage(__FILE__, __LINE__).stream()      \
      << "Non-OK status: " << kb_check_ok_s.ToString() << " "

#ifndef NDEBUG
#define KB_DCHECK(cond) KB_CHECK(cond)
#else
#define KB_DCHECK(cond) \
  if (false) KB_CHECK(cond)
#endif

#endif  // KBOOST_UTIL_LOGGING_H_
