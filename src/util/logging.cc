#include "src/util/logging.h"

#include <cstdio>
#include <cstdlib>

#include "src/util/sync.h"

namespace kboost {

namespace {
/// Serializes message emission so two threads failing a check at once
/// cannot interleave their bytes on stderr (stderr is unbuffered; one
/// fprintf is not atomic). Leaked-on-purpose shape is unnecessary here: the
/// mutex is trivially destructible state used only while the process is
/// alive.
Mutex& EmitMutex() {
  static Mutex* mu = new Mutex();
  return *mu;
}
}  // namespace

namespace internal {

FatalMessage::FatalMessage(const char* file, int line) {
  stream_ << "[F " << file << ":" << line << "] ";
}

FatalMessage::~FatalMessage() {
  std::string msg = stream_.str();
  {
    MutexLock lock(EmitMutex());
    std::fprintf(stderr, "%s\n", msg.c_str());
    std::fflush(stderr);
  }
  std::abort();
}

}  // namespace internal
}  // namespace kboost
