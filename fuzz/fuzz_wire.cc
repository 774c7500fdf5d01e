// Fuzz harness for the untrusted side of the wire protocol (src/net/wire):
// the frame-header decoder and every body decoder that parses bytes a
// hostile peer controls. The server feeds network bytes through exactly
// these functions before trusting anything, so "no crash, no hang, no
// overread on arbitrary input" here is the protocol's memory-safety story.
//
// Shape of one input: the bytes are fed (1) through DecodeFrameHeader plus
// the body decoder the decoded type selects — the server's real parse path —
// and (2) through every body decoder directly, so a mutation does not need a
// valid 16-byte header before it can reach DecodeQueryBody and friends.
// Whenever a body decodes, it is re-encoded and re-decoded and the results
// compared field for field: decode∘encode must be the identity on anything
// the decoder accepts, or the client and server disagree about what was
// said.
//
// Builds two ways (see CMakeLists.txt):
//   * KBOOST_LIBFUZZER=ON  — libFuzzer drives (Clang, -fsanitize=fuzzer),
//   * default              — fuzz/standalone_main.cc replays the checked-in
//                            corpus plus deterministic mutations of it; this
//                            is the CI smoke and works under GCC.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/net/wire.h"

namespace kboost {
namespace {

// Fuzzers abort on property violations; KB_CHECK-style logging is overkill.
#define FUZZ_ASSERT(cond)                                                  \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "FUZZ_ASSERT failed at %s:%d: %s\n", __FILE__,  \
                   __LINE__, #cond);                                       \
      std::abort();                                                        \
    }                                                                      \
  } while (0)

void CheckQueryRoundTrip(const uint8_t* body, size_t len) {
  WireQuery query;
  if (!DecodeQueryBody(body, len, &query).ok()) return;
  const std::string frame = EncodeQueryFrame(0x1234u, query);
  FUZZ_ASSERT(frame.size() >= kFrameHeaderBytes);
  WireQuery again;
  FUZZ_ASSERT(DecodeQueryBody(
                  reinterpret_cast<const uint8_t*>(frame.data()) +
                      kFrameHeaderBytes,
                  frame.size() - kFrameHeaderBytes, &again)
                  .ok());
  FUZZ_ASSERT(again.pool == query.pool);
  FUZZ_ASSERT(again.k == query.k);
  FUZZ_ASSERT(again.mode == query.mode);
}

void CheckQueryReplyRoundTrip(const uint8_t* body, size_t len) {
  WireQueryReply reply;
  if (!DecodeQueryReplyBody(body, len, &reply).ok()) return;
  const std::string frame = EncodeQueryReplyFrame(7u, reply);
  WireQueryReply again;
  FUZZ_ASSERT(DecodeQueryReplyBody(
                  reinterpret_cast<const uint8_t*>(frame.data()) +
                      kFrameHeaderBytes,
                  frame.size() - kFrameHeaderBytes, &again)
                  .ok());
  FUZZ_ASSERT(again.status.code() == reply.status.code());
  FUZZ_ASSERT(again.status.message() == reply.status.message());
  FUZZ_ASSERT(again.pool_version == reply.pool_version);
  FUZZ_ASSERT(again.best_set == reply.best_set);
  FUZZ_ASSERT(again.lb_set == reply.lb_set);
  FUZZ_ASSERT(again.delta_set == reply.delta_set);
  // Doubles travel as IEEE-754 bit patterns, so bit-compare via memcmp —
  // operator== would erase a NaN-preservation bug.
  FUZZ_ASSERT(std::memcmp(&again.best_estimate, &reply.best_estimate,
                          sizeof(double)) == 0);
  FUZZ_ASSERT(std::memcmp(&again.lb_mu_hat, &reply.lb_mu_hat,
                          sizeof(double)) == 0);
  FUZZ_ASSERT(std::memcmp(&again.lb_delta_hat, &reply.lb_delta_hat,
                          sizeof(double)) == 0);
  FUZZ_ASSERT(std::memcmp(&again.delta_delta_hat, &reply.delta_delta_hat,
                          sizeof(double)) == 0);
  FUZZ_ASSERT(again.pool_budget == reply.pool_budget);
  FUZZ_ASSERT(again.pool_reused == reply.pool_reused);
  FUZZ_ASSERT(again.num_samples == reply.num_samples);
  FUZZ_ASSERT(again.num_boostable == reply.num_boostable);
}

void CheckRefreshRoundTrip(const uint8_t* body, size_t len) {
  WireRefresh refresh;
  if (!DecodeRefreshBody(body, len, &refresh).ok()) return;
  const std::string frame = EncodeRefreshFrame(3u, refresh);
  WireRefresh again;
  FUZZ_ASSERT(DecodeRefreshBody(
                  reinterpret_cast<const uint8_t*>(frame.data()) +
                      kFrameHeaderBytes,
                  frame.size() - kFrameHeaderBytes, &again)
                  .ok());
  FUZZ_ASSERT(again.pool == refresh.pool);
  FUZZ_ASSERT(again.snapshot_path == refresh.snapshot_path);
}

void CheckRefreshReplyRoundTrip(const uint8_t* body, size_t len) {
  WireRefreshReply reply;
  if (!DecodeRefreshReplyBody(body, len, &reply).ok()) return;
  const std::string frame = EncodeRefreshReplyFrame(9u, reply);
  WireRefreshReply again;
  FUZZ_ASSERT(DecodeRefreshReplyBody(
                  reinterpret_cast<const uint8_t*>(frame.data()) +
                      kFrameHeaderBytes,
                  frame.size() - kFrameHeaderBytes, &again)
                  .ok());
  FUZZ_ASSERT(again.status.code() == reply.status.code());
  FUZZ_ASSERT(again.status.message() == reply.status.message());
  FUZZ_ASSERT(again.version == reply.version);
}

void CheckStatsReplyDecode(const uint8_t* body, size_t len) {
  ServiceStatsSnapshot snapshot;
  (void)DecodeStatsReplyBody(body, len, &snapshot);
}

void CheckErrorRoundTrip(const uint8_t* body, size_t len) {
  Status error = Status::Ok();
  if (!DecodeErrorBody(body, len, &error).ok()) return;
  Status prefix = Status::Ok();
  FUZZ_ASSERT(DecodeStatusPrefix(body, len, &prefix).ok());
  FUZZ_ASSERT(prefix.code() == error.code());
  // An OK "error" frame is undecodable-as-error but fine as a prefix; only
  // re-encode genuine errors (EncodeErrorFrame requires !ok).
  if (error.ok()) return;
  const std::string frame = EncodeErrorFrame(1u, error);
  Status again = Status::Ok();
  FUZZ_ASSERT(DecodeErrorBody(reinterpret_cast<const uint8_t*>(frame.data()) +
                                  kFrameHeaderBytes,
                              frame.size() - kFrameHeaderBytes, &again)
                  .ok());
  FUZZ_ASSERT(again.code() == error.code());
  FUZZ_ASSERT(again.message() == error.message());
}

void FuzzOne(const uint8_t* data, size_t size) {
  // (1) The server's real parse path: header first, then the body decoder
  // the decoded type selects, over the declared body span.
  if (size >= kFrameHeaderBytes) {
    FrameHeader header;
    const Status status =
        DecodeFrameHeader(data, kDefaultMaxFrameBytes, &header);
    if (status.ok()) {
      const uint8_t* body = data + kFrameHeaderBytes;
      const size_t avail = size - kFrameHeaderBytes;
      // The server never hands a decoder more than body_len bytes; honor
      // the declared length when the input actually carries it.
      const size_t len = header.body_len <= avail ? header.body_len : avail;
      switch (header.type) {
        case FrameType::kQuery:
          CheckQueryRoundTrip(body, len);
          break;
        case FrameType::kQueryReply:
          CheckQueryReplyRoundTrip(body, len);
          break;
        case FrameType::kStatsReply:
          CheckStatsReplyDecode(body, len);
          break;
        case FrameType::kRefresh:
          CheckRefreshRoundTrip(body, len);
          break;
        case FrameType::kRefreshReply:
          CheckRefreshReplyRoundTrip(body, len);
          break;
        case FrameType::kError:
          CheckErrorRoundTrip(body, len);
          break;
        case FrameType::kStats:
        case FrameType::kShutdown:
        case FrameType::kShutdownReply:
          break;  // body-less frames; nothing to parse
      }
    }
  }

  // (2) Every body decoder directly over the whole input, so reaching a
  // decoder does not require 16 valid header bytes first.
  CheckQueryRoundTrip(data, size);
  CheckQueryReplyRoundTrip(data, size);
  CheckStatsReplyDecode(data, size);
  CheckRefreshRoundTrip(data, size);
  CheckRefreshReplyRoundTrip(data, size);
  CheckErrorRoundTrip(data, size);

  // (3) Wire status codes: every byte value either maps to a StatusCode that
  // maps back to itself, or is typed-rejected.
  if (size >= 1) {
    StatusOr<StatusCode> code = StatusCodeFromWire(data[0]);
    if (code.ok()) FUZZ_ASSERT(WireCodeFromStatus(*code) == data[0]);
  }
}

}  // namespace
}  // namespace kboost

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  kboost::FuzzOne(data, size);
  return 0;
}
