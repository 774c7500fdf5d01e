#ifndef KBOOST_NET_WIRE_H_
#define KBOOST_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/prr_boost.h"
#include "src/graph/graph.h"
#include "src/serve/service_stats.h"
#include "src/util/status.h"

namespace kboost {

/// The kboostd wire protocol: a minimal-dependency length-prefixed binary
/// framing over TCP. Every frame is a fixed 16-byte little-endian header
/// followed by `body_len` body bytes:
///
///   offset  size  field
///        0     4  magic      "KBST" (0x4B 0x42 0x53 0x54 on the wire)
///        4     1  version    kWireVersion; mismatches are rejected typed
///        5     1  type       FrameType
///        6     2  flags      reserved, MUST be zero (rejected otherwise)
///        8     4  request_id echoed verbatim in the matching reply
///       12     4  body_len   bytes that follow; bounded by the decoder's
///                            configured max frame size
///
/// Body scalars are little-endian fixed width; doubles travel as their
/// IEEE-754 bit pattern in a uint64, so estimates survive the wire
/// bit-identically (the loadgen's divergence gate depends on it). Strings
/// and node vectors are length-prefixed. Every decoder is bounds-checked
/// against the declared body and must consume it exactly — trailing bytes
/// are a typed error, never ignored. docs/PROTOCOL.md is the normative
/// description.
inline constexpr uint32_t kWireMagic = 0x5453424Bu;  // "KBST" little-endian
inline constexpr uint8_t kWireVersion = 5;
inline constexpr size_t kFrameHeaderBytes = 16;
/// Default decoder bound on body_len. Generous for answers (a selection is
/// k u32s) yet small enough that a hostile length can't balloon memory.
inline constexpr size_t kDefaultMaxFrameBytes = 1u << 20;

/// Frame discriminator. Requests are odd, their replies even; kError is the
/// server's typed answer to a frame it could not parse (sent once, then the
/// connection closes).
enum class FrameType : uint8_t {
  kQuery = 1,
  kQueryReply = 2,
  kStats = 3,
  kStatsReply = 4,
  kRefresh = 5,
  kRefreshReply = 6,
  kShutdown = 7,
  kShutdownReply = 8,
  kError = 9,
};

/// Decoded frame header (magic/flags validated away).
struct FrameHeader {
  FrameType type = FrameType::kError;
  uint32_t request_id = 0;
  uint32_t body_len = 0;
};

/// Appends the 16-byte header for (type, request_id, body_len) to `out`.
void AppendFrameHeader(FrameType type, uint32_t request_id, uint32_t body_len,
                       std::string* out);

/// Decodes a header from exactly kFrameHeaderBytes bytes. Typed rejection of
/// bad magic, unknown version, nonzero flags, unknown frame type, and a
/// body_len above `max_frame_bytes` — the decoder-hardening matrix in
/// tests/net_test.cc covers each case.
Status DecodeFrameHeader(const uint8_t* bytes, size_t max_frame_bytes,
                         FrameHeader* out);

// ---- Status codes on the wire ---------------------------------------------

/// Maps a StatusCode to its stable wire value. The wire values are pinned
/// independently of the enum's numeric values so reordering StatusCode can
/// never silently change the protocol; net_test round-trips every code.
uint8_t WireCodeFromStatus(StatusCode code);

/// Inverse mapping; InvalidArgument for an unknown wire value.
StatusOr<StatusCode> StatusCodeFromWire(uint8_t wire_code);

// ---- Frame bodies ----------------------------------------------------------

/// A query request on the wire — the network twin of BoostRequest.
struct WireQuery {
  std::string pool;
  uint64_t k = 0;
  SolveMode mode = SolveMode::kAuto;
};

/// A query reply on the wire: the typed Status outcome plus, when OK, the
/// answer fields a client (and kbench's bit-identity check) consumes. Every
/// non-OK outcome of a query — a bad request, an unknown pool, the drain's
/// Unavailable — travels here typed, never as a dropped connection.
struct WireQueryReply {
  Status status;  ///< the remote Solve outcome, typed
  uint64_t pool_version = 0;
  double solve_seconds = 0.0;
  std::vector<NodeId> best_set;
  double best_estimate = 0.0;
  std::vector<NodeId> lb_set;
  double lb_mu_hat = 0.0;
  double lb_delta_hat = 0.0;
  std::vector<NodeId> delta_set;
  double delta_delta_hat = 0.0;
  uint64_t pool_budget = 0;
  bool pool_reused = false;
  uint64_t num_samples = 0;
  uint64_t num_boostable = 0;
};

/// Admin: hot-swap `pool` from a server-local snapshot path (the wire face
/// of BoostService::RefreshPoolFromSnapshot).
struct WireRefresh {
  std::string pool;
  std::string snapshot_path;
};

struct WireRefreshReply {
  Status status;
  uint64_t version = 0;  ///< the pool's version after the swap (when OK)
};

// Encoders return a complete frame (header + body) ready to write. Decoders
// take the body bytes of a validated header and must consume them exactly.
std::string EncodeQueryFrame(uint32_t request_id, const WireQuery& query);
Status DecodeQueryBody(const uint8_t* body, size_t len, WireQuery* out);

std::string EncodeQueryReplyFrame(uint32_t request_id,
                                  const WireQueryReply& reply);
Status DecodeQueryReplyBody(const uint8_t* body, size_t len,
                            WireQueryReply* out);

std::string EncodeStatsFrame(uint32_t request_id);
std::string EncodeStatsReplyFrame(uint32_t request_id,
                                  const ServiceStatsSnapshot& stats);
Status DecodeStatsReplyBody(const uint8_t* body, size_t len,
                            ServiceStatsSnapshot* out);

std::string EncodeRefreshFrame(uint32_t request_id, const WireRefresh& refresh);
Status DecodeRefreshBody(const uint8_t* body, size_t len, WireRefresh* out);

std::string EncodeRefreshReplyFrame(uint32_t request_id,
                                    const WireRefreshReply& reply);
Status DecodeRefreshReplyBody(const uint8_t* body, size_t len,
                              WireRefreshReply* out);

std::string EncodeShutdownFrame(uint32_t request_id);
std::string EncodeShutdownReplyFrame(uint32_t request_id);

/// The server's one-shot protocol-error frame: a typed Status explaining why
/// the connection is about to close (bad magic, bad version, oversized
/// frame, malformed body, ...).
std::string EncodeErrorFrame(uint32_t request_id, const Status& error);
Status DecodeErrorBody(const uint8_t* body, size_t len, Status* out);

/// Status-carrier bodies (query replies, refresh replies, error frames) all
/// start with [u8 wire code][u32 len][message bytes]; this decodes that
/// prefix for clients that only need the outcome.
Status DecodeStatusPrefix(const uint8_t* body, size_t len, Status* out);

}  // namespace kboost

#endif  // KBOOST_NET_WIRE_H_
