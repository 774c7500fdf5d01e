#ifndef KBOOST_NET_CLIENT_H_
#define KBOOST_NET_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/net/wire.h"
#include "src/serve/service_stats.h"
#include "src/util/status.h"

namespace kboost {

struct ClientOptions {
  /// Socket send/receive timeout (SO_SNDTIMEO/SO_RCVTIMEO, also bounding
  /// the connect); 0 disables it, so every call waits indefinitely. A
  /// remote solve on a large pool can take seconds, so a nonzero value must
  /// comfortably exceed the request's own deadline.
  uint64_t io_timeout_ms = 30000;
  /// Decoder bound on reply frames (mirror of the server-side bound).
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

/// Blocking kboostd client: one TCP connection, one request in flight at a
/// time (the server's per-connection contract). Not thread-safe — share a
/// client across threads by giving each thread its own.
///
/// Two error channels, deliberately distinct:
///   - The StatusOr wrapper reports TRANSPORT failures only: connect/write/
///     read errors, timeouts, protocol violations, and server-sent error
///     frames (which also mean the server is closing this connection).
///   - A successfully transported QueryReply/RefreshReply carries the remote
///     operation's own typed Status in its `status` field — a remote
///     DeadlineExceeded or kUnavailable shed is a *successful* round trip
///     whose payload says the solve did not happen. Callers classifying
///     overload outcomes read reply.status, not the wrapper.
class KboostClient {
 public:
  /// Connects (IPv4, blocking with io_timeout_ms) to host:port.
  static StatusOr<std::unique_ptr<KboostClient>> Connect(
      const std::string& host, uint16_t port,
      const ClientOptions& options = ClientOptions());

  ~KboostClient();
  KboostClient(const KboostClient&) = delete;
  KboostClient& operator=(const KboostClient&) = delete;

  /// Round-trips one query. See the class comment for the error split.
  StatusOr<WireQueryReply> Query(const WireQuery& query);

  /// Fetches the service-wide stats snapshot.
  StatusOr<ServiceStatsSnapshot> Stats();

  /// Asks the server to hot-swap a pool from a server-local snapshot path.
  StatusOr<WireRefreshReply> Refresh(const WireRefresh& refresh);

  /// Requests graceful server shutdown (if the server allows remote
  /// shutdown). Ok means the server acknowledged and is now draining.
  Status Shutdown();

  /// Closes the connection; subsequent calls return FailedPrecondition.
  void Close();
  bool connected() const { return fd_ >= 0; }

 private:
  explicit KboostClient(int fd, const ClientOptions& options)
      : fd_(fd), options_(options) {}

  /// Writes `frame`, reads exactly one reply frame, verifies the echoed
  /// request id and that the type is `expected` (an error frame instead
  /// surfaces its typed payload status and closes the connection).
  Status RoundTrip(const std::string& frame, uint32_t request_id,
                   FrameType expected, std::string* reply_body);

  int fd_ = -1;
  const ClientOptions options_;
  uint32_t next_request_id_ = 1;
};

}  // namespace kboost

#endif  // KBOOST_NET_CLIENT_H_
