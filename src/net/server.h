#ifndef KBOOST_NET_SERVER_H_
#define KBOOST_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/net/wire.h"
#include "src/serve/boost_service.h"
#include "src/util/status.h"
#include "src/util/sync.h"

namespace kboost {

/// A connection that makes no progress for this long while the server is
/// waiting on its peer is closed: a reply is pending that the peer does not
/// read, or its input holds a partial frame that gains no byte. A
/// connection idling with nothing buffered is never reaped.
inline constexpr int kPeerStallMs = 5000;

/// How a KboostServer listens and bounds its peers.
struct ServerOptions {
  /// Address to bind; loopback by default so a daemon started for a bench
  /// never listens on the open network unless asked to.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Decoder bound on a frame's declared body length; larger declarations
  /// are rejected typed and the connection closed. A connection buffers at
  /// most two such frames of input before the server stops reading it.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Accepted connections beyond this are sent one kUnavailable error frame
  /// and closed.
  size_t max_connections = 256;
  /// Whether a SHUTDOWN admin frame from a client triggers graceful
  /// shutdown (operators may prefer signals only).
  bool allow_remote_shutdown = true;
};

/// Point-in-time serving-process counters (distinct from the
/// BoostService's per-pool Stats(): these count wire-level events).
struct ServerCounters {
  uint64_t connections_accepted = 0;
  uint64_t active_connections = 0;  ///< gauge
  uint64_t frames_received = 0;
  uint64_t protocol_errors = 0;  ///< error frames sent before closing
  uint64_t queries_dispatched = 0;   ///< QUERY frames handed to Solve
  uint64_t unavailable_rejects = 0;  ///< typed draining/connection-limit
  uint64_t admin_frames = 0;         ///< STATS / REFRESH / SHUTDOWN
};

/// The kboostd serving front-end: exposes one BoostService over TCP with
/// the length-prefixed binary protocol of src/net/wire.h.
///
/// Threading model: two threads. The event loop (epoll on Linux, poll
/// elsewhere) owns the listening socket and every connection: it reads and
/// extracts frames, answers QUERY, STATS, SHUTDOWN and every reject or error
/// inline, and performs every socket write. A prepared solve is an O(k)
/// slice of cached orders, so BoostService::Solve runs right on the loop:
/// decode, solve, encode, append to the connection's output buffer, one
/// non-blocking send. Write interest is registered only when bytes remain.
/// REFRESH alone (loading and preparing a pool, ms to s) goes to one
/// background refresh thread, which hands the encoded reply back for the
/// loop to write.
///
/// One request is processed per connection at a time: while a connection
/// has a reply pending or a refresh in flight, its next frame waits (and
/// while a reply is pending, the loop does not read at all), so at most one
/// reply is ever buffered per connection. Pipelined frames are answered in
/// order. A peer that stops reading its replies, or that leaves a partial
/// frame hanging, is closed after kPeerStallMs without progress; it never
/// blocks the loop or another connection.
///
/// Per-request deadlines resolve through BoostService's single-budget
/// deadline path: the wire deadline_ms lands in BoostRequest::deadline_ms
/// untouched, and Solve() converts it once at entry to an absolute deadline
/// covering admission and solve only. Time spent on the loop and in the
/// sockets before Solve() is entered is not charged to the budget. Since the
/// loop is the service's only solver, an admission budget configured on the
/// service never binds here. Every overload outcome (deadline miss, shutdown
/// reject, connection limit) travels as a typed frame; a connection is only
/// closed without a reply when the peer vanished or stalled, or sent bytes
/// that do not parse as a frame (and then an error frame is attempted first).
///
/// Graceful shutdown (RequestShutdown, a SHUTDOWN frame, or an installed
/// SIGINT/SIGTERM handler): the acceptor closes, frames that arrive after it
/// are answered kUnavailable, refresh jobs not yet started are answered
/// kUnavailable, and the loop exits once no refresh is running and every
/// connection's output is flushed or reaped. It then joins the refresh
/// thread and closes every connection. Admission slots cannot leak: they are
/// RAII tickets inside Solve, and nothing is in flight when the loop exits.
class KboostServer {
 public:
  /// Binds, listens and starts the event-loop and refresh threads. `service`
  /// must outlive the server. Typed errors for bind/listen failures
  /// (kUnavailable when the address is in use).
  static StatusOr<std::unique_ptr<KboostServer>> Start(
      BoostService* service, const ServerOptions& options);

  /// Graceful shutdown + join, if still running.
  ~KboostServer();

  /// The actual bound port (useful with options.port = 0).
  uint16_t port() const { return port_; }

  /// Requests graceful shutdown and returns immediately. Callable from any
  /// thread: it is one atomic store and one write() to the event loop's
  /// wake pipe.
  void RequestShutdown();

  /// RequestShutdown() + Wait().
  void Shutdown();

  /// Blocks until the server has fully shut down (event loop exited,
  /// refresh thread joined, all connections closed).
  void Wait();

  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }
  /// True once Wait() would return without blocking.
  bool finished() const { return finished_.load(std::memory_order_acquire); }

  /// Installs SIGINT/SIGTERM handlers that RequestShutdown() this server
  /// (at most one server per process may install them; FailedPrecondition
  /// otherwise). The handler is one async-signal-safe write to the wake
  /// pipe. Handlers are restored when this server is destroyed.
  Status InstallSignalHandlers();

  ServerCounters counters() const;

 private:
  struct Connection;

  /// One REFRESH on its way to the refresh thread and, with `reply` filled
  /// in, back to the loop. `conn` only identifies the connection: the
  /// refresh thread never touches it, and a reply whose connection closed
  /// meanwhile is dropped.
  struct RefreshJob {
    std::shared_ptr<Connection> conn;
    uint32_t request_id = 0;
    WireRefresh refresh;
    std::string reply;
  };

  KboostServer(BoostService* service, const ServerOptions& options)
      : service_(service), options_(options) {}

  Status Listen();
  void EventLoop();
  void RefreshLoop();

  // Event-loop internals (called only from the event-loop thread).
  void AcceptNew();
  void ReadFrom(const std::shared_ptr<Connection>& conn);
  void ProcessBuffered(const std::shared_ptr<Connection>& conn);
  void HandleFrame(const std::shared_ptr<Connection>& conn,
                   const FrameHeader& header, const uint8_t* body);
  void QueueReply(const std::shared_ptr<Connection>& conn,
                  const std::string& frame);
  void Flush(const std::shared_ptr<Connection>& conn);
  void FailConnection(const std::shared_ptr<Connection>& conn,
                      uint32_t request_id, const Status& error);
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  void HandleRefreshReplies();
  void UpdateInterest(const std::shared_ptr<Connection>& conn);
  /// Closes every connection past the peer-stall rule and returns the poll
  /// timeout (ms) until the next one could be, or -1 when none is timed.
  int ReapStalledPeers();
  /// No refresh is running and no connection has output pending.
  bool Drained() const;
  void BeginDrain();

  BoostService* service_;
  const ServerOptions options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;

  // ---- The wake pipe and the drain handshake -------------------------------
  //
  // The event loop sleeps in epoll/poll; everything that must get its
  // attention writes ONE tagged byte to this self-pipe instead of touching
  // loop state directly:
  //   'c' — the refresh thread finished a job (refresh_done_ has it),
  //   'q' — some thread called RequestShutdown(),
  //   'T' — the installed SIGINT/SIGTERM handler fired (the only operation
  //         a signal context performs is this async-signal-safe write()).
  // The loop drains the pipe, folds 'T' into shutdown_requested_, and acts
  // on its OWN thread — so connection/drain state needs no lock and no
  // signal-safety gymnastics. Shutdown then proceeds in one direction:
  //   shutdown_requested_ → BeginDrain() (close acceptor, set draining_) →
  //   no refresh running and every output flushed or reaped →
  //   stop_refresh_ under refresh_mutex_ → refresh thread joined →
  //   connections closed → finished_.
  // No step is ever reversed, which is why each flag can be an independent
  // atomic rather than multi-field state under one lock.
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;

  std::thread io_thread_;
  std::thread refresh_thread_;

  // The refresh handoff: the loop pushes jobs, the refresh thread pushes
  // them back with the reply encoded. At most one job per connection is in
  // flight, so max_connections bounds both queues.
  Mutex refresh_mutex_;
  CondVar refresh_cv_;
  std::deque<RefreshJob> refresh_jobs_ KB_GUARDED_BY(refresh_mutex_);
  std::vector<RefreshJob> refresh_done_ KB_GUARDED_BY(refresh_mutex_);
  bool stop_refresh_ KB_GUARDED_BY(refresh_mutex_) = false;

  // Event-loop-owned state (no lock by design: only the event-loop thread
  // touches the map, the Connection objects and these fields, from
  // EventLoop and the helpers it calls; the refresh thread holds
  // shared_ptr<Connection> only as an identity. Thread ownership is
  // invisible to -Wthread-safety, so the contract is documented here and
  // enforced by keeping every accessor private to the event-loop section
  // above).
  std::map<int, std::shared_ptr<Connection>> connections_;
  size_t refreshes_in_flight_ = 0;  ///< pushed, reply not yet picked up
  size_t watched_ = 0;  ///< connections the peer-stall rule is timing

  // One-way lifecycle flags (see the drain-handshake comment above). Each is
  // set-once-and-sticky, read with one relaxed/acquire load — none of them
  // guards other data, so none is a pseudo-lock.
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> finished_{false};
  bool signal_handlers_installed_ = false;  ///< main-thread-owned (Start/dtor)

  Mutex join_mutex_;  // serializes Wait() callers
  bool joined_ KB_GUARDED_BY(join_mutex_) = false;

  // Counters (relaxed; read by counters()).
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> frames_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> dispatched_{0};
  std::atomic<uint64_t> unavailable_rejects_{0};
  std::atomic<uint64_t> admin_frames_{0};
  std::atomic<uint64_t> active_{0};
};

}  // namespace kboost

#endif  // KBOOST_NET_SERVER_H_
