#ifndef KBOOST_NET_SERVER_H_
#define KBOOST_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
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
/// Threading model: N = NumLoops() event loops, one per two usable CPUs
/// (epoll on Linux, poll elsewhere), plus one refresh thread.
/// Loop 0 also owns the listening socket: it accepts, checks
/// max_connections against the server-wide active-connection gauge, and
/// deals accepted connection i to loop i mod N through that loop's inbox.
/// From then on the connection belongs to its loop alone, which reads and
/// extracts its frames, answers QUERY, STATS, SHUTDOWN and every reject or
/// error inline, and performs every write to its socket. A prepared solve
/// is an O(k) slice of cached orders, and BoostService::Solve is safe to
/// call concurrently, so each loop solves right on its own thread: decode,
/// solve, encode, append to the connection's output buffer, one
/// non-blocking send. Write interest is registered only when bytes remain.
/// REFRESH alone (loading and preparing a pool, ms to s) goes to the
/// refresh thread, which hands the encoded reply back through the inbox of
/// the loop that owns the connection. A process with fewer than four
/// usable CPUs runs the same code with one loop.
///
/// One request is processed per connection at a time: while a connection
/// has a reply pending or a refresh in flight, its next frame waits (and
/// while a reply is pending, its loop does not read it at all), so at most
/// one reply is ever buffered per connection. Pipelined frames are answered
/// in order, in one pass of their loop, so connections on the same loop
/// wait for that pass. A peer that stops reading its replies, or that
/// leaves a partial frame hanging, is closed after kPeerStallMs without
/// progress; it never blocks its loop or another connection.
///
/// Per-request deadlines resolve through BoostService's single-budget
/// deadline path: the wire deadline_ms lands in BoostRequest::deadline_ms
/// untouched, and Solve() converts it once at entry to an absolute deadline
/// covering admission and solve only. Time spent on a loop and in the
/// sockets before Solve() is entered is not charged to the budget. With N
/// loops solving at once, an admission budget configured on the service
/// can bind: a queued query waits on its loop's thread, and a shed one is
/// answered typed ResourceExhausted. Every
/// overload outcome (shed, deadline miss, shutdown reject, connection
/// limit) travels as a typed frame; a connection is only closed without a
/// reply when the peer vanished or stalled, or sent bytes that do not parse
/// as a frame (and then an error frame is attempted first).
///
/// Graceful shutdown (RequestShutdown, a SHUTDOWN frame, or an installed
/// SIGINT/SIGTERM handler): loop 0 closes the acceptor and fans the drain
/// out to every loop. Frames that arrive after it are answered
/// kUnavailable, refresh jobs not yet started are answered kUnavailable,
/// and each loop exits once none of its connections has a refresh running
/// or output unflushed (or the peer-stall rule reaped it); it then closes
/// its connections; the last loop out stops the refresh thread. Wait()
/// joins every loop, then the refresh thread. Admission slots cannot leak:
/// they are RAII tickets inside Solve, and every Solve a loop starts runs
/// to completion before that loop exits.
class KboostServer {
 public:
  /// Binds, listens and starts the event-loop and refresh threads. `service`
  /// must outlive the server. Typed errors for bind/listen failures
  /// (kUnavailable when the address is in use).
  static StatusOr<std::unique_ptr<KboostServer>> Start(
      BoostService* service, const ServerOptions& options);

  /// The number of event loops a server runs: DefaultThreadCount() (the
  /// CPUs in the process's affinity mask) / 2, at least one. Each loop does
  /// its queries' CPU work inline; the other half of the CPUs is left to the
  /// peers and to the kernel's side of every send and receive. A loop per
  /// CPU oversubscribes the CPUs when callers share the host: each caller
  /// gets a private loop, and throughput then swings from run to run with
  /// whether the scheduler puts each caller on its loop's CPU.
  static int NumLoops();

  /// Graceful shutdown + join, if still running.
  ~KboostServer();

  /// The actual bound port (useful with options.port = 0).
  uint16_t port() const { return port_; }

  /// Requests graceful shutdown and returns immediately. Callable from any
  /// thread: it is one atomic store and one write() to loop 0's wake pipe.
  void RequestShutdown();

  /// RequestShutdown() + Wait().
  void Shutdown();

  /// Blocks until the server has fully shut down (every loop exited and
  /// joined, the refresh thread joined, all connections closed).
  void Wait();

  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }
  /// True once Wait() has completed the shutdown.
  bool finished() const { return finished_.load(std::memory_order_acquire); }

  /// Installs SIGINT/SIGTERM handlers that RequestShutdown() this server
  /// (at most one server per process may install them; FailedPrecondition
  /// otherwise). The handler is one async-signal-safe write to loop 0's
  /// wake pipe. Handlers are restored when this server is destroyed.
  Status InstallSignalHandlers();

  ServerCounters counters() const;

 private:
  struct Connection;
  class Loop;

  /// One REFRESH on its way to the refresh thread and, with `reply` filled
  /// in, back to `loop`, the loop that owns the connection. The job names
  /// its connection by fd and the id the loop gave it, so the refresh
  /// thread holds no reference into loop state, and a reply whose
  /// connection closed meanwhile is dropped.
  struct RefreshJob {
    Loop* loop = nullptr;
    int fd = -1;
    uint64_t conn_id = 0;
    uint32_t request_id = 0;
    WireRefresh refresh;
    std::string reply;
  };

  KboostServer(BoostService* service, const ServerOptions& options);

  Status Listen();
  void RefreshLoop();

  BoostService* service_;
  const ServerOptions options_;
  uint16_t port_ = 0;
  /// Loop 0's once the loops run; it closes the acceptor when the drain
  /// begins. No other loop reads it.
  int listen_fd_ = -1;

  // ---- The loops, their inboxes and the drain handshake --------------------
  //
  // Each loop sleeps in its own epoll/poll. Another thread never touches a
  // loop's connections; it reaches the loop only through the loop's inbox
  // (one push under the inbox mutex) plus ONE tagged byte on the loop's
  // wake pipe:
  //   'c' — the inbox holds something: a socket loop 0 accepted for this
  //         loop, or a REFRESH reply from the refresh thread,
  //   'q' — shutdown: RequestShutdown() to loop 0, or loop 0's drain fan-out
  //         to every loop,
  //   'T' — the installed SIGINT/SIGTERM handler fired (the only operation
  //         a signal context performs is this async-signal-safe write() to
  //         loop 0's pipe).
  // A loop drains its pipe, folds 'T' into shutdown_requested_, empties
  // its inbox and acts on its OWN thread — so connection/drain state needs
  // no lock and no signal-safety gymnastics. Shutdown then proceeds in one
  // direction:
  //   shutdown_requested_ → loop 0 closes the acceptor, sets draining_ and
  //   wakes every loop (so no socket enters an inbox after draining_) →
  //   each loop, once none of its connections has a refresh running or
  //   output pending, takes the last sockets from its inbox, closes every
  //   connection and exits; the last one out (loops_running_ reaches 0)
  //   sets stop_refresh_ under refresh_mutex_ → Wait() joins the loops and
  //   the refresh thread → finished_.
  // No step is ever reversed, which is why each flag can be an independent
  // atomic rather than multi-field state under one lock. The vector itself
  // is fixed before the first loop starts.
  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<size_t> loops_running_{0};  ///< counts down as loops exit

  std::thread refresh_thread_;

  // The refresh queue: loops push jobs; each reply goes back through the
  // inbox of the job's loop. At most one job per connection is in flight,
  // so max_connections bounds the queue.
  Mutex refresh_mutex_;
  CondVar refresh_cv_;
  std::deque<RefreshJob> refresh_jobs_ KB_GUARDED_BY(refresh_mutex_);
  bool stop_refresh_ KB_GUARDED_BY(refresh_mutex_) = false;

  // One-way lifecycle flags (see the drain-handshake comment above). Each is
  // set-once-and-sticky, read with one relaxed/acquire load — none of them
  // guards other data, so none is a pseudo-lock.
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> finished_{false};
  bool signal_handlers_installed_ = false;  ///< main-thread-owned (Start/dtor)

  Mutex join_mutex_;  // serializes Wait() callers
  bool joined_ KB_GUARDED_BY(join_mutex_) = false;

  // Counters (relaxed; read by counters()). accepted_ is also the acceptor's
  // round-robin cursor: only loop 0 increments it.
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> frames_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> dispatched_{0};
  std::atomic<uint64_t> unavailable_rejects_{0};
  std::atomic<uint64_t> admin_frames_{0};
  /// Open connections, the gauge max_connections is checked against. Only
  /// loop 0 raises it (at accept); the owning loop lowers it before close(),
  /// so a peer that sees its connection closed finds the slot free.
  std::atomic<uint64_t> active_{0};
};

}  // namespace kboost

#endif  // KBOOST_NET_SERVER_H_
