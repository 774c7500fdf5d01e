#include "src/net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <limits>
#include <map>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace kboost {

namespace {

// Wake-pipe byte tags: a loop dispatches on the byte value, so one pipe
// carries inbox deliveries, shutdown requests and signal-handler shutdown
// requests without the handler needing any non-signal-safe state.
constexpr char kWakeInbox = 'c';
constexpr char kWakeShutdown = 'q';
constexpr char kWakeSignal = 'T';

constexpr int64_t kPeerStallNs = int64_t{kPeerStallMs} * 1'000'000;

/// The wake fd the installed SIGINT/SIGTERM handler writes to; -1 when no
/// server has handlers installed. One server per process may install them.
std::atomic<int> g_signal_wake_fd{-1};

extern "C" void KboostdSignalHandler(int) {
  const int fd = g_signal_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = kWakeSignal;
    // write() is async-signal-safe; a full pipe is fine (the loop is
    // already awake) and so is a failed write during teardown races.
    [[maybe_unused]] ssize_t ignored = ::write(fd, &byte, 1);
  }
}

struct sigaction g_old_sigint;
struct sigaction g_old_sigterm;

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IoError(std::string("fcntl(O_NONBLOCK): ") +
                           std::strerror(errno));
  }
  return Status::Ok();
}

/// Input a connection may buffer before the loop stops reading it: two
/// full frames, so a blasting client cannot grow the buffer unboundedly.
size_t MaxBufferedInput(const ServerOptions& options) {
  return 2 * (options.max_frame_bytes + kFrameHeaderBytes);
}

WireQueryReply ToWireReply(StatusOr<BoostResponse> solved) {
  WireQueryReply reply;
  if (!solved.ok()) {
    reply.status = solved.status();
    return reply;
  }
  BoostResponse& response = solved.value();
  BoostResult& result = response.result;
  reply.status = Status::Ok();
  reply.pool_version = response.pool_version;
  reply.solve_seconds = response.solve_seconds;
  reply.best_set = std::move(result.best_set);
  reply.best_estimate = result.best_estimate;
  reply.lb_set = std::move(result.lb_set);
  reply.lb_mu_hat = result.lb_mu_hat;
  reply.lb_delta_hat = result.lb_delta_hat;
  reply.delta_set = std::move(result.delta_set);
  reply.delta_delta_hat = result.delta_delta_hat;
  reply.pool_budget = result.pool_budget;
  reply.num_samples = result.num_samples;
  reply.num_boostable = result.num_boostable;
  return reply;
}

/// Level-triggered readiness multiplexer: epoll on Linux, poll(2)
/// elsewhere. Every fd starts with read interest; a connection wants reads
/// while it may take input and writes only while a reply is left over from
/// a short send.
class Poller {
 public:
  struct Event {
    int fd;
    bool readable;
    bool writable;
  };

#ifdef __linux__
  Poller() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {}
  ~Poller() {
    if (epfd_ >= 0) ::close(epfd_);
  }

  void Add(int fd) { Control(EPOLL_CTL_ADD, fd, true, false); }
  void Update(int fd, bool want_read, bool want_write) {
    Control(EPOLL_CTL_MOD, fd, want_read, want_write);
  }
  void Remove(int fd) { ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr); }

  void Wait(int timeout_ms, std::vector<Event>* out) {
    struct epoll_event events[64];
    out->clear();
    const int n = ::epoll_wait(epfd_, events, 64, timeout_ms);
    for (int i = 0; i < n; ++i) {
      // Hangup/error surface as both: the next send() or recv() observes
      // the EOF or the error and the connection closes cleanly.
      const uint32_t e = events[i].events;
      const bool failed = (e & (EPOLLHUP | EPOLLERR)) != 0;
      out->push_back({events[i].data.fd, failed || (e & EPOLLIN) != 0,
                      failed || (e & EPOLLOUT) != 0});
    }
  }

 private:
  void Control(int op, int fd, bool want_read, bool want_write) {
    struct epoll_event ev = {};
    ev.events = (want_read ? static_cast<uint32_t>(EPOLLIN) : 0u) |
                (want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
    ev.data.fd = fd;
    ::epoll_ctl(epfd_, op, fd, &ev);
  }

  int epfd_;
#else
  void Add(int fd) { interest_[fd] = POLLIN; }
  void Update(int fd, bool want_read, bool want_write) {
    interest_[fd] = Mask(want_read, want_write);
  }
  void Remove(int fd) { interest_.erase(fd); }

  void Wait(int timeout_ms, std::vector<Event>* out) {
    std::vector<struct pollfd> fds;
    fds.reserve(interest_.size());
    for (const auto& [fd, events] : interest_) fds.push_back({fd, events, 0});
    out->clear();
    const int n = ::poll(fds.data(), fds.size(), timeout_ms);
    if (n <= 0) return;
    for (const struct pollfd& p : fds) {
      if (p.revents == 0) continue;
      const bool failed = (p.revents & (POLLHUP | POLLERR | POLLNVAL)) != 0;
      out->push_back({p.fd, failed || (p.revents & POLLIN) != 0,
                      failed || (p.revents & POLLOUT) != 0});
    }
  }

 private:
  static short Mask(bool want_read, bool want_write) {
    return static_cast<short>((want_read ? POLLIN : 0) |
                              (want_write ? POLLOUT : 0));
  }

  std::map<int, short> interest_;
#endif
};

}  // namespace

/// Per-connection state, owned by its loop's thread alone.
struct KboostServer::Connection {
  int fd = -1;               ///< -1 once closed
  uint64_t id = 0;           ///< unique within its loop; a RefreshJob names it
  std::string in;            ///< buffered unparsed bytes
  std::string out;           ///< reply bytes a short send left behind
  bool busy = false;         ///< its REFRESH is on the refresh thread
  bool peer_closed = false;  ///< recv() saw EOF
  bool closing = false;      ///< an error frame is queued: close once out
  bool want_read = true;     ///< current poller interest
  bool want_write = false;
  bool watched = false;      ///< the peer-stall rule is timing it
  int64_t progress_ns = 0;   ///< when watched: last byte moved, or start
};

/// One event loop: a thread with its own poller, wake pipe, connections,
/// peer-stall reaper and drain check. Only its thread touches the members
/// below the inbox; another thread reaches the loop through Post() and
/// Wake() alone (see the drain-handshake comment in server.h).
class KboostServer::Loop {
 public:
  explicit Loop(KboostServer* server) : server_(server) {}
  ~Loop() {
    if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
    if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
  }
  Loop(const Loop&) = delete;
  Loop& operator=(const Loop&) = delete;

  /// Creates the wake pipe.
  Status Open();
  void Start() { thread_ = std::thread([this] { Run(); }); }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }
  int wake_fd() const { return wake_write_fd_; }

  /// Callable from any thread: one write() to the wake pipe, which the
  /// signal handler also writes through wake_fd(). A full pipe is fine:
  /// the loop is already due to wake.
  void Wake(char tag) {
    [[maybe_unused]] ssize_t ignored = ::write(wake_write_fd_, &tag, 1);
  }

  /// Hands the loop a socket loop 0 accepted for it.
  void Post(int fd) {
    {
      MutexLock lock(inbox_mutex_);
      inbox_fds_.push_back(fd);
    }
    Wake(kWakeInbox);
  }

  /// Hands the loop a REFRESH reply for one of its connections.
  void Post(RefreshJob job) {
    {
      MutexLock lock(inbox_mutex_);
      inbox_replies_.push_back(std::move(job));
    }
    Wake(kWakeInbox);
  }

 private:
  void Run();

  // Loop 0 only.
  void AcceptNew();
  void BeginDrain();

  void HandleInbox();
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
  void UpdateInterest(const std::shared_ptr<Connection>& conn);
  /// Closes every connection past the peer-stall rule and returns the poll
  /// timeout (ms) until the next one could be, or -1 when none is timed.
  int ReapStalledPeers();
  /// No connection has a refresh running or output pending.
  bool Drained() const;

  KboostServer* const server_;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;

  Mutex inbox_mutex_;
  std::vector<int> inbox_fds_ KB_GUARDED_BY(inbox_mutex_);
  std::vector<RefreshJob> inbox_replies_ KB_GUARDED_BY(inbox_mutex_);

  // Loop-thread-owned (no lock by design: thread ownership is invisible to
  // -Wthread-safety, so the contract is documented here and enforced by
  // keeping every accessor private to this class).
  Poller poller_;
  std::map<int, std::shared_ptr<Connection>> connections_;
  uint64_t next_conn_id_ = 0;
  size_t watched_ = 0;  ///< connections the peer-stall rule is timing

  std::thread thread_;  // last: it runs on everything above
};

KboostServer::KboostServer(BoostService* service,
                           const ServerOptions& options)
    : service_(service), options_(options) {}

StatusOr<std::unique_ptr<KboostServer>> KboostServer::Start(
    BoostService* service, const ServerOptions& options) {
  if (service == nullptr) {
    return Status::InvalidArgument("KboostServer needs a BoostService");
  }
  if (options.max_frame_bytes < 64) {
    return Status::InvalidArgument(
        "max_frame_bytes must be >= 64 (a query frame does not fit below)");
  }
  if (options.max_connections == 0) {
    return Status::InvalidArgument(
        "max_connections must be >= 1 (0 would refuse every client)");
  }
  std::unique_ptr<KboostServer> server(new KboostServer(service, options));
  for (int i = 0; i < NumLoops(); ++i) {
    server->loops_.push_back(std::make_unique<Loop>(server.get()));
    if (Status s = server->loops_.back()->Open(); !s.ok()) return s;
  }
  if (Status s = server->Listen(); !s.ok()) return s;

  server->loops_running_.store(server->loops_.size(),
                               std::memory_order_relaxed);
  for (const std::unique_ptr<Loop>& loop : server->loops_) loop->Start();
  server->refresh_thread_ =
      std::thread([raw = server.get()] { raw->RefreshLoop(); });
  return server;
}

int KboostServer::NumLoops() {
  return std::max(1, DefaultThreadCount() / 2);
}

KboostServer::~KboostServer() {
  Shutdown();
  if (signal_handlers_installed_) {
    ::sigaction(SIGINT, &g_old_sigint, nullptr);
    ::sigaction(SIGTERM, &g_old_sigterm, nullptr);
    g_signal_wake_fd.store(-1, std::memory_order_release);
  }
  // Loop 0's drain closes the acceptor; a Start that failed never ran one.
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Status KboostServer::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("bind_address '" + options_.bind_address +
                                   "' is not an IPv4 address");
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    const std::string msg = "bind " + options_.bind_address + ":" +
                            std::to_string(options_.port) + ": " +
                            std::strerror(err);
    return err == EADDRINUSE ? Status::Unavailable(msg) : Status::IoError(msg);
  }
  if (::listen(listen_fd_, 128) != 0) {
    return Status::IoError(std::string("listen: ") + std::strerror(errno));
  }
  struct sockaddr_in bound = {};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&bound),
                    &bound_len) != 0) {
    return Status::IoError(std::string("getsockname: ") +
                           std::strerror(errno));
  }
  port_ = ntohs(bound.sin_port);
  return SetNonBlocking(listen_fd_);
}

void KboostServer::RequestShutdown() {
  shutdown_requested_.store(true, std::memory_order_release);
  loops_.front()->Wake(kWakeShutdown);
}

void KboostServer::Shutdown() {
  RequestShutdown();
  Wait();
}

void KboostServer::Wait() {
  MutexLock lock(join_mutex_);
  if (joined_) return;
  // The last loop out has stopped the refresh thread (see Loop::Run), so
  // no lock is taken here beside join_mutex_.
  for (const std::unique_ptr<Loop>& loop : loops_) loop->Join();
  if (refresh_thread_.joinable()) refresh_thread_.join();
  joined_ = true;
  finished_.store(true, std::memory_order_release);
}

Status KboostServer::InstallSignalHandlers() {
  int expected = -1;
  if (!g_signal_wake_fd.compare_exchange_strong(
          expected, loops_.front()->wake_fd(), std::memory_order_acq_rel)) {
    return Status::FailedPrecondition(
        "another KboostServer already installed signal handlers");
  }
  struct sigaction action = {};
  action.sa_handler = KboostdSignalHandler;
  ::sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  ::sigaction(SIGINT, &action, &g_old_sigint);
  ::sigaction(SIGTERM, &action, &g_old_sigterm);
  signal_handlers_installed_ = true;
  return Status::Ok();
}

ServerCounters KboostServer::counters() const {
  ServerCounters c;
  c.connections_accepted = accepted_.load(std::memory_order_relaxed);
  c.active_connections = active_.load(std::memory_order_relaxed);
  c.frames_received = frames_.load(std::memory_order_relaxed);
  c.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  c.queries_dispatched = dispatched_.load(std::memory_order_relaxed);
  c.unavailable_rejects = unavailable_rejects_.load(std::memory_order_relaxed);
  c.admin_frames = admin_frames_.load(std::memory_order_relaxed);
  return c;
}

// ---- Event loops ------------------------------------------------------------

Status KboostServer::Loop::Open() {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return Status::IoError(std::string("pipe: ") + std::strerror(errno));
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  if (Status s = SetNonBlocking(wake_read_fd_); !s.ok()) return s;
  return SetNonBlocking(wake_write_fd_);
}

void KboostServer::Loop::Run() {
  // Loop 0 owns the acceptor; no other loop ever reads listen_fd_.
  const bool acceptor = this == server_->loops_.front().get();
  if (acceptor) poller_.Add(server_->listen_fd_);
  poller_.Add(wake_read_fd_);

  std::vector<Poller::Event> events;
  while (true) {
    const int timeout_ms = ReapStalledPeers();
    if (server_->draining_.load(std::memory_order_acquire) && Drained()) break;
    poller_.Wait(timeout_ms, &events);
    for (const Poller::Event& event : events) {
      if (event.fd == wake_read_fd_) {
        char bytes[256];
        ssize_t n;
        while ((n = ::read(wake_read_fd_, bytes, sizeof(bytes))) > 0) {
          if (std::memchr(bytes, kWakeSignal, static_cast<size_t>(n)) !=
              nullptr) {
            server_->shutdown_requested_.store(true,
                                               std::memory_order_release);
          }
        }
        HandleInbox();
      } else if (acceptor && event.fd == server_->listen_fd_) {
        AcceptNew();
      } else {
        auto it = connections_.find(event.fd);
        if (it == connections_.end()) continue;
        // Copy out of the map: closing the connection erases the map node
        // a reference to it->second would dangle on.
        std::shared_ptr<Connection> conn = it->second;
        if (event.writable) {
          Flush(conn);
          if (conn->fd >= 0) ProcessBuffered(conn);
        }
        if (event.readable && conn->fd >= 0) ReadFrom(conn);
      }
    }

    if (acceptor &&
        server_->shutdown_requested_.load(std::memory_order_acquire) &&
        !server_->draining_.load(std::memory_order_relaxed)) {
      BeginDrain();
    }
  }

  // Nothing is owed on this loop. Sockets loop 0 dealt it before the drain
  // began may still sit in the inbox: adopt them, then close every
  // connection. Every Solve this loop started ran to completion on its
  // thread.
  HandleInbox();
  std::vector<std::shared_ptr<Connection>> open;
  open.reserve(connections_.size());
  for (const auto& [fd, conn] : connections_) open.push_back(conn);
  for (const std::shared_ptr<Connection>& conn : open) CloseConnection(conn);

  // The last loop out stops the refresh thread: no loop is left to push a
  // job, and a refresh still running (its connection went away meanwhile)
  // finishes before the thread exits.
  if (server_->loops_running_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    {
      MutexLock lock(server_->refresh_mutex_);
      server_->stop_refresh_ = true;
    }
    server_->refresh_cv_.NotifyAll();
  }
}

void KboostServer::Loop::BeginDrain() {
  poller_.Remove(server_->listen_fd_);
  ::close(server_->listen_fd_);
  server_->listen_fd_ = -1;
  // The acceptor is closed, so no socket enters an inbox from here on: a
  // loop that sees draining_ may exit once its own connections are done.
  server_->draining_.store(true, std::memory_order_release);
  for (const std::unique_ptr<Loop>& loop : server_->loops_) {
    loop->Wake(kWakeShutdown);
  }
}

bool KboostServer::Loop::Drained() const {
  for (const auto& [fd, conn] : connections_) {
    if (conn->busy || !conn->out.empty()) return false;
  }
  return true;
}

int KboostServer::Loop::ReapStalledPeers() {
  if (watched_ == 0) return -1;
  const int64_t now = SteadyNowNanos();
  int64_t next_expiry = std::numeric_limits<int64_t>::max();
  std::vector<std::shared_ptr<Connection>> stalled;
  for (const auto& [fd, conn] : connections_) {
    if (!conn->watched) continue;
    const int64_t expiry = conn->progress_ns + kPeerStallNs;
    if (expiry <= now) {
      stalled.push_back(conn);
    } else {
      next_expiry = std::min(next_expiry, expiry);
    }
  }
  for (const std::shared_ptr<Connection>& conn : stalled) {
    CloseConnection(conn);
  }
  if (watched_ == 0) return -1;
  return static_cast<int>((next_expiry - now) / 1'000'000 + 1);
}

void KboostServer::Loop::AcceptNew() {
  while (true) {
    const int fd = ::accept(server_->listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient accept failure: try later
    if (Status s = SetNonBlocking(fd); !s.ok()) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Only this thread raises active_, so the check cannot over-admit; a
    // loop lowering it concurrently only frees a slot.
    if (server_->active_.load(std::memory_order_acquire) >=
        server_->options_.max_connections) {
      // Typed front-door reject: one kUnavailable error frame, then close.
      // A fresh socket's send buffer is empty, so one send carries it.
      server_->unavailable_rejects_.fetch_add(1, std::memory_order_relaxed);
      const std::string frame = EncodeErrorFrame(
          0, Status::Unavailable("connection limit reached"));
      [[maybe_unused]] ssize_t ignored =
          ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    server_->active_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t i =
        server_->accepted_.fetch_add(1, std::memory_order_relaxed);
    server_->loops_[i % server_->loops_.size()]->Post(fd);
  }
}

void KboostServer::Loop::HandleInbox() {
  std::vector<int> fds;
  std::vector<RefreshJob> replies;
  {
    MutexLock lock(inbox_mutex_);
    fds.swap(inbox_fds_);
    replies.swap(inbox_replies_);
  }
  for (int fd : fds) {
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    connections_[fd] = conn;
    poller_.Add(fd);
  }
  for (RefreshJob& job : replies) {
    auto it = connections_.find(job.fd);
    // The peer went away meanwhile (and its fd may name a newer one).
    if (it == connections_.end() || it->second->id != job.conn_id) continue;
    std::shared_ptr<Connection> conn = it->second;
    conn->busy = false;
    QueueReply(conn, job.reply);
    // The reply is out (or pending); pipelined frames may run now.
    if (conn->fd >= 0) ProcessBuffered(conn);
  }
}

void KboostServer::Loop::ReadFrom(const std::shared_ptr<Connection>& conn) {
  char buffer[65536];
  bool progressed = false;
  while (conn->in.size() <= MaxBufferedInput(server_->options_)) {
    const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      conn->in.append(buffer, static_cast<size_t>(n));
      progressed = true;
      // A short read emptied the socket; the level-triggered poller
      // reports any later bytes, so skip the recv() that would say EAGAIN.
      if (static_cast<size_t>(n) < sizeof(buffer)) break;
      continue;
    }
    if (n == 0) {
      conn->peer_closed = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(conn);  // hard error: the peer is gone
    return;
  }
  if (progressed && conn->watched) conn->progress_ns = SteadyNowNanos();
  ProcessBuffered(conn);
}

void KboostServer::Loop::ProcessBuffered(
    const std::shared_ptr<Connection>& conn) {
  // Frames are consumed by offset and the buffer compacted once at the end:
  // erasing each frame would move the rest of the buffer per frame, which
  // is quadratic in the pipelining depth.
  size_t consumed = 0;
  while (conn->fd >= 0 && !conn->busy && !conn->closing &&
         conn->out.empty()) {
    const size_t available = conn->in.size() - consumed;
    if (available < kFrameHeaderBytes) break;
    const uint8_t* frame =
        reinterpret_cast<const uint8_t*>(conn->in.data()) + consumed;
    FrameHeader header;
    if (Status s = DecodeFrameHeader(
            frame, server_->options_.max_frame_bytes, &header);
        !s.ok()) {
      FailConnection(conn, 0, s);
      break;
    }
    if (available < kFrameHeaderBytes + header.body_len) break;
    consumed += kFrameHeaderBytes + header.body_len;
    server_->frames_.fetch_add(1, std::memory_order_relaxed);
    HandleFrame(conn, header, frame + kFrameHeaderBytes);
  }
  if (conn->fd < 0) return;  // a send failed: the peer is gone
  conn->in.erase(0, consumed);
  // Nothing owed and nothing more to answer: an error frame has gone out,
  // or the peer closed (whatever partial bytes it left are dropped — a
  // clean close, never a crash or a hang).
  if (conn->out.empty() && !conn->busy &&
      (conn->closing || conn->peer_closed)) {
    CloseConnection(conn);
    return;
  }
  UpdateInterest(conn);
}

void KboostServer::Loop::HandleFrame(const std::shared_ptr<Connection>& conn,
                                     const FrameHeader& header,
                                     const uint8_t* body) {
  const bool draining = server_->draining_.load(std::memory_order_relaxed);
  switch (header.type) {
    case FrameType::kQuery: {
      WireQuery query;
      if (Status s = DecodeQueryBody(body, header.body_len, &query);
          !s.ok()) {
        FailConnection(conn, header.request_id, s);
        return;
      }
      WireQueryReply reply;
      if (draining) {
        server_->unavailable_rejects_.fetch_add(1, std::memory_order_relaxed);
        reply.status = Status::Unavailable("server shutting down");
      } else {
        server_->dispatched_.fetch_add(1, std::memory_order_relaxed);
        BoostRequest request;
        request.pool = std::move(query.pool);
        request.k = static_cast<size_t>(query.k);
        request.mode = query.mode;
        reply = ToWireReply(server_->service_->Solve(request));
      }
      QueueReply(conn, EncodeQueryReplyFrame(header.request_id, reply));
      return;
    }
    case FrameType::kStats: {
      server_->admin_frames_.fetch_add(1, std::memory_order_relaxed);
      QueueReply(conn, EncodeStatsReplyFrame(header.request_id,
                                             server_->service_->Stats()));
      return;
    }
    case FrameType::kRefresh: {
      server_->admin_frames_.fetch_add(1, std::memory_order_relaxed);
      WireRefresh refresh;
      if (Status s = DecodeRefreshBody(body, header.body_len, &refresh);
          !s.ok()) {
        FailConnection(conn, header.request_id, s);
        return;
      }
      if (draining) {
        server_->unavailable_rejects_.fetch_add(1, std::memory_order_relaxed);
        WireRefreshReply reply;
        reply.status = Status::Unavailable("server shutting down");
        QueueReply(conn, EncodeRefreshReplyFrame(header.request_id, reply));
        return;
      }
      // Loading and preparing a pool takes ms to s: the one job that leaves
      // the loop. The connection's next frame waits for its reply.
      conn->busy = true;
      {
        MutexLock lock(server_->refresh_mutex_);
        server_->refresh_jobs_.push_back(RefreshJob{
            this, conn->fd, conn->id, header.request_id, std::move(refresh),
            {}});
      }
      server_->refresh_cv_.NotifyOne();
      return;
    }
    case FrameType::kShutdown: {
      server_->admin_frames_.fetch_add(1, std::memory_order_relaxed);
      if (!server_->options_.allow_remote_shutdown) {
        FailConnection(
            conn, header.request_id,
            Status::FailedPrecondition("remote shutdown is disabled"));
        return;
      }
      QueueReply(conn, EncodeShutdownReplyFrame(header.request_id));
      server_->RequestShutdown();
      return;
    }
    case FrameType::kQueryReply:
    case FrameType::kStatsReply:
    case FrameType::kRefreshReply:
    case FrameType::kShutdownReply:
    case FrameType::kError:
      FailConnection(conn, header.request_id,
                     Status::InvalidArgument(
                         "reply/error frames are server-to-client only"));
      return;
  }
}

void KboostServer::Loop::QueueReply(const std::shared_ptr<Connection>& conn,
                                    const std::string& frame) {
  conn->out.append(frame);
  Flush(conn);
}

void KboostServer::Loop::Flush(const std::shared_ptr<Connection>& conn) {
  size_t sent = 0;
  while (sent < conn->out.size()) {
    const ssize_t n = ::send(conn->fd, conn->out.data() + sent,
                             conn->out.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    CloseConnection(conn);  // the peer is gone
    return;
  }
  conn->out.erase(0, sent);
  if (sent > 0 && conn->watched) conn->progress_ns = SteadyNowNanos();
}

void KboostServer::Loop::FailConnection(
    const std::shared_ptr<Connection>& conn, uint32_t request_id,
    const Status& error) {
  server_->protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  conn->closing = true;
  QueueReply(conn, EncodeErrorFrame(request_id, error));
}

void KboostServer::Loop::CloseConnection(
    const std::shared_ptr<Connection>& conn) {
  if (conn->fd < 0) return;
  if (conn->watched) --watched_;
  // The slot is freed before close(): loop 0 admits on another thread, and
  // a peer that sees this close must find the slot free when it reconnects.
  server_->active_.fetch_sub(1, std::memory_order_release);
  poller_.Remove(conn->fd);
  ::close(conn->fd);
  connections_.erase(conn->fd);
  conn->fd = -1;
}

void KboostServer::Loop::UpdateInterest(
    const std::shared_ptr<Connection>& conn) {
  const bool want_read = conn->out.empty() && !conn->peer_closed &&
                         conn->in.size() <= MaxBufferedInput(server_->options_);
  const bool want_write = !conn->out.empty();
  if (want_read != conn->want_read || want_write != conn->want_write) {
    conn->want_read = want_read;
    conn->want_write = want_write;
    poller_.Update(conn->fd, want_read, want_write);
  }
  // The peer-stall rule times a connection while the server waits on its
  // peer: for a reply the peer does not read, or for the rest of a partial
  // frame. A connection whose REFRESH is running waits on the server.
  const bool watched =
      !conn->out.empty() || (!conn->busy && !conn->in.empty());
  if (watched != conn->watched) {
    conn->watched = watched;
    if (watched) {
      ++watched_;
      conn->progress_ns = SteadyNowNanos();
    } else {
      --watched_;
    }
  }
}

// ---- Refresh thread --------------------------------------------------------

void KboostServer::RefreshLoop() {
  while (true) {
    RefreshJob job;
    {
      MutexLock lock(refresh_mutex_);
      while (refresh_jobs_.empty() && !stop_refresh_) {
        refresh_cv_.Wait(refresh_mutex_);
      }
      if (refresh_jobs_.empty()) return;  // stop_refresh_ with nothing left
      job = std::move(refresh_jobs_.front());
      refresh_jobs_.pop_front();
    }
    WireRefreshReply reply;
    if (draining_.load(std::memory_order_acquire)) {
      // Not started when the drain began: answered typed, never run.
      unavailable_rejects_.fetch_add(1, std::memory_order_relaxed);
      reply.status = Status::Unavailable("server shutting down");
    } else {
      reply.status = service_->RefreshPoolFromSnapshot(
          job.refresh.pool, job.refresh.snapshot_path);
      if (reply.status.ok()) {
        reply.version = service_->PoolVersion(job.refresh.pool);
      }
    }
    job.reply = EncodeRefreshReplyFrame(job.request_id, reply);
    Loop* loop = job.loop;
    loop->Post(std::move(job));
  }
}

}  // namespace kboost
