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
#include <climits>
#include <csignal>
#include <cstring>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include "src/util/timer.h"

namespace kboost {

namespace {

// Wake-pipe byte tags: the event loop dispatches on the byte value, so one
// pipe carries completions, explicit shutdown requests and signal-handler
// shutdown requests without the handler needing any non-signal-safe state.
constexpr char kWakeCompletion = 'c';
constexpr char kWakeShutdown = 'q';
constexpr char kWakeSignal = 'T';

/// How long a blocked reply write may stall on an unresponsive peer before
/// the connection is abandoned. Bounds both worker and event-loop writes so
/// a slow reader can never wedge the serving process.
constexpr int kWriteStallMs = 5000;

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

/// Writes the whole buffer to a non-blocking socket, polling for
/// writability on short writes. False on peer failure or a stall longer
/// than kWriteStallMs — the caller abandons the connection.
bool WriteFully(int fd, const char* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      struct pollfd p;
      p.fd = fd;
      p.events = POLLOUT;
      p.revents = 0;
      if (::poll(&p, 1, kWriteStallMs) <= 0) return false;
      continue;
    }
    return false;
  }
  return true;
}

/// Readiness multiplexer: epoll on Linux, poll(2) elsewhere. Only read
/// interest is managed here — writes poll their own fd inline (WriteFully),
/// which keeps the event loop's state machine to "who has bytes for me".
class Poller {
 public:
  struct Event {
    int fd;
    bool readable;
  };

#ifdef __linux__
  Poller() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {}
  ~Poller() {
    if (epfd_ >= 0) ::close(epfd_);
  }
  bool ok() const { return epfd_ >= 0; }

  void Add(int fd, bool want_read) {
    struct epoll_event ev = {};
    ev.events = want_read ? static_cast<uint32_t>(EPOLLIN) : 0u;
    ev.data.fd = fd;
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
  }
  void Update(int fd, bool want_read) {
    struct epoll_event ev = {};
    ev.events = want_read ? static_cast<uint32_t>(EPOLLIN) : 0u;
    ev.data.fd = fd;
    ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev);
  }
  void Remove(int fd) { ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr); }

  void Wait(int timeout_ms, std::vector<Event>* out) {
    struct epoll_event events[64];
    out->clear();
    const int n = ::epoll_wait(epfd_, events, 64, timeout_ms);
    for (int i = 0; i < n; ++i) {
      // Hangup/error surface as readable: the subsequent recv() observes
      // EOF or the error and the connection closes cleanly.
      out->push_back({events[i].data.fd, true});
    }
  }

 private:
  int epfd_;
#else
  bool ok() const { return true; }

  void Add(int fd, bool want_read) { interest_[fd] = want_read; }
  void Update(int fd, bool want_read) { interest_[fd] = want_read; }
  void Remove(int fd) { interest_.erase(fd); }

  void Wait(int timeout_ms, std::vector<Event>* out) {
    std::vector<struct pollfd> fds;
    fds.reserve(interest_.size());
    for (const auto& [fd, want_read] : interest_) {
      struct pollfd p;
      p.fd = fd;
      p.events = want_read ? POLLIN : 0;
      p.revents = 0;
      fds.push_back(p);
    }
    out->clear();
    const int n = ::poll(fds.data(), fds.size(), timeout_ms);
    if (n <= 0) return;
    for (const struct pollfd& p : fds) {
      if (p.revents != 0) out->push_back({p.fd, true});
    }
  }

 private:
  std::map<int, bool> interest_;
#endif
};

/// The event loop's poller, reachable from the connection helpers without
/// threading it through every signature. Only the event-loop thread touches
/// it, and only while EventLoop() is on the stack.
thread_local Poller* t_poller = nullptr;

}  // namespace

/// Per-connection state. The event-loop thread owns `in`, `busy`,
/// `peer_closed` and `want_read`; a worker holding the shared_ptr may only
/// write to the socket (under `write_mutex`) and set `closing`.
struct KboostServer::Connection {
  int fd = -1;
  std::string in;           ///< buffered unparsed bytes
  bool busy = false;        ///< a dispatched request is in flight
  bool peer_closed = false;  ///< recv() saw EOF
  bool want_read = true;    ///< current poller interest
  std::atomic<bool> closing{false};
  Mutex write_mutex;
};

StatusOr<std::unique_ptr<KboostServer>> KboostServer::Start(
    BoostService* service, const ServerOptions& options) {
  if (service == nullptr) {
    return Status::InvalidArgument("KboostServer needs a BoostService");
  }
  if (options.num_workers < 1 || options.num_workers > 64) {
    return Status::InvalidArgument("num_workers must be in [1, 64], got " +
                                   std::to_string(options.num_workers));
  }
  if (options.max_dispatch_queue < 1) {
    return Status::InvalidArgument("max_dispatch_queue must be >= 1");
  }
  if (options.max_frame_bytes < 64) {
    return Status::InvalidArgument(
        "max_frame_bytes must be >= 64 (a query frame does not fit below)");
  }
  std::unique_ptr<KboostServer> server(new KboostServer(service, options));
  if (Status s = server->Listen(); !s.ok()) return s;

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return Status::IoError(std::string("pipe: ") + std::strerror(errno));
  }
  server->wake_read_fd_ = pipe_fds[0];
  server->wake_write_fd_ = pipe_fds[1];
  if (Status s = SetNonBlocking(server->wake_read_fd_); !s.ok()) return s;
  if (Status s = SetNonBlocking(server->wake_write_fd_); !s.ok()) return s;

  server->io_thread_ = std::thread([raw = server.get()] { raw->EventLoop(); });
  server->workers_.reserve(options.num_workers);
  for (int i = 0; i < options.num_workers; ++i) {
    server->workers_.emplace_back([raw = server.get()] { raw->WorkerLoop(); });
  }
  return server;
}

KboostServer::~KboostServer() {
  Shutdown();
  if (signal_handlers_installed_) {
    ::sigaction(SIGINT, &g_old_sigint, nullptr);
    ::sigaction(SIGTERM, &g_old_sigterm, nullptr);
    g_signal_wake_fd.store(-1, std::memory_order_release);
  }
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
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
  const char byte = kWakeShutdown;
  [[maybe_unused]] ssize_t ignored = ::write(wake_write_fd_, &byte, 1);
}

void KboostServer::Shutdown() {
  RequestShutdown();
  Wait();
}

void KboostServer::Wait() {
  MutexLock lock(join_mutex_);
  if (!joined_) {
    if (io_thread_.joinable()) io_thread_.join();
    joined_ = true;
  }
}

Status KboostServer::InstallSignalHandlers() {
  int expected = -1;
  if (!g_signal_wake_fd.compare_exchange_strong(expected, wake_write_fd_,
                                                std::memory_order_acq_rel)) {
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

// ---- Event loop ------------------------------------------------------------

void KboostServer::EventLoop() {
  Poller poller;
  t_poller = &poller;
  poller.Add(listen_fd_, true);
  poller.Add(wake_read_fd_, true);

  int64_t drain_deadline_ns = 0;
  std::vector<Poller::Event> events;
  while (true) {
    // Drain bookkeeping: once draining, the loop only waits for outstanding
    // work; past the drain deadline the solves are cooperatively cancelled.
    int timeout_ms = -1;
    if (draining_.load(std::memory_order_relaxed)) {
      if (outstanding_ == 0) break;
      if (!drain_cancel_.load(std::memory_order_relaxed)) {
        const int64_t left_ns = drain_deadline_ns - SteadyNowNanos();
        if (left_ns <= 0) {
          drain_cancel_.store(true, std::memory_order_release);
          timeout_ms = 100;
        } else {
          timeout_ms = static_cast<int>(
              std::min<int64_t>(left_ns / 1'000'000 + 1, INT_MAX));
        }
      } else {
        timeout_ms = 100;
      }
    }

    poller.Wait(timeout_ms, &events);
    for (const Poller::Event& event : events) {
      if (event.fd == wake_read_fd_) {
        char bytes[256];
        ssize_t n;
        while ((n = ::read(wake_read_fd_, bytes, sizeof(bytes))) > 0) {
          for (ssize_t i = 0; i < n; ++i) {
            if (bytes[i] == kWakeSignal) {
              shutdown_requested_.store(true, std::memory_order_release);
            }
          }
        }
        HandleCompletions();
      } else if (event.fd == listen_fd_) {
        AcceptNew();
      } else {
        auto it = connections_.find(event.fd);
        if (it != connections_.end()) {
          // Copy out of the map: ReadFrom may fail/close the connection,
          // erasing the map node a reference to it->second would dangle on.
          std::shared_ptr<Connection> conn = it->second;
          ReadFrom(conn);
        }
      }
    }

    if (shutdown_requested_.load(std::memory_order_acquire) &&
        !draining_.load(std::memory_order_relaxed)) {
      BeginDrain();
      drain_deadline_ns = DeadlineAfterMillis(options_.drain_deadline_ms);
    }
  }

  // Outstanding work is zero: workers are idle. Stop and join them, then
  // close every connection. No admission slot can be held here — every
  // dispatched request ran Solve to completion (its RAII ticket released)
  // or was answered without entering Solve at all.
  {
    MutexLock lock(queue_mutex_);
    stop_workers_ = true;
  }
  queue_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();

  std::vector<int> open_fds;
  open_fds.reserve(connections_.size());
  for (const auto& [fd, conn] : connections_) open_fds.push_back(fd);
  for (int fd : open_fds) CloseConnection(fd);
  t_poller = nullptr;
  finished_.store(true, std::memory_order_release);
}

void KboostServer::BeginDrain() {
  draining_.store(true, std::memory_order_release);
  if (listen_fd_ >= 0) {
    t_poller->Remove(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Queued-but-unstarted requests are answered kUnavailable by the workers
  // themselves: they check draining_ after popping, so the queue drains
  // with typed replies without a second bookkeeping path here.
  queue_cv_.NotifyAll();
}

void KboostServer::AcceptNew() {
  while (true) {
    struct sockaddr_in peer = {};
    socklen_t peer_len = sizeof(peer);
    const int fd = ::accept(
        listen_fd_, reinterpret_cast<struct sockaddr*>(&peer), &peer_len);
    if (fd < 0) return;  // EAGAIN or transient accept failure: try later
    if (Status s = SetNonBlocking(fd); !s.ok()) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (connections_.size() >= options_.max_connections) {
      // Typed front-door reject: one kUnavailable error frame, then close.
      unavailable_rejects_.fetch_add(1, std::memory_order_relaxed);
      const std::string frame = EncodeErrorFrame(
          0, Status::Unavailable("connection limit reached"));
      WriteFully(fd, frame.data(), frame.size());
      ::close(fd);
      continue;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    active_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    connections_[fd] = conn;
    t_poller->Add(fd, true);
  }
}

void KboostServer::ReadFrom(const std::shared_ptr<Connection>& conn) {
  char buffer[65536];
  while (!conn->closing.load(std::memory_order_relaxed)) {
    const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      conn->in.append(buffer, static_cast<size_t>(n));
      // Flow control: stop reading once two full frames are buffered so a
      // blasting client cannot grow the buffer unboundedly while a request
      // is in flight.
      if (conn->in.size() >
          2 * (options_.max_frame_bytes + kFrameHeaderBytes)) {
        break;
      }
      continue;
    }
    if (n == 0) {
      conn->peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    conn->peer_closed = true;  // hard error: treat as gone
    break;
  }
  ProcessBuffered(conn);
}

void KboostServer::ProcessBuffered(const std::shared_ptr<Connection>& conn) {
  while (!conn->busy && !conn->closing.load(std::memory_order_relaxed)) {
    if (conn->in.size() < kFrameHeaderBytes) break;
    FrameHeader header;
    Status s = DecodeFrameHeader(
        reinterpret_cast<const uint8_t*>(conn->in.data()),
        options_.max_frame_bytes, &header);
    if (!s.ok()) {
      FailConnection(conn, 0, s);
      return;
    }
    if (conn->in.size() < kFrameHeaderBytes + header.body_len) break;
    frames_.fetch_add(1, std::memory_order_relaxed);
    const std::string body =
        conn->in.substr(kFrameHeaderBytes, header.body_len);
    conn->in.erase(0, kFrameHeaderBytes + header.body_len);
    HandleFrame(conn, header, reinterpret_cast<const uint8_t*>(body.data()));
  }
  // A peer that closed mid-frame (or cleanly) with nothing in flight:
  // whatever partial bytes remain are dropped and the connection closes —
  // a clean close, never a crash or a hang.
  if (!conn->busy && conn->peer_closed &&
      connections_.count(conn->fd) != 0) {
    CloseConnection(conn->fd);
    return;
  }
  UpdateReadInterest(conn);
}

void KboostServer::HandleFrame(const std::shared_ptr<Connection>& conn,
                               const FrameHeader& header,
                               const uint8_t* body) {
  const bool draining = draining_.load(std::memory_order_relaxed);
  switch (header.type) {
    case FrameType::kQuery: {
      WireQuery query;
      if (Status s = DecodeQueryBody(body, header.body_len, &query);
          !s.ok()) {
        FailConnection(conn, header.request_id, s);
        return;
      }
      // Check-and-enqueue under ONE lock hold. The old shape (check full,
      // unlock, push under a second hold) was correct only because this loop
      // is the queue's sole producer; one critical section makes the bound
      // a structural invariant instead of a thread-count accident, and
      // halves the dispatch path's lock traffic.
      bool enqueued = false;
      if (!draining) {
        WorkItem item;
        item.conn = conn;
        item.request_id = header.request_id;
        item.query = std::move(query);
        MutexLock lock(queue_mutex_);
        if (queue_.size() < options_.max_dispatch_queue) {
          queue_.push_back(std::move(item));
          enqueued = true;
        }
      }
      if (!enqueued) {
        // The connection-level reject: a typed kUnavailable reply, and the
        // connection stays open for the client's retry-elsewhere logic.
        unavailable_rejects_.fetch_add(1, std::memory_order_relaxed);
        WireQueryReply reply;
        reply.status = Status::Unavailable(
            draining ? "server shutting down" : "dispatch queue full");
        WriteReply(conn, EncodeQueryReplyFrame(header.request_id, reply));
        return;
      }
      // busy/outstanding_ are event-loop-owned; safe to set after the push
      // because completions are only processed by this same thread, later.
      conn->busy = true;
      ++outstanding_;
      dispatched_.fetch_add(1, std::memory_order_relaxed);
      queue_cv_.NotifyOne();
      return;
    }
    case FrameType::kStats: {
      // One lock-free-ish snapshot; cheap enough to answer on the loop.
      admin_frames_.fetch_add(1, std::memory_order_relaxed);
      WriteReply(conn,
                 EncodeStatsReplyFrame(header.request_id, service_->Stats()));
      return;
    }
    case FrameType::kRefresh: {
      admin_frames_.fetch_add(1, std::memory_order_relaxed);
      WireRefresh refresh;
      if (Status s = DecodeRefreshBody(body, header.body_len, &refresh);
          !s.ok()) {
        FailConnection(conn, header.request_id, s);
        return;
      }
      // Same single-hold check-and-enqueue as the query path above.
      bool enqueued = false;
      if (!draining) {
        WorkItem item;
        item.conn = conn;
        item.request_id = header.request_id;
        item.is_refresh = true;
        item.refresh = std::move(refresh);
        MutexLock lock(queue_mutex_);
        if (queue_.size() < options_.max_dispatch_queue) {
          queue_.push_back(std::move(item));
          enqueued = true;
        }
      }
      if (!enqueued) {
        WireRefreshReply reply;
        reply.status = Status::Unavailable(
            draining ? "server shutting down" : "dispatch queue full");
        WriteReply(conn, EncodeRefreshReplyFrame(header.request_id, reply));
        return;
      }
      conn->busy = true;
      ++outstanding_;
      queue_cv_.NotifyOne();
      return;
    }
    case FrameType::kShutdown: {
      admin_frames_.fetch_add(1, std::memory_order_relaxed);
      if (!options_.allow_remote_shutdown) {
        FailConnection(
            conn, header.request_id,
            Status::FailedPrecondition("remote shutdown is disabled"));
        return;
      }
      WriteReply(conn, EncodeShutdownReplyFrame(header.request_id));
      RequestShutdown();
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

void KboostServer::FailConnection(const std::shared_ptr<Connection>& conn,
                                  uint32_t request_id, const Status& error) {
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  WriteReply(conn, EncodeErrorFrame(request_id, error));
  conn->closing.store(true, std::memory_order_release);
  if (!conn->busy && connections_.count(conn->fd) != 0) {
    CloseConnection(conn->fd);
  }
}

void KboostServer::CloseConnection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  t_poller->Remove(fd);
  ::close(fd);
  connections_.erase(it);
  active_.fetch_sub(1, std::memory_order_relaxed);
}

void KboostServer::HandleCompletions() {
  std::vector<int> done;
  {
    MutexLock lock(completed_mutex_);
    done.swap(completed_fds_);
  }
  for (int fd : done) {
    auto it = connections_.find(fd);
    if (it == connections_.end()) continue;
    std::shared_ptr<Connection> conn = it->second;
    conn->busy = false;
    --outstanding_;
    if (conn->closing.load(std::memory_order_acquire) || conn->peer_closed) {
      CloseConnection(fd);
      continue;
    }
    // The reply is out; any pipelined frames buffered meanwhile run now.
    ProcessBuffered(conn);
  }
}

void KboostServer::UpdateReadInterest(const std::shared_ptr<Connection>& conn) {
  if (connections_.count(conn->fd) == 0) return;
  const bool want =
      !conn->closing.load(std::memory_order_relaxed) && !conn->peer_closed &&
      conn->in.size() <= 2 * (options_.max_frame_bytes + kFrameHeaderBytes);
  if (want != conn->want_read) {
    conn->want_read = want;
    t_poller->Update(conn->fd, want);
  }
}

// ---- Worker side -----------------------------------------------------------

void KboostServer::WriteReply(const std::shared_ptr<Connection>& conn,
                              const std::string& frame) {
  MutexLock lock(conn->write_mutex);
  if (conn->closing.load(std::memory_order_acquire)) return;
  if (!WriteFully(conn->fd, frame.data(), frame.size())) {
    conn->closing.store(true, std::memory_order_release);
  }
}

void KboostServer::CompleteWork(const std::shared_ptr<Connection>& conn) {
  {
    MutexLock lock(completed_mutex_);
    completed_fds_.push_back(conn->fd);
  }
  const char byte = kWakeCompletion;
  [[maybe_unused]] ssize_t ignored = ::write(wake_write_fd_, &byte, 1);
}

void KboostServer::WorkerLoop() {
  while (true) {
    WorkItem item;
    {
      MutexLock lock(queue_mutex_);
      while (queue_.empty() && !stop_workers_) queue_cv_.Wait(queue_mutex_);
      if (queue_.empty()) return;  // stop_workers_ with nothing left
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    const bool draining = draining_.load(std::memory_order_acquire);
    if (item.is_refresh) {
      WireRefreshReply reply;
      if (draining) {
        reply.status = Status::Unavailable("server shutting down");
      } else {
        reply.status = service_->RefreshPoolFromSnapshot(
            item.refresh.pool, item.refresh.snapshot_path);
        if (reply.status.ok()) {
          reply.version = service_->PoolVersion(item.refresh.pool);
        }
      }
      WriteReply(item.conn, EncodeRefreshReplyFrame(item.request_id, reply));
    } else {
      WireQueryReply reply;
      if (draining) {
        // Queued when the drain began: answered typed, never solved.
        unavailable_rejects_.fetch_add(1, std::memory_order_relaxed);
        reply.status = Status::Unavailable("server shutting down");
      } else {
        BoostRequest request;
        request.pool = item.query.pool;
        request.k = static_cast<size_t>(item.query.k);
        request.mode = item.query.mode;
        request.deadline_ms = item.query.deadline_ms;
        request.cancel = &drain_cancel_;
        StatusOr<BoostResponse> solved = service_->Solve(request);
        if (solved.ok()) {
          const BoostResponse& response = solved.value();
          reply.status = Status::Ok();
          reply.pool_version = response.pool_version;
          reply.solve_seconds = response.solve_seconds;
          reply.best_set = response.result.best_set;
          reply.best_estimate = response.result.best_estimate;
          reply.lb_set = response.result.lb_set;
          reply.lb_mu_hat = response.result.lb_mu_hat;
          reply.lb_delta_hat = response.result.lb_delta_hat;
          reply.delta_set = response.result.delta_set;
          reply.delta_delta_hat = response.result.delta_delta_hat;
          reply.pool_budget = response.result.pool_budget;
          reply.pool_reused = response.result.pool_reused;
          reply.num_samples = response.result.num_samples;
          reply.num_boostable = response.result.num_boostable;
        } else if (solved.status().code() == StatusCode::kCancelled &&
                   drain_cancel_.load(std::memory_order_relaxed)) {
          // Cancelled by the drain deadline, not by the client: report the
          // process-level condition.
          unavailable_rejects_.fetch_add(1, std::memory_order_relaxed);
          reply.status =
              Status::Unavailable("server shutting down (solve cancelled)");
        } else {
          reply.status = solved.status();
        }
      }
      WriteReply(item.conn, EncodeQueryReplyFrame(item.request_id, reply));
    }
    CompleteWork(item.conn);
    item.conn.reset();
  }
}

}  // namespace kboost
