// The network serving front-end's contract, in three layers:
//
//  1. Wire: every frame encoder/decoder round-trips bit-identically
//     (doubles travel as IEEE-754 bit patterns), the status-code mapping is
//     pinned in both directions, and the decoder-hardening matrix — bad
//     magic, bad version, reserved flags, unknown type, oversized declared
//     length, truncated/garbage bodies, trailing bytes — is a typed error
//     on every row, never a crash.
//  2. Server: a live KboostServer answers wire queries bit-identically to
//     in-process BoostService::Solve (one at a time or pipelined deep in
//     one write), keeps typed behaviour under the same corruption matrix
//     fired over a real socket (and survives it), rejects connection
//     overflow with kUnavailable, serves STATS/REFRESH/SHUTDOWN admin
//     frames, and never lets one peer stall another: a peer that stops
//     reading its replies or leaves a partial frame hanging is closed after
//     kPeerStallMs. Each event loop answers its own connections while the
//     others answer theirs, a REFRESH reply reaches the loop that owns its
//     connection, and neither a failed nor a finished Start leaks a
//     descriptor.
//  3. Shutdown: SIGTERM mid-storm drains gracefully — acceptor closed,
//     later frames answered kUnavailable, every reply flushed — and every
//     reply a client receives is Ok or Unavailable.
//
// This file runs under the ASan/UBSan job and the TSan job in CI.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <latch>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/boost_session.h"
#include "src/graph/generators.h"
#include "src/graph/graph_builder.h"
#include "src/io/pool_io.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/net/wire.h"
#include "src/serve/boost_service.h"
#include "src/util/fault.h"
#include "src/util/rng.h"
#include "tests/join_guard.h"
#include "tests/same_answer.h"

namespace kboost {
namespace {

DirectedGraph MakeTestGraph(uint64_t seed = 7) {
  Rng rng(seed);
  GraphBuilder b = BuildErdosRenyi(80, 500, rng);
  b.AssignConstantProbability(0.12);
  b.SetBoostWithBeta(2.0);
  return std::move(b).Build();
}

BoostOptions MakeOptions(size_t k) {
  BoostOptions options;
  options.k = k;
  options.seed = 11;
  options.num_threads = 2;
  return options;
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---- 1. Wire layer ---------------------------------------------------------

TEST(WireStatusTest, EveryStatusCodeRoundTripsThroughItsWireValue) {
  const StatusCode codes[] = {
      StatusCode::kOk,
      StatusCode::kInvalidArgument,
      StatusCode::kNotFound,
      StatusCode::kOutOfRange,
      StatusCode::kInternal,
      StatusCode::kIoError,
      StatusCode::kFailedPrecondition,
      StatusCode::kCancelled,
      StatusCode::kDeadlineExceeded,
      StatusCode::kResourceExhausted,
      StatusCode::kUnavailable,
  };
  for (StatusCode code : codes) {
    const uint8_t wire = WireCodeFromStatus(code);
    StatusOr<StatusCode> back = StatusCodeFromWire(wire);
    ASSERT_TRUE(back.ok()) << static_cast<int>(code);
    EXPECT_EQ(back.value(), code);
  }
  // The wire values are pinned, independent of the enum's numeric order.
  EXPECT_EQ(WireCodeFromStatus(StatusCode::kOk), 0);
  EXPECT_EQ(WireCodeFromStatus(StatusCode::kUnavailable), 10);
  EXPECT_EQ(StatusCodeFromWire(250).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WireFrameTest, HeaderRoundTripsEveryFrameType) {
  const FrameType types[] = {
      FrameType::kQuery,        FrameType::kQueryReply,
      FrameType::kStats,        FrameType::kStatsReply,
      FrameType::kRefresh,      FrameType::kRefreshReply,
      FrameType::kShutdown,     FrameType::kShutdownReply,
      FrameType::kError,
  };
  for (FrameType type : types) {
    std::string bytes;
    AppendFrameHeader(type, 0xDEADBEEFu, 123, &bytes);
    ASSERT_EQ(bytes.size(), kFrameHeaderBytes);
    FrameHeader header;
    ASSERT_TRUE(DecodeFrameHeader(
                    reinterpret_cast<const uint8_t*>(bytes.data()),
                    kDefaultMaxFrameBytes, &header)
                    .ok());
    EXPECT_EQ(header.type, type);
    EXPECT_EQ(header.request_id, 0xDEADBEEFu);
    EXPECT_EQ(header.body_len, 123u);
  }
}

TEST(WireFrameTest, HeaderHardeningMatrixIsTypedOnEveryRow) {
  std::string good;
  AppendFrameHeader(FrameType::kQuery, 1, 64, &good);
  const auto decode = [](const std::string& bytes, size_t max_frame) {
    FrameHeader header;
    return DecodeFrameHeader(reinterpret_cast<const uint8_t*>(bytes.data()),
                             max_frame, &header);
  };

  // Bad magic.
  std::string bad = good;
  bad[0] = 'X';
  EXPECT_EQ(decode(bad, kDefaultMaxFrameBytes).code(),
            StatusCode::kInvalidArgument);

  // Unknown version: typed as FailedPrecondition so a peer one version
  // ahead or behind gets a distinguishable error. A v3 peer (whose QUERY
  // still carried a deadline) is refused, so the bump itself is tested.
  EXPECT_EQ(kWireVersion, 5);
  for (const int version : {kWireVersion + 1, kWireVersion - 1}) {
    bad = good;
    bad[4] = static_cast<char>(version);
    EXPECT_EQ(decode(bad, kDefaultMaxFrameBytes).code(),
              StatusCode::kFailedPrecondition)
        << "version " << version;
  }

  // Unknown frame type.
  bad = good;
  bad[5] = 42;
  EXPECT_EQ(decode(bad, kDefaultMaxFrameBytes).code(),
            StatusCode::kInvalidArgument);

  // Reserved flags must be zero.
  bad = good;
  bad[6] = 1;
  EXPECT_EQ(decode(bad, kDefaultMaxFrameBytes).code(),
            StatusCode::kInvalidArgument);

  // Oversized declared body length, checked against the configured bound:
  // 64 bytes declared, 32 allowed.
  EXPECT_EQ(decode(good, 32).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(decode(good, 64).ok());
}

TEST(WireQueryTest, QueryRoundTripsEveryFieldAndMode) {
  for (SolveMode mode :
       {SolveMode::kAuto, SolveMode::kFull, SolveMode::kLbOnly}) {
    WireQuery query;
    query.pool = "digg-pool";
    query.k = 17;
    query.mode = mode;
    const std::string frame = EncodeQueryFrame(9, query);
    FrameHeader header;
    ASSERT_TRUE(DecodeFrameHeader(
                    reinterpret_cast<const uint8_t*>(frame.data()),
                    kDefaultMaxFrameBytes, &header)
                    .ok());
    EXPECT_EQ(header.type, FrameType::kQuery);
    EXPECT_EQ(header.request_id, 9u);
    WireQuery out;
    ASSERT_TRUE(DecodeQueryBody(reinterpret_cast<const uint8_t*>(
                                    frame.data() + kFrameHeaderBytes),
                                header.body_len, &out)
                    .ok());
    EXPECT_EQ(out.pool, query.pool);
    EXPECT_EQ(out.k, query.k);
    EXPECT_EQ(out.mode, query.mode);
  }
}

TEST(WireQueryTest, BodyDecodersRejectTruncationAndTrailingBytes) {
  WireQuery query;
  query.pool = "p";
  query.k = 3;
  const std::string frame = EncodeQueryFrame(1, query);
  const uint8_t* body =
      reinterpret_cast<const uint8_t*>(frame.data() + kFrameHeaderBytes);
  const size_t body_len = frame.size() - kFrameHeaderBytes;
  WireQuery out;
  ASSERT_TRUE(DecodeQueryBody(body, body_len, &out).ok());
  // Every truncation point is a typed error, not a read past the end.
  for (size_t cut = 0; cut < body_len; ++cut) {
    EXPECT_FALSE(DecodeQueryBody(body, cut, &out).ok()) << cut;
  }
  // Trailing bytes are a typed error, not silently ignored.
  std::string padded(frame.begin() + kFrameHeaderBytes, frame.end());
  padded.push_back('\0');
  EXPECT_FALSE(DecodeQueryBody(reinterpret_cast<const uint8_t*>(padded.data()),
                               padded.size(), &out)
                   .ok());
}

TEST(WireQueryTest, QueryReplyRoundTripsDoublesBitIdentically) {
  WireQueryReply reply;
  reply.status = Status::Ok();
  reply.pool_version = 7;
  reply.solve_seconds = 0.1 + 0.2;  // famously not 0.3
  reply.best_set = {5, 1, 80, 3};
  reply.best_estimate = 1.0 / 3.0;
  reply.lb_set = {9, 9, 9};
  reply.lb_mu_hat = std::nextafter(2.5, 3.0);
  reply.lb_delta_hat = 5e-324;  // smallest denormal
  reply.delta_set = {0};
  reply.delta_delta_hat = 1e308;
  reply.pool_budget = 50;
  reply.pool_reused = true;
  reply.num_samples = 31577;
  reply.num_boostable = 5299;

  const std::string frame = EncodeQueryReplyFrame(4, reply);
  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(
                  reinterpret_cast<const uint8_t*>(frame.data()),
                  kDefaultMaxFrameBytes, &header)
                  .ok());
  WireQueryReply out;
  ASSERT_TRUE(DecodeQueryReplyBody(reinterpret_cast<const uint8_t*>(
                                       frame.data() + kFrameHeaderBytes),
                                   header.body_len, &out)
                  .ok());
  EXPECT_TRUE(out.status.ok());
  EXPECT_EQ(out.pool_version, reply.pool_version);
  EXPECT_EQ(out.solve_seconds, reply.solve_seconds);
  EXPECT_EQ(out.best_set, reply.best_set);
  EXPECT_EQ(out.best_estimate, reply.best_estimate);
  EXPECT_EQ(out.lb_set, reply.lb_set);
  EXPECT_EQ(out.lb_mu_hat, reply.lb_mu_hat);
  EXPECT_EQ(out.lb_delta_hat, reply.lb_delta_hat);
  EXPECT_EQ(out.delta_set, reply.delta_set);
  EXPECT_EQ(out.delta_delta_hat, reply.delta_delta_hat);
  EXPECT_EQ(out.pool_budget, reply.pool_budget);
  EXPECT_EQ(out.pool_reused, reply.pool_reused);
  EXPECT_EQ(out.num_samples, reply.num_samples);
  EXPECT_EQ(out.num_boostable, reply.num_boostable);
}

TEST(WireQueryTest, NonOkReplyCarriesOnlyTheTypedStatus) {
  WireQueryReply reply;
  reply.status = Status::Unavailable("server shutting down");
  const std::string frame = EncodeQueryReplyFrame(2, reply);
  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(
                  reinterpret_cast<const uint8_t*>(frame.data()),
                  kDefaultMaxFrameBytes, &header)
                  .ok());
  WireQueryReply out;
  ASSERT_TRUE(DecodeQueryReplyBody(reinterpret_cast<const uint8_t*>(
                                       frame.data() + kFrameHeaderBytes),
                                   header.body_len, &out)
                  .ok());
  EXPECT_EQ(out.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(out.status.message(), "server shutting down");
  EXPECT_TRUE(out.best_set.empty());
}

TEST(WireAdminTest, StatsReplyRoundTrips) {
  ServiceStatsSnapshot stats;
  stats.not_found = 3;
  PoolStatsSnapshot pool;
  pool.pool = "digg";
  pool.version = 4;
  pool.refreshes = 3;
  pool.queries = 100;
  pool.errors = 2;
  pool.latency_mean_ms = 1.5;
  pool.latency_p50_ms = 1.25;
  pool.latency_p95_ms = 4.75;
  pool.latency_ewma_ms = 1.625;
  pool.registered_at = 1754600000.25;
  pool.refreshed_at = 1754600100.5;
  pool.last_rebuild_ms = 321.125;
  stats.pools.push_back(pool);

  const std::string frame = EncodeStatsReplyFrame(11, stats);
  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(
                  reinterpret_cast<const uint8_t*>(frame.data()),
                  kDefaultMaxFrameBytes, &header)
                  .ok());
  EXPECT_EQ(header.type, FrameType::kStatsReply);
  ServiceStatsSnapshot out;
  ASSERT_TRUE(DecodeStatsReplyBody(reinterpret_cast<const uint8_t*>(
                                       frame.data() + kFrameHeaderBytes),
                                   header.body_len, &out)
                  .ok());
  EXPECT_EQ(out.not_found, stats.not_found);
  ASSERT_EQ(out.pools.size(), 1u);
  const PoolStatsSnapshot& p = out.pools[0];
  EXPECT_EQ(p.pool, pool.pool);
  EXPECT_EQ(p.version, pool.version);
  EXPECT_EQ(p.refreshes, pool.refreshes);
  EXPECT_EQ(p.queries, pool.queries);
  EXPECT_EQ(p.errors, pool.errors);
  EXPECT_EQ(p.latency_mean_ms, pool.latency_mean_ms);
  EXPECT_EQ(p.latency_p50_ms, pool.latency_p50_ms);
  EXPECT_EQ(p.latency_p95_ms, pool.latency_p95_ms);
  EXPECT_EQ(p.latency_ewma_ms, pool.latency_ewma_ms);
  EXPECT_EQ(p.registered_at, pool.registered_at);
  EXPECT_EQ(p.refreshed_at, pool.refreshed_at);
  EXPECT_EQ(p.last_rebuild_ms, pool.last_rebuild_ms);
}

TEST(WireAdminTest, RefreshAndErrorFramesRoundTrip) {
  WireRefresh refresh;
  refresh.pool = "digg";
  refresh.snapshot_path = "/var/lib/kboost/digg-v2.pool";
  const std::string frame = EncodeRefreshFrame(6, refresh);
  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(
                  reinterpret_cast<const uint8_t*>(frame.data()),
                  kDefaultMaxFrameBytes, &header)
                  .ok());
  WireRefresh out;
  ASSERT_TRUE(DecodeRefreshBody(reinterpret_cast<const uint8_t*>(
                                    frame.data() + kFrameHeaderBytes),
                                header.body_len, &out)
                  .ok());
  EXPECT_EQ(out.pool, refresh.pool);
  EXPECT_EQ(out.snapshot_path, refresh.snapshot_path);

  WireRefreshReply reply;
  reply.status = Status::Ok();
  reply.version = 9;
  const std::string reply_frame = EncodeRefreshReplyFrame(6, reply);
  ASSERT_TRUE(DecodeFrameHeader(
                  reinterpret_cast<const uint8_t*>(reply_frame.data()),
                  kDefaultMaxFrameBytes, &header)
                  .ok());
  WireRefreshReply reply_out;
  ASSERT_TRUE(DecodeRefreshReplyBody(
                  reinterpret_cast<const uint8_t*>(reply_frame.data() +
                                                   kFrameHeaderBytes),
                  header.body_len, &reply_out)
                  .ok());
  EXPECT_TRUE(reply_out.status.ok());
  EXPECT_EQ(reply_out.version, 9u);

  const std::string error_frame =
      EncodeErrorFrame(3, Status::FailedPrecondition("wire version 2"));
  ASSERT_TRUE(DecodeFrameHeader(
                  reinterpret_cast<const uint8_t*>(error_frame.data()),
                  kDefaultMaxFrameBytes, &header)
                  .ok());
  EXPECT_EQ(header.type, FrameType::kError);
  Status error;
  ASSERT_TRUE(DecodeErrorBody(reinterpret_cast<const uint8_t*>(
                                  error_frame.data() + kFrameHeaderBytes),
                              header.body_len, &error)
                  .ok());
  EXPECT_EQ(error.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(error.message(), "wire version 2");
}

TEST(WireFuzzTest, GarbageBodiesAreTypedErrorsNeverCrashes) {
  // Deterministic garbage at many lengths through every body decoder: the
  // contract is a typed error (or, coincidentally, a parse) — never a
  // crash, never a read past the declared length. ASan enforces the bounds
  // half of that claim when this runs in the sanitizer job.
  Rng rng(20260808);
  for (int round = 0; round < 256; ++round) {
    const size_t len = static_cast<size_t>(rng.NextU64() % 96);
    std::vector<uint8_t> body(len);
    for (uint8_t& byte : body) {
      byte = static_cast<uint8_t>(rng.NextU64());
    }
    WireQuery query;
    (void)DecodeQueryBody(body.data(), body.size(), &query);
    WireQueryReply reply;
    (void)DecodeQueryReplyBody(body.data(), body.size(), &reply);
    ServiceStatsSnapshot stats;
    (void)DecodeStatsReplyBody(body.data(), body.size(), &stats);
    WireRefresh refresh;
    (void)DecodeRefreshBody(body.data(), body.size(), &refresh);
    WireRefreshReply refresh_reply;
    (void)DecodeRefreshReplyBody(body.data(), body.size(), &refresh_reply);
    Status status;
    (void)DecodeErrorBody(body.data(), body.size(), &status);
  }
  SUCCEED();
}

// ---- 2. Live server --------------------------------------------------------

/// Raw TCP connection for speaking deliberately broken protocol at a live
/// server (the client library refuses to send these bytes).
class RawConn {
 public:
  static int Connect(uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    struct timeval tv = {5, 0};  // never let a test hang on a read
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    return fd;
  }

  static void Send(int fd, const std::string& bytes) {
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Reads one full frame; fails the test on timeout or early close.
  static void ReadFrame(int fd, FrameHeader* header, std::string* body) {
    uint8_t header_bytes[kFrameHeaderBytes];
    ASSERT_TRUE(ReadExactly(fd, header_bytes, kFrameHeaderBytes));
    ASSERT_TRUE(
        DecodeFrameHeader(header_bytes, kDefaultMaxFrameBytes, header).ok());
    body->resize(header->body_len);
    if (header->body_len > 0) {
      ASSERT_TRUE(ReadExactly(
          fd, reinterpret_cast<uint8_t*>(body->data()), header->body_len));
    }
  }

  /// True when the server closed the connection (recv returns 0).
  static bool ReadClosed(int fd) {
    char byte;
    return ::recv(fd, &byte, 1, 0) == 0;
  }

  /// Expects: one typed error frame with `code`, then a clean close.
  static void ExpectErrorAndClose(int fd, StatusCode code) {
    FrameHeader header;
    std::string body;
    ReadFrame(fd, &header, &body);
    ASSERT_EQ(header.type, FrameType::kError);
    Status error;
    ASSERT_TRUE(DecodeErrorBody(reinterpret_cast<const uint8_t*>(body.data()),
                                body.size(), &error)
                    .ok());
    EXPECT_EQ(error.code(), code) << error.ToString();
    EXPECT_TRUE(ReadClosed(fd));
    ::close(fd);
  }

 private:
  static bool ReadExactly(int fd, uint8_t* out, size_t len) {
    size_t off = 0;
    while (off < len) {
      const ssize_t n = ::recv(fd, out + off, len - off, 0);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }
};

size_t OpenFdCount() {
  size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

class NetServerTest : public ::testing::Test {
 protected:
  void SetUp() override { graph_ = MakeTestGraph(); }

  void TearDown() override {
    FaultInjector::Global().DisarmAll();
    server_.reset();
    service_.reset();
  }

  void StartService() {
    StatusOr<std::unique_ptr<BoostService>> service =
        BoostService::Create(graph_);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    service_ = std::move(service).value();
    StatusOr<std::unique_ptr<BoostSession>> session =
        BoostSession::Create(graph_, {0, 1, 2}, MakeOptions(8));
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    ASSERT_TRUE(service_->AddPool("pool", std::move(session).value()).ok());
  }

  /// Saves to `path` a snapshot of a pool identical to "pool" (same graph,
  /// seeds and options): the twin the REFRESH tests swap in, which answers
  /// with the same bits under the next version.
  void SaveTwinSnapshot(const std::string& path) {
    StatusOr<std::unique_ptr<BoostSession>> twin =
        BoostSession::Create(graph_, {0, 1, 2}, MakeOptions(8));
    ASSERT_TRUE(twin.ok());
    (*twin)->Prepare();
    ASSERT_TRUE(SavePoolSnapshot(**twin, path, PoolSaveOptions{}).ok());
  }

  void StartServer(ServerOptions options = ServerOptions()) {
    StatusOr<std::unique_ptr<KboostServer>> server =
        KboostServer::Start(service_.get(), options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
  }

  std::unique_ptr<KboostClient> MustConnect() {
    StatusOr<std::unique_ptr<KboostClient>> client =
        KboostClient::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(client).value() : nullptr;
  }

  /// The in-process response, pool version included, for each of
  /// `queries`, solved before any fault is armed.
  std::vector<BoostResponse> InProcessAnswers(
      const std::vector<WireQuery>& queries) {
    std::vector<BoostResponse> answers;
    for (const WireQuery& query : queries) {
      BoostRequest request;
      request.pool = query.pool;
      request.k = query.k;
      request.mode = query.mode;
      StatusOr<BoostResponse> local = service_->Solve(request);
      EXPECT_TRUE(local.ok()) << local.status().ToString();
      answers.push_back(local.ok() ? local.value() : BoostResponse());
    }
    return answers;
  }

  /// After every client has closed: the loop has reaped each connection
  /// (it sees EOFs asynchronously, so poll briefly) and sent no protocol
  /// error.
  void ExpectDrained() {
    for (int i = 0; i < 500 && server_->counters().active_connections != 0;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(server_->counters().active_connections, 0u);
    EXPECT_EQ(server_->counters().protocol_errors, 0u);
  }

  DirectedGraph graph_;
  std::unique_ptr<BoostService> service_;
  std::unique_ptr<KboostServer> server_;
};

/// Every (k, mode) once, the stream the wire tests replay.
std::vector<WireQuery> KModeStream() {
  std::vector<WireQuery> queries;
  for (uint64_t k : {1, 4, 8}) {
    for (SolveMode mode :
         {SolveMode::kAuto, SolveMode::kFull, SolveMode::kLbOnly}) {
      WireQuery query;
      query.pool = "pool";
      query.k = k;
      query.mode = mode;
      queries.push_back(query);
    }
  }
  return queries;
}

/// Outcomes of a wire storm, classified per reply.
struct StormCounts {
  std::atomic<size_t> answered{0};
  std::atomic<size_t> divergent{0};
  std::atomic<size_t> untyped{0};  ///< transport failures and non-OK replies
};

/// `clients` connections each send `per_client` queries from `queries`
/// (phase-shifted per client) and classify every reply against `reference`.
void RunWireStorm(uint16_t port, const std::vector<WireQuery>& queries,
                  const std::vector<BoostResponse>& reference, size_t clients,
                  size_t per_client, StormCounts* counts) {
  std::vector<std::thread> threads;
  for (size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      StatusOr<std::unique_ptr<KboostClient>> client =
          KboostClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        counts->untyped.fetch_add(per_client);
        return;
      }
      for (size_t i = 0; i < per_client; ++i) {
        const size_t q = (t + i) % queries.size();
        StatusOr<WireQueryReply> reply = (*client)->Query(queries[q]);
        if (!reply.ok()) {
          counts->untyped.fetch_add(per_client - i);
          return;
        }
        if (reply->status.ok()) {
          counts->answered.fetch_add(1);
          if (!SameAnswer(*reply, reference[q])) counts->divergent.fetch_add(1);
        } else {
          counts->untyped.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

TEST_F(NetServerTest, WireAnswersAreBitIdenticalToInProcessSolve) {
  StartService();
  StartServer();
  const std::vector<WireQuery> queries = KModeStream();
  const std::vector<BoostResponse> reference = InProcessAnswers(queries);

  // Four concurrent clients replay the stream three times each. The
  // serving guarantee crosses the wire intact: every set and every double
  // of every answer compares exactly equal.
  StormCounts storm;
  RunWireStorm(server_->port(), queries, reference, 4, 3 * queries.size(),
               &storm);
  EXPECT_EQ(storm.answered.load(), 4 * 3 * queries.size());
  EXPECT_EQ(storm.divergent.load(), 0u);
  ExpectDrained();
}

/// REFRESH to an identical twin lands while clients are mid-stream: the
/// version goes up by exactly one and not one answer changes, before or
/// after the swap.
TEST_F(NetServerTest, RefreshMidStormKeepsEveryAnswer) {
  StartService();
  StartServer();
  const std::vector<WireQuery> queries = KModeStream();
  const std::vector<BoostResponse> reference = InProcessAnswers(queries);
  const std::string snapshot = TempPath("net_test_refresh_storm.pool");
  ASSERT_NO_FATAL_FAILURE(SaveTwinSnapshot(snapshot));
  // The twin answers with the same bits under the next version.
  std::vector<BoostResponse> twin_reference = reference;
  for (BoostResponse& r : twin_reference) r.pool_version = 2;

  // Each client keeps querying until it has sent kMinPerClient queries and
  // seen an answer from the refreshed pool, so answers from both pools are
  // checked; a short stall keeps the storm running across the swap.
  FaultInjector::Plan slow;
  slow.delay_micros = 1'000;
  FaultInjector::Global().Arm(FaultSite::kSolveStart, slow);
  constexpr size_t kClients = 3;
  constexpr size_t kMinPerClient = 12;
  constexpr size_t kMaxPerClient = 2'000;
  std::atomic<size_t> failures{0};
  std::atomic<size_t> divergent{0};
  std::atomic<size_t> per_version[3] = {0, 0, 0};
  std::vector<std::thread> clients;
  JoinGuard join_clients(clients, [&] { server_->RequestShutdown(); });
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      std::unique_ptr<KboostClient> client = MustConnect();
      if (client == nullptr) return;
      bool saw_refreshed = false;
      for (size_t i = 0; i < kMaxPerClient; ++i) {
        if (i >= kMinPerClient && saw_refreshed) break;
        const size_t q = (t + i) % queries.size();
        StatusOr<WireQueryReply> reply = client->Query(queries[q]);
        if (!reply.ok() || !reply->status.ok() ||
            reply->pool_version < 1 || reply->pool_version > 2) {
          failures.fetch_add(1);
          return;
        }
        const std::vector<BoostResponse>& want =
            reply->pool_version == 1 ? reference : twin_reference;
        if (!SameAnswer(*reply, want[q])) divergent.fetch_add(1);
        per_version[reply->pool_version].fetch_add(1);
        saw_refreshed = reply->pool_version == 2;
      }
    });
  }
  for (int i = 0; i < 5000 && server_->counters().queries_dispatched <
                                  kClients;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::unique_ptr<KboostClient> admin = MustConnect();
  ASSERT_NE(admin, nullptr);
  StatusOr<WireRefreshReply> refreshed =
      admin->Refresh(WireRefresh{"pool", snapshot});
  admin->Close();
  for (std::thread& c : clients) c.join();
  FaultInjector::Global().DisarmAll();
  std::remove(snapshot.c_str());

  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  ASSERT_TRUE(refreshed->status.ok()) << refreshed->status.ToString();
  EXPECT_EQ(refreshed->version, 2u);
  EXPECT_EQ(service_->PoolVersion("pool"), 2u);
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(divergent.load(), 0u);
  EXPECT_GT(per_version[1].load(), 0u);
  EXPECT_GT(per_version[2].load(), 0u);
  ExpectDrained();
}

/// A REFRESH reply returns through the inbox of the loop that owns its
/// connection. Connection i lands on loop i mod N, so N + 1 connections
/// cover every loop (loop 0 twice); each refreshes in turn and then answers
/// from the refreshed pool.
TEST_F(NetServerTest, RefreshRepliesReachTheLoopThatOwnsTheConnection) {
  StartService();
  StartServer();
  const std::vector<WireQuery> queries = KModeStream();
  const std::vector<BoostResponse> reference = InProcessAnswers(queries);
  const std::string snapshot = TempPath("net_test_refresh_loops.pool");
  ASSERT_NO_FATAL_FAILURE(SaveTwinSnapshot(snapshot));
  std::vector<std::unique_ptr<KboostClient>> clients;
  for (int i = 0; i <= KboostServer::NumLoops(); ++i) {
    clients.push_back(MustConnect());
    ASSERT_NE(clients.back(), nullptr);
  }

  uint64_t version = service_->PoolVersion("pool");
  for (size_t i = 0; i < clients.size(); ++i) {
    StatusOr<WireRefreshReply> refreshed =
        clients[i]->Refresh(WireRefresh{"pool", snapshot});
    ASSERT_TRUE(refreshed.ok())
        << "connection " << i << ": " << refreshed.status().ToString();
    ASSERT_TRUE(refreshed->status.ok()) << refreshed->status.ToString();
    EXPECT_GT(refreshed->version, version) << "connection " << i;
    version = refreshed->version;

    // The twin answers with the same bits under the new version.
    const size_t q = i % queries.size();
    StatusOr<WireQueryReply> reply = clients[i]->Query(queries[q]);
    ASSERT_TRUE(reply.ok())
        << "connection " << i << ": " << reply.status().ToString();
    BoostResponse want = reference[q];
    want.pool_version = version;
    EXPECT_TRUE(SameAnswer(*reply, want)) << "connection " << i;
  }
  std::remove(snapshot.c_str());
}

TEST_F(NetServerTest, UnknownPoolIsTypedNotFoundOverTheWire) {
  StartService();
  StartServer();
  std::unique_ptr<KboostClient> client = MustConnect();
  ASSERT_NE(client, nullptr);
  WireQuery query;
  query.pool = "nope";
  query.k = 1;
  StatusOr<WireQueryReply> reply = client->Query(query);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().status.code(), StatusCode::kNotFound);
  // The connection survives a typed remote error; the next query answers.
  query.pool = "pool";
  StatusOr<WireQueryReply> good = client->Query(query);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_TRUE(good.value().status.ok());
}

TEST_F(NetServerTest, CorruptionMatrixOverLiveSocketIsTypedNeverFatal) {
  StartService();
  StartServer();

  // Row 1: bad magic.
  {
    int fd = RawConn::Connect(server_->port());
    std::string frame = EncodeQueryFrame(1, WireQuery{"pool", 1});
    frame[0] = 'X';
    RawConn::Send(fd, frame);
    RawConn::ExpectErrorAndClose(fd, StatusCode::kInvalidArgument);
  }
  // Row 2: wrong protocol version.
  {
    int fd = RawConn::Connect(server_->port());
    std::string frame = EncodeQueryFrame(1, WireQuery{"pool", 1});
    frame[4] = static_cast<char>(kWireVersion + 1);
    RawConn::Send(fd, frame);
    RawConn::ExpectErrorAndClose(fd, StatusCode::kFailedPrecondition);
  }
  // Row 3: reserved flags set.
  {
    int fd = RawConn::Connect(server_->port());
    std::string frame = EncodeQueryFrame(1, WireQuery{"pool", 1});
    frame[6] = 1;
    RawConn::Send(fd, frame);
    RawConn::ExpectErrorAndClose(fd, StatusCode::kInvalidArgument);
  }
  // Row 4: unknown frame type.
  {
    int fd = RawConn::Connect(server_->port());
    std::string frame = EncodeQueryFrame(1, WireQuery{"pool", 1});
    frame[5] = 77;
    RawConn::Send(fd, frame);
    RawConn::ExpectErrorAndClose(fd, StatusCode::kInvalidArgument);
  }
  // Row 5: oversized declared length (4 MiB against the 1 MiB default),
  // rejected from the header alone — the body never needs to arrive.
  {
    int fd = RawConn::Connect(server_->port());
    std::string header;
    AppendFrameHeader(FrameType::kQuery, 1, 4u << 20, &header);
    RawConn::Send(fd, header);
    RawConn::ExpectErrorAndClose(fd, StatusCode::kInvalidArgument);
  }
  // Row 6: valid header, garbage body.
  {
    int fd = RawConn::Connect(server_->port());
    std::string frame;
    AppendFrameHeader(FrameType::kQuery, 1, 12, &frame);
    frame += std::string("\xff\xff\xff\xff GARBAGE", 12);
    RawConn::Send(fd, frame);
    RawConn::ExpectErrorAndClose(fd, StatusCode::kInvalidArgument);
  }
  // Row 7: a reply frame from a client is a protocol error.
  {
    int fd = RawConn::Connect(server_->port());
    RawConn::Send(fd, EncodeShutdownReplyFrame(1));
    RawConn::ExpectErrorAndClose(fd, StatusCode::kInvalidArgument);
  }
  // Row 8: truncated header, then disconnect — clean close, no reply owed.
  {
    int fd = RawConn::Connect(server_->port());
    RawConn::Send(fd, std::string("KBST", 4));
    ::close(fd);
  }
  // Row 9: mid-frame disconnect — header promises 100 body bytes, 10
  // arrive, peer vanishes. Clean close, never a hang.
  {
    int fd = RawConn::Connect(server_->port());
    std::string partial;
    AppendFrameHeader(FrameType::kQuery, 1, 100, &partial);
    partial += std::string(10, 'x');
    RawConn::Send(fd, partial);
    ::close(fd);
  }

  // The server survived all nine rows: a fresh client still gets a correct
  // answer, and each matrix row was counted as a protocol error.
  std::unique_ptr<KboostClient> client = MustConnect();
  ASSERT_NE(client, nullptr);
  StatusOr<WireQueryReply> reply = client->Query(WireQuery{"pool", 2});
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply.value().status.ok());
  EXPECT_EQ(server_->counters().protocol_errors, 7u);
}

TEST_F(NetServerTest, StatsAndRefreshAdminFramesWork) {
  StartService();
  StartServer();
  std::unique_ptr<KboostClient> client = MustConnect();
  ASSERT_NE(client, nullptr);

  // Two queries, then STATS must report them against the pool.
  for (int i = 0; i < 2; ++i) {
    StatusOr<WireQueryReply> reply = client->Query(WireQuery{"pool", 3});
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(reply.value().status.ok());
  }
  StatusOr<ServiceStatsSnapshot> stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats.value().pools.size(), 1u);
  EXPECT_EQ(stats.value().pools[0].pool, "pool");
  EXPECT_GE(stats.value().pools[0].queries, 2u);

  // REFRESH from a snapshot of an identical session: version bumps, bits
  // do not change.
  StatusOr<WireQueryReply> before = client->Query(WireQuery{"pool", 8});
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(before.value().status.ok());
  EXPECT_EQ(before.value().pool_version, 1u);

  const std::string snapshot = TempPath("net_test_refresh.pool");
  ASSERT_NO_FATAL_FAILURE(SaveTwinSnapshot(snapshot));
  StatusOr<WireRefreshReply> refreshed =
      client->Refresh(WireRefresh{"pool", snapshot});
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  ASSERT_TRUE(refreshed.value().status.ok())
      << refreshed.value().status.ToString();
  EXPECT_EQ(refreshed.value().version, 2u);

  StatusOr<WireQueryReply> after = client->Query(WireQuery{"pool", 8});
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(after.value().status.ok());
  EXPECT_EQ(after.value().pool_version, 2u);
  EXPECT_EQ(after.value().best_set, before.value().best_set);
  EXPECT_EQ(after.value().best_estimate, before.value().best_estimate);

  // A refresh of an unknown pool is a typed NotFound in the reply, not a
  // dropped connection.
  StatusOr<WireRefreshReply> missing =
      client->Refresh(WireRefresh{"nope", snapshot});
  ASSERT_TRUE(missing.ok()) << missing.status().ToString();
  EXPECT_EQ(missing.value().status.code(), StatusCode::kNotFound)
      << missing.value().status.ToString();
  std::remove(snapshot.c_str());

  // A refresh from a snapshot path that does not exist fails its one load
  // attempt with a typed IoError; the live pool keeps its version and bits.
  StatusOr<WireRefreshReply> no_file =
      client->Refresh(WireRefresh{"pool", snapshot});
  ASSERT_TRUE(no_file.ok()) << no_file.status().ToString();
  EXPECT_EQ(no_file.value().status.code(), StatusCode::kIoError)
      << no_file.value().status.ToString();
  StatusOr<WireQueryReply> unchanged = client->Query(WireQuery{"pool", 8});
  ASSERT_TRUE(unchanged.ok());
  ASSERT_TRUE(unchanged.value().status.ok());
  EXPECT_EQ(unchanged.value().pool_version, 2u);
  EXPECT_TRUE(SameAnswer(unchanged.value(),
                         InProcessAnswers({WireQuery{"pool", 8}})[0]));
  EXPECT_EQ(unchanged.value().best_estimate, after.value().best_estimate);
}

TEST_F(NetServerTest, ConnectionLimitSendsTypedUnavailableErrorFrame) {
  StartService();
  ServerOptions options;
  options.max_connections = 1;
  StartServer(options);

  std::unique_ptr<KboostClient> first = MustConnect();
  ASSERT_NE(first, nullptr);
  // Make sure the first connection is fully accepted before the second
  // tries the front door.
  StatusOr<WireQueryReply> warm = first->Query(WireQuery{"pool", 1});
  ASSERT_TRUE(warm.ok());

  int fd = RawConn::Connect(server_->port());
  RawConn::ExpectErrorAndClose(fd, StatusCode::kUnavailable);
  EXPECT_EQ(server_->counters().unavailable_rejects, 1u);

  // The admitted connection is unaffected.
  StatusOr<WireQueryReply> still = first->Query(WireQuery{"pool", 1});
  ASSERT_TRUE(still.ok());
  EXPECT_TRUE(still.value().status.ok());
}

TEST_F(NetServerTest, RemoteShutdownFrameDrainsTheServer) {
  StartService();
  StartServer();
  std::unique_ptr<KboostClient> client = MustConnect();
  ASSERT_NE(client, nullptr);
  Status acked = client->Shutdown();
  ASSERT_TRUE(acked.ok()) << acked.ToString();
  server_->Wait();
  EXPECT_TRUE(server_->finished());
  // The listener is gone: a fresh connect must fail.
  StatusOr<std::unique_ptr<KboostClient>> late =
      KboostClient::Connect("127.0.0.1", server_->port());
  EXPECT_FALSE(late.ok());
}

TEST_F(NetServerTest, RemoteShutdownCanBeDisabled) {
  StartService();
  ServerOptions options;
  options.allow_remote_shutdown = false;
  StartServer(options);
  std::unique_ptr<KboostClient> client = MustConnect();
  ASSERT_NE(client, nullptr);
  Status denied = client->Shutdown();
  EXPECT_EQ(denied.code(), StatusCode::kFailedPrecondition)
      << denied.ToString();
  // And the server keeps serving.
  std::unique_ptr<KboostClient> again = MustConnect();
  ASSERT_NE(again, nullptr);
  StatusOr<WireQueryReply> reply = again->Query(WireQuery{"pool", 1});
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply.value().status.ok());
}

TEST_F(NetServerTest, PipelinedQueriesAreAnsweredInOrderBitIdentically) {
  StartService();
  StartServer();

  // The in-process answer for every (k, mode) the stream mixes.
  constexpr SolveMode kModes[] = {SolveMode::kAuto, SolveMode::kFull,
                                  SolveMode::kLbOnly};
  std::map<std::pair<uint64_t, SolveMode>, BoostResponse> reference;
  for (uint64_t k = 1; k <= 8; ++k) {
    for (SolveMode mode : kModes) {
      BoostRequest request;
      request.pool = "pool";
      request.k = k;
      request.mode = mode;
      StatusOr<BoostResponse> local = service_->Solve(request);
      ASSERT_TRUE(local.ok()) << local.status().ToString();
      reference[{k, mode}] = local.value();
    }
  }

  constexpr uint32_t kFrames = 12'000;
  std::vector<WireQuery> queries(kFrames);
  std::string stream;
  for (uint32_t i = 0; i < kFrames; ++i) {
    queries[i].pool = "pool";
    queries[i].k = 1 + i % 8;
    queries[i].mode = kModes[(i / 8) % 3];
    stream += EncodeQueryFrame(i + 1, queries[i]);
  }
  const int fd = RawConn::Connect(server_->port());
  // One write, from its own thread: this side must read replies while the
  // write runs, or both socket buffers fill and the server stops reading.
  std::thread writer([&] { RawConn::Send(fd, stream); });
  JoinGuard join_writer(writer, [&] { ::shutdown(fd, SHUT_RDWR); });
  for (uint32_t i = 0; i < kFrames; ++i) {
    FrameHeader header;
    std::string body;
    ASSERT_NO_FATAL_FAILURE(RawConn::ReadFrame(fd, &header, &body));
    ASSERT_EQ(header.type, FrameType::kQueryReply) << "frame " << i;
    ASSERT_EQ(header.request_id, i + 1);
    WireQueryReply reply;
    ASSERT_TRUE(DecodeQueryReplyBody(
                    reinterpret_cast<const uint8_t*>(body.data()),
                    body.size(), &reply)
                    .ok());
    ASSERT_TRUE(reply.status.ok()) << reply.status.ToString();
    ASSERT_TRUE(
        SameAnswer(reply, reference.at({queries[i].k, queries[i].mode})))
        << "frame " << i;
  }
  writer.join();
  ::close(fd);
}

/// Each loop answers its own connections: two stalled solves on two
/// connections overlap instead of queueing behind one loop.
TEST_F(NetServerTest, LoopsAnswerTheirConnectionsConcurrently) {
  if (KboostServer::NumLoops() < 2) {
    GTEST_SKIP() << "fewer than four hardware threads run one loop";
  }
  StartService();
  StartServer();
  // Consecutive connections land on different loops (i mod N).
  std::unique_ptr<KboostClient> clients[] = {MustConnect(), MustConnect()};
  for (const std::unique_ptr<KboostClient>& client : clients) {
    ASSERT_NE(client, nullptr);
  }

  // Every solve stalls 300 ms, so one loop answering both queries would
  // send the second reply no earlier than 600 ms after the two were sent.
  FaultInjector::Plan stall;
  stall.delay_micros = 300'000;
  FaultInjector::Global().Arm(FaultSite::kSolveStart, stall);
  std::latch start(2);
  double elapsed_ms[2] = {0.0, 0.0};
  std::vector<std::thread> senders;
  for (int c = 0; c < 2; ++c) {
    senders.emplace_back([&, c] {
      start.arrive_and_wait();
      const auto sent_at = std::chrono::steady_clock::now();
      StatusOr<WireQueryReply> reply = clients[c]->Query(WireQuery{"pool", 4});
      elapsed_ms[c] = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - sent_at)
                          .count();
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      EXPECT_TRUE(reply->status.ok()) << reply->status.ToString();
    });
  }
  for (std::thread& sender : senders) sender.join();
  EXPECT_LT(elapsed_ms[0], 450.0);
  EXPECT_LT(elapsed_ms[1], 450.0);
}

TEST_F(NetServerTest, NonReadingFlooderNeitherDelaysOthersNorKeepsItsSlot) {
  StartService();
  StartServer();
  std::unique_ptr<KboostClient> client = MustConnect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Query(WireQuery{"pool", 1}).ok());

  // A peer pipelines ~200k STATS frames and never reads a reply.
  std::string flood;
  for (uint32_t id = 1; id <= 200'000; ++id) {
    AppendFrameHeader(FrameType::kStats, id, 0, &flood);
  }
  const int flooder = RawConn::Connect(server_->port());
  struct timeval send_timeout = {kPeerStallMs / 1000 + 5, 0};
  ::setsockopt(flooder, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
               sizeof(send_timeout));
  const uint64_t before_flood = server_->counters().frames_received;
  std::thread flood_thread([&] {
    // Blocks once the server stops reading; fails once it closes us.
    [[maybe_unused]] ssize_t sent =
        ::send(flooder, flood.data(), flood.size(), MSG_NOSIGNAL);
  });
  JoinGuard join_flooder(flood_thread,
                         [&] { ::shutdown(flooder, SHUT_RDWR); });
  // The server answers what the socket buffers take, then the flooder's
  // replies are stuck: wait until no frame has arrived for 100 ms.
  uint64_t frames = before_flood;
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const uint64_t now = server_->counters().frames_received;
    if (now == frames && now > before_flood) break;
    frames = now;
  }

  // The other client keeps querying while the flooder's replies pile up;
  // within kPeerStallMs + 2 s the flooder's connection is closed.
  const auto start = std::chrono::steady_clock::now();
  const auto bound = std::chrono::milliseconds(kPeerStallMs + 2000);
  double slowest_ms = 0.0;
  bool reaped = false;
  while (!reaped && std::chrono::steady_clock::now() - start < bound) {
    const auto sent_at = std::chrono::steady_clock::now();
    StatusOr<WireQueryReply> reply = client->Query(WireQuery{"pool", 2});
    slowest_ms = std::max(
        slowest_ms, std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - sent_at)
                        .count());
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_TRUE(reply.value().status.ok());
    reaped = server_->counters().active_connections == 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  flood_thread.join();
  ::close(flooder);
  EXPECT_LT(slowest_ms, 1000.0) << "a non-reading peer delayed a query";
  EXPECT_TRUE(reaped) << "the flooder still holds its connection";
}

TEST_F(NetServerTest, PartialFramePeersAreClosedAndFreeTheirSlots) {
  StartService();
  ServerOptions options;
  options.max_connections = 3;
  StartServer(options);
  std::unique_ptr<KboostClient> live = MustConnect();
  ASSERT_NE(live, nullptr);
  ASSERT_TRUE(live->Query(WireQuery{"pool", 1}).ok());

  // Two peers send 4 bytes of a header and go quiet. The receive timeout
  // turns a server that never closes them into a failure, not a hang.
  const auto start = std::chrono::steady_clock::now();
  const int stalled[] = {RawConn::Connect(server_->port()),
                         RawConn::Connect(server_->port())};
  struct timeval read_timeout = {kPeerStallMs / 1000 + 2, 0};
  for (int fd : stalled) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &read_timeout,
                 sizeof(read_timeout));
    RawConn::Send(fd, std::string("KBST", 4));
  }
  for (int i = 0; i < 200 && server_->counters().active_connections < 3;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(server_->counters().active_connections, 3u);

  // Every slot is held: the front door rejects typed.
  RawConn::ExpectErrorAndClose(RawConn::Connect(server_->port()),
                               StatusCode::kUnavailable);

  // Both stalled peers are closed within kPeerStallMs + 2 s ...
  for (int fd : stalled) {
    EXPECT_TRUE(RawConn::ReadClosed(fd));
    ::close(fd);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(kPeerStallMs + 2000));

  // ... which frees their slots for a new client, while the live client,
  // idle with nothing buffered all along, was never reaped.
  std::unique_ptr<KboostClient> fresh = MustConnect();
  ASSERT_NE(fresh, nullptr);
  StatusOr<WireQueryReply> reply = fresh->Query(WireQuery{"pool", 2});
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply.value().status.ok());
  StatusOr<WireQueryReply> still = live->Query(WireQuery{"pool", 2});
  ASSERT_TRUE(still.ok()) << still.status().ToString();
  EXPECT_TRUE(still.value().status.ok());
}

TEST_F(NetServerTest, FailedStartsLeakNoDescriptors) {
  if (!std::filesystem::exists("/proc/self/fd")) {
    GTEST_SKIP() << "needs /proc/self/fd";
  }
  StartService();
  // A plain listener holds the port the in-use starts collide with. Each
  // server below is shut down and destroyed before a count is taken, so
  // nothing else opens or closes a descriptor meanwhile.
  const int holder = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(holder, 0);
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::bind(holder, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(holder, 1), 0);
  ASSERT_EQ(::getsockname(holder, reinterpret_cast<struct sockaddr*>(&addr),
                          &addr_len),
            0);
  ServerOptions in_use;
  in_use.port = ntohs(addr.sin_port);
  ServerOptions bad_address;
  bad_address.bind_address = "not-an-ip";
  // A zero limit would listen and then refuse every client.
  ServerOptions zero_limit;
  zero_limit.max_connections = 0;

  const size_t before = OpenFdCount();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(KboostServer::Start(service_.get(), in_use).status().code(),
              StatusCode::kUnavailable);
    EXPECT_EQ(
        KboostServer::Start(service_.get(), bad_address).status().code(),
        StatusCode::kInvalidArgument);
    EXPECT_EQ(
        KboostServer::Start(service_.get(), zero_limit).status().code(),
        StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(OpenFdCount(), before);

  // Successful cycles leak none either: N + 1 connections put one on every
  // loop, and after the shutdown every loop's poller, wake pipe and
  // accepted socket is closed.
  for (int i = 0; i < 10; ++i) {
    StatusOr<std::unique_ptr<KboostServer>> server =
        KboostServer::Start(service_.get(), ServerOptions());
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    std::vector<std::unique_ptr<KboostClient>> clients;
    for (int c = 0; c <= KboostServer::NumLoops(); ++c) {
      StatusOr<std::unique_ptr<KboostClient>> client =
          KboostClient::Connect("127.0.0.1", (*server)->port());
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      StatusOr<WireQueryReply> reply = (*client)->Query(WireQuery{"pool", 1});
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      EXPECT_TRUE(reply->status.ok()) << reply->status.ToString();
      clients.push_back(std::move(client).value());
    }
    (*server)->Shutdown();
  }
  EXPECT_EQ(OpenFdCount(), before);
  ::close(holder);
}

// ---- 3. Graceful shutdown --------------------------------------------------

TEST_F(NetServerTest, SigtermMidStormDrainsAndEveryReplyIsOkOrUnavailable) {
  StartService();
  StartServer();
  ASSERT_TRUE(server_->InstallSignalHandlers().ok());

  // Make every solve slow enough that SIGTERM lands mid-storm.
  FaultInjector::Plan slow;
  slow.delay_micros = 20'000;
  FaultInjector::Global().Arm(FaultSite::kSolveStart, slow);

  // 6 clients hammer the server; every observed outcome must be typed.
  // Transport-level kUnavailable ("server closed the connection") is the
  // one legitimate transport outcome once the drain finishes.
  std::atomic<int> ok_count{0}, unavailable{0}, untyped{0};
  std::vector<std::thread> clients;
  JoinGuard join_clients(clients, [&] { server_->RequestShutdown(); });
  for (int c = 0; c < 6; ++c) {
    clients.emplace_back([&] {
      StatusOr<std::unique_ptr<KboostClient>> client =
          KboostClient::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        untyped.fetch_add(1);
        return;
      }
      for (int i = 0; i < 50; ++i) {
        StatusOr<WireQueryReply> reply =
            client.value()->Query(WireQuery{"pool", 2});
        if (!reply.ok()) {
          // Transport gone: the drain finished and the server closed the
          // connection. kUnavailable is the clean-close signal; kIoError is
          // the unavoidable race of a send against that close (ECONNRESET /
          // EPIPE). Anything else — a hang, a protocol error — is a bug.
          if (reply.status().code() != StatusCode::kUnavailable &&
              reply.status().code() != StatusCode::kIoError) {
            untyped.fetch_add(1);
          }
          return;
        }
        // With nothing to shed or time out, a reply that DID arrive is
        // either the answer or the drain's reject.
        switch (reply.value().status.code()) {
          case StatusCode::kOk:
            ok_count.fetch_add(1);
            break;
          case StatusCode::kUnavailable:
            unavailable.fetch_add(1);
            break;
          default:
            untyped.fetch_add(1);
            break;
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  // The real signal path: SIGTERM → installed handler → wake pipe → drain.
  ASSERT_EQ(std::raise(SIGTERM), 0);
  for (std::thread& client : clients) client.join();
  server_->Wait();
  EXPECT_TRUE(server_->finished());

  EXPECT_GT(ok_count.load(), 0) << "storm never got going";
  EXPECT_EQ(untyped.load(), 0)
      << "every shutdown outcome must be Ok or Unavailable (ok="
      << ok_count.load() << " unavailable=" << unavailable.load() << ")";
}

TEST_F(NetServerTest, ShutdownDuringAStalledSolveAnswersItOk) {
  StartService();
  StartServer();

  // The loop is inside this solve when the shutdown arrives. Nothing is in
  // flight elsewhere to cancel: the solve finishes, its reply goes out,
  // and then the drain completes.
  FaultInjector::Plan stall;
  stall.delay_micros = 300'000;
  FaultInjector::Global().Arm(FaultSite::kSolveStart, stall);

  std::unique_ptr<KboostClient> client = MustConnect();
  ASSERT_NE(client, nullptr);
  std::thread slow_query([&] {
    StatusOr<WireQueryReply> reply = client->Query(WireQuery{"pool", 4});
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_TRUE(reply.value().status.ok()) << reply.value().status.ToString();
  });
  // The query is handed to Solve before the stall starts.
  for (int i = 0; i < 2000 && server_->counters().queries_dispatched == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server_->RequestShutdown();
  slow_query.join();
  server_->Wait();
  EXPECT_TRUE(server_->finished());
}

}  // namespace
}  // namespace kboost
