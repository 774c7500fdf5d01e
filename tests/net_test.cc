// The network serving front-end's contract, in three layers:
//
//  1. Wire: every frame encoder/decoder round-trips bit-identically
//     (doubles travel as IEEE-754 bit patterns), the status-code mapping is
//     pinned in both directions, and the decoder-hardening matrix — bad
//     magic, bad version, reserved flags, unknown type, oversized declared
//     length, truncated/garbage bodies, trailing bytes — is a typed error
//     on every row, never a crash.
//  2. Server: a live KboostServer answers wire queries bit-identically to
//     in-process BoostService::Solve, keeps typed behaviour under the same
//     corruption matrix fired over a real socket (and survives it), rejects
//     queue overflow and connection overflow with kUnavailable, and serves
//     STATS/REFRESH/SHUTDOWN admin frames.
//  3. Shutdown: SIGTERM mid-storm drains gracefully — acceptor closed,
//     queued work answered kUnavailable, in-flight solves finished or
//     cooperatively cancelled — with zero leaked admission slots and only
//     typed outcomes observed by every client.
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

  // Unknown version: typed as FailedPrecondition so a future v2 client
  // talking to a v1 server gets a distinguishable error.
  bad = good;
  bad[4] = static_cast<char>(kWireVersion + 1);
  EXPECT_EQ(decode(bad, kDefaultMaxFrameBytes).code(),
            StatusCode::kFailedPrecondition);

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
    query.num_threads = 3;
    query.deadline_ms = 2500;
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
    EXPECT_EQ(out.num_threads, query.num_threads);
    EXPECT_EQ(out.deadline_ms, query.deadline_ms);
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
  reply.degraded = true;
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
  EXPECT_EQ(out.degraded, reply.degraded);
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
  reply.status = Status::Unavailable("dispatch queue full");
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
  EXPECT_EQ(out.status.message(), "dispatch queue full");
  EXPECT_TRUE(out.best_set.empty());
}

TEST(WireAdminTest, StatsReplyRoundTrips) {
  ServiceStatsSnapshot stats;
  stats.not_found = 3;
  stats.in_flight = 1;
  stats.queued = 2;
  stats.admitted = 40;
  stats.shed = 5;
  stats.queue_timeouts = 1;
  PoolStatsSnapshot pool;
  pool.pool = "digg";
  pool.version = 4;
  pool.refreshes = 3;
  pool.queries = 100;
  pool.errors = 2;
  pool.shed = 7;
  pool.deadline_misses = 1;
  pool.degraded = 9;
  pool.load_retries = 2;
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
  EXPECT_EQ(out.in_flight, stats.in_flight);
  EXPECT_EQ(out.queued, stats.queued);
  EXPECT_EQ(out.admitted, stats.admitted);
  EXPECT_EQ(out.shed, stats.shed);
  EXPECT_EQ(out.queue_timeouts, stats.queue_timeouts);
  ASSERT_EQ(out.pools.size(), 1u);
  const PoolStatsSnapshot& p = out.pools[0];
  EXPECT_EQ(p.pool, pool.pool);
  EXPECT_EQ(p.version, pool.version);
  EXPECT_EQ(p.refreshes, pool.refreshes);
  EXPECT_EQ(p.queries, pool.queries);
  EXPECT_EQ(p.errors, pool.errors);
  EXPECT_EQ(p.shed, pool.shed);
  EXPECT_EQ(p.deadline_misses, pool.deadline_misses);
  EXPECT_EQ(p.degraded, pool.degraded);
  EXPECT_EQ(p.load_retries, pool.load_retries);
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

class NetServerTest : public ::testing::Test {
 protected:
  void SetUp() override { graph_ = MakeTestGraph(); }

  void TearDown() override {
    FaultInjector::Global().DisarmAll();
    server_.reset();
    service_.reset();
  }

  void StartService(const BoostService::Options& options =
                        BoostService::Options()) {
    StatusOr<std::unique_ptr<BoostService>> service =
        BoostService::Create(graph_, options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    service_ = std::move(service).value();
    StatusOr<std::unique_ptr<BoostSession>> session =
        BoostSession::Create(graph_, {0, 1, 2}, MakeOptions(8));
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    ASSERT_TRUE(service_->AddPool("pool", std::move(session).value()).ok());
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

  DirectedGraph graph_;
  std::unique_ptr<BoostService> service_;
  std::unique_ptr<KboostServer> server_;
};

TEST_F(NetServerTest, WireAnswersAreBitIdenticalToInProcessSolve) {
  StartService();
  StartServer();
  std::unique_ptr<KboostClient> client = MustConnect();
  ASSERT_NE(client, nullptr);

  for (size_t k : {size_t{1}, size_t{4}, size_t{8}}) {
    for (SolveMode mode :
         {SolveMode::kAuto, SolveMode::kFull, SolveMode::kLbOnly}) {
      WireQuery query;
      query.pool = "pool";
      query.k = k;
      query.mode = mode;
      query.num_threads = 1;
      StatusOr<WireQueryReply> wire = client->Query(query);
      ASSERT_TRUE(wire.ok()) << wire.status().ToString();
      ASSERT_TRUE(wire.value().status.ok())
          << wire.value().status.ToString();

      BoostRequest request;
      request.pool = "pool";
      request.k = k;
      request.mode = mode;
      request.num_threads = 1;
      StatusOr<BoostResponse> local = service_->Solve(request);
      ASSERT_TRUE(local.ok()) << local.status().ToString();

      // The serving guarantee crosses the wire intact: every set and every
      // double of the answer compares exactly equal.
      const WireQueryReply& w = wire.value();
      const BoostResult& r = local.value().result;
      EXPECT_EQ(w.best_set, r.best_set);
      EXPECT_EQ(w.best_estimate, r.best_estimate);
      EXPECT_EQ(w.lb_set, r.lb_set);
      EXPECT_EQ(w.lb_mu_hat, r.lb_mu_hat);
      EXPECT_EQ(w.lb_delta_hat, r.lb_delta_hat);
      EXPECT_EQ(w.delta_set, r.delta_set);
      EXPECT_EQ(w.delta_delta_hat, r.delta_delta_hat);
      EXPECT_EQ(w.pool_budget, r.pool_budget);
      EXPECT_EQ(w.num_samples, r.num_samples);
      EXPECT_EQ(w.num_boostable, r.num_boostable);
      EXPECT_EQ(w.pool_version, local.value().pool_version);
      EXPECT_EQ(w.degraded, local.value().degraded);
    }
  }
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
  {
    StatusOr<std::unique_ptr<BoostSession>> twin =
        BoostSession::Create(graph_, {0, 1, 2}, MakeOptions(8));
    ASSERT_TRUE(twin.ok());
    (*twin)->Prepare();
    ASSERT_TRUE(
        SavePoolSnapshot(**twin, snapshot, PoolSaveOptions{}).ok());
  }
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
}

TEST_F(NetServerTest, QueueOverflowIsTypedUnavailableAndConnectionSurvives) {
  StartService();
  ServerOptions options;
  options.num_workers = 1;
  options.max_dispatch_queue = 1;
  StartServer(options);

  // Hold the single worker for ~600ms per solve.
  FaultInjector::Plan slow;
  slow.delay_micros = 600'000;
  FaultInjector::Global().Arm(FaultSite::kSolveStart, slow);

  std::unique_ptr<KboostClient> busy = MustConnect();
  std::unique_ptr<KboostClient> queued = MustConnect();
  std::unique_ptr<KboostClient> rejected = MustConnect();
  ASSERT_NE(busy, nullptr);
  ASSERT_NE(queued, nullptr);
  ASSERT_NE(rejected, nullptr);

  std::thread busy_thread([&] {
    StatusOr<WireQueryReply> reply = busy->Query(WireQuery{"pool", 1});
    ASSERT_TRUE(reply.ok());
    EXPECT_TRUE(reply.value().status.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  std::thread queued_thread([&] {
    StatusOr<WireQueryReply> reply = queued->Query(WireQuery{"pool", 1});
    ASSERT_TRUE(reply.ok());
    EXPECT_TRUE(reply.value().status.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // Worker busy, queue full: this one must be rejected typed, immediately
  // (well before the 600ms solve finishes), on a connection that survives.
  StatusOr<WireQueryReply> reply = rejected->Query(WireQuery{"pool", 1});
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().status.code(), StatusCode::kUnavailable)
      << reply.value().status.ToString();

  busy_thread.join();
  queued_thread.join();
  FaultInjector::Global().DisarmAll();

  StatusOr<WireQueryReply> retry = rejected->Query(WireQuery{"pool", 1});
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_TRUE(retry.value().status.ok());
  EXPECT_GE(server_->counters().unavailable_rejects, 1u);
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

// ---- 3. Graceful shutdown --------------------------------------------------

TEST_F(NetServerTest, SigtermMidStormDrainsWithZeroLeakedAdmissionSlots) {
  // Admission control ON so a leaked slot would be visible in Stats().
  BoostService::Options service_options;
  service_options.max_in_flight = 2;
  service_options.max_queued = 2;
  StartService(service_options);
  ServerOptions options;
  options.num_workers = 2;
  options.max_dispatch_queue = 4;
  options.drain_deadline_ms = 2000;
  StartServer(options);
  ASSERT_TRUE(server_->InstallSignalHandlers().ok());

  // Make every solve slow enough that SIGTERM lands mid-storm.
  FaultInjector::Plan slow;
  slow.delay_micros = 20'000;
  FaultInjector::Global().Arm(FaultSite::kSolveStart, slow);

  // 6 clients hammer the server; every observed outcome must be typed.
  // Transport-level kUnavailable ("server closed the connection") is the
  // one legitimate transport outcome once the drain finishes.
  std::atomic<int> ok_count{0}, unavailable{0}, shed{0}, untyped{0};
  std::vector<std::thread> clients;
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
        // Every reply that DID arrive must carry a typed overload outcome.
        switch (reply.value().status.code()) {
          case StatusCode::kOk:
            ok_count.fetch_add(1);
            break;
          case StatusCode::kUnavailable:
          case StatusCode::kCancelled:
            unavailable.fetch_add(1);
            break;
          case StatusCode::kResourceExhausted:
          case StatusCode::kDeadlineExceeded:
            shed.fetch_add(1);
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
      << "every shutdown outcome must be typed (ok=" << ok_count.load()
      << " unavailable=" << unavailable.load() << " shed=" << shed.load()
      << ")";

  // Zero leaked admission slots after a mid-storm drain: the RAII tickets
  // inside Solve all released.
  const ServiceStatsSnapshot stats = service_->Stats();
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.queued, 0u);
}

TEST_F(NetServerTest, DrainDeadlineCancelsInFlightSolvesAsUnavailable) {
  StartService();
  ServerOptions options;
  options.num_workers = 1;
  options.drain_deadline_ms = 50;
  StartServer(options);

  // One solve that stalls far past the drain budget: the server must not
  // wait for it — the cooperative cancel fires and the client still gets a
  // typed reply.
  FaultInjector::Plan stall;
  stall.delay_micros = 700'000;
  FaultInjector::Global().Arm(FaultSite::kSolveStart, stall);

  std::unique_ptr<KboostClient> client = MustConnect();
  ASSERT_NE(client, nullptr);
  std::thread slow_query([&] {
    StatusOr<WireQueryReply> reply = client->Query(WireQuery{"pool", 4});
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply.value().status.code(), StatusCode::kUnavailable)
        << reply.value().status.ToString();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  server_->RequestShutdown();
  slow_query.join();
  server_->Wait();
  EXPECT_TRUE(server_->finished());
  const ServiceStatsSnapshot stats = service_->Stats();
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.queued, 0u);
}

}  // namespace
}  // namespace kboost
