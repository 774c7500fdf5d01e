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
//     kPeerStallMs, and a failed Start leaks no descriptor.
//  3. Shutdown: SIGTERM mid-storm drains gracefully — acceptor closed,
//     later frames answered kUnavailable, every reply flushed — with zero
//     leaked admission slots and only typed outcomes observed by every
//     client.
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

/// Every field of a wire answer equals the in-process one, doubles bit for
/// bit.
bool SameAnswer(const WireQueryReply& got, const BoostResult& want) {
  return got.best_set == want.best_set &&
         got.best_estimate == want.best_estimate &&
         got.lb_set == want.lb_set && got.lb_mu_hat == want.lb_mu_hat &&
         got.lb_delta_hat == want.lb_delta_hat &&
         got.delta_set == want.delta_set &&
         got.delta_delta_hat == want.delta_delta_hat &&
         got.pool_budget == want.pool_budget &&
         got.num_samples == want.num_samples &&
         got.num_boostable == want.num_boostable;
}

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
      StatusOr<WireQueryReply> wire = client->Query(query);
      ASSERT_TRUE(wire.ok()) << wire.status().ToString();
      ASSERT_TRUE(wire.value().status.ok())
          << wire.value().status.ToString();

      BoostRequest request;
      request.pool = "pool";
      request.k = k;
      request.mode = mode;
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
  std::map<std::pair<uint64_t, SolveMode>, BoostResult> reference;
  for (uint64_t k = 1; k <= 8; ++k) {
    for (SolveMode mode : kModes) {
      BoostRequest request;
      request.pool = "pool";
      request.k = k;
      request.mode = mode;
      StatusOr<BoostResponse> local = service_->Solve(request);
      ASSERT_TRUE(local.ok()) << local.status().ToString();
      reference[{k, mode}] = local.value().result;
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
  // A plain listener holds the port the in-use starts collide with; no
  // server thread runs, so nothing else opens or closes a descriptor here.
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

  const size_t before = OpenFdCount();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(KboostServer::Start(service_.get(), in_use).status().code(),
              StatusCode::kUnavailable);
    EXPECT_EQ(
        KboostServer::Start(service_.get(), bad_address).status().code(),
        StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(OpenFdCount(), before);
  ::close(holder);
}

// ---- 3. Graceful shutdown --------------------------------------------------

TEST_F(NetServerTest, SigtermMidStormDrainsWithZeroLeakedAdmissionSlots) {
  // Admission control ON so a leaked slot would be visible in Stats().
  BoostService::Options service_options;
  service_options.max_in_flight = 2;
  service_options.max_queued = 2;
  StartService(service_options);
  StartServer();
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
  const ServiceStatsSnapshot stats = service_->Stats();
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.queued, 0u);
}

}  // namespace
}  // namespace kboost
