// kboostd as a real process. The built daemon, started from a graph file
// and a pool snapshot on an ephemeral port, answers a k × mode query stream
// from concurrent clients bit-identically to an in-process load of the same
// files, reports empty admission gauges over STATS, and exits 0 once a
// SHUTDOWN frame has drained it. The server itself is tested in-process by
// net_test; this covers what only the binary has: flag parsing, file
// loading, the "listening on" line scripts parse, and the exit code.

#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/boost_session.h"
#include "src/graph/generators.h"
#include "src/graph/graph_builder.h"
#include "src/graph/graph_io.h"
#include "src/io/pool_io.h"
#include "src/net/client.h"
#include "src/serve/boost_service.h"
#include "src/util/rng.h"
#include "tests/same_answer.h"

extern char** environ;

namespace kboost {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// A kboostd child process with its stdout on a pipe. The destructor kills
/// and reaps a child that is still running, so a failed test leaks nothing.
class DaemonProcess {
 public:
  explicit DaemonProcess(const std::vector<std::string>& flags) {
    int fds[2];
    if (::pipe(fds) != 0) return;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    std::vector<std::string> args = {KBOOSTD_PATH};
    args.insert(args.end(), flags.begin(), flags.end());
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    if (::posix_spawn(&pid_, KBOOSTD_PATH, &actions, nullptr, argv.data(),
                      environ) != 0) {
      pid_ = -1;
    }
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    out_fd_ = fds[0];
  }

  ~DaemonProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }

  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  bool started() const { return pid_ > 0; }

  /// Reads stdout until a line starting with `prefix` and returns the rest
  /// of that line; "" on EOF or when `timeout` passes first.
  std::string AwaitLine(const std::string& prefix,
                        std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    std::string line;
    while (true) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      struct pollfd pfd = {out_fd_, POLLIN, 0};
      if (left.count() <= 0 ||
          ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
        return "";
      }
      char c;
      if (::read(out_fd_, &c, 1) != 1) return "";
      if (c != '\n') {
        line += c;
      } else if (line.starts_with(prefix)) {
        return line.substr(prefix.size());
      } else {
        line.clear();
      }
    }
  }

  /// Waits up to `timeout` for the child to exit and returns its exit code;
  /// -1 when it was killed by a signal or is still running.
  int AwaitExit(std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return -1;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

TEST(KboostdTest, ServesItsFilesBitIdenticallyAndExitsCleanOnShutdown) {
  // The files a deployment starts kboostd from: an edge list, and a pool
  // sampled from that same file.
  const std::string graph_path = TempPath("kboostd_test_graph.txt");
  const std::string pool_path = TempPath("kboostd_test_pool.bin");
  {
    Rng rng(7);
    GraphBuilder b = BuildErdosRenyi(80, 500, rng);
    b.AssignConstantProbability(0.12);
    b.SetBoostWithBeta(2.0);
    ASSERT_TRUE(SaveEdgeList(std::move(b).Build(), graph_path).ok());
  }
  StatusOr<DirectedGraph> graph = LoadEdgeList(graph_path);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  constexpr size_t kBudget = 8;
  {
    BoostOptions options;
    options.k = kBudget;
    options.seed = 11;
    options.num_threads = 2;
    BoostSession session(*graph, {0, 1, 2}, options);
    session.Prepare();
    ASSERT_TRUE(SavePoolSnapshot(session, pool_path, {}).ok());
  }

  // The in-process reference: the same files, loaded the way kboostd does.
  StatusOr<std::unique_ptr<BoostService>> reference_service =
      BoostService::Create(*graph);
  ASSERT_TRUE(reference_service.ok());
  StatusOr<std::unique_ptr<BoostSession>> loaded =
      LoadPoolSnapshot(*graph, pool_path, {});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(
      (*reference_service)->AddPool("digg", std::move(loaded).value()).ok());
  std::vector<WireQuery> queries;
  std::vector<BoostResponse> reference;
  for (size_t k : {size_t{1}, size_t{4}, kBudget}) {
    for (SolveMode mode :
         {SolveMode::kAuto, SolveMode::kFull, SolveMode::kLbOnly}) {
      WireQuery query;
      query.pool = "digg";
      query.k = k;
      query.mode = mode;
      BoostRequest request;
      request.pool = query.pool;
      request.k = k;
      request.mode = mode;
      StatusOr<BoostResponse> want = (*reference_service)->Solve(request);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      queries.push_back(query);
      reference.push_back(std::move(want).value());
    }
  }

  DaemonProcess daemon({"--graph=" + graph_path,
                        "--pool=digg=" + pool_path, "--listen=0"});
  ASSERT_TRUE(daemon.started());
  const std::string listening =
      daemon.AwaitLine("kboostd listening on ", std::chrono::seconds(120));
  const size_t colon = listening.find(':');
  const size_t space = listening.find(' ', colon);
  ASSERT_NE(colon, std::string::npos) << "no listening line";
  ASSERT_NE(space, std::string::npos) << listening;
  const std::string host = listening.substr(0, colon);
  const uint16_t port = static_cast<uint16_t>(
      std::stoul(listening.substr(colon + 1, space - colon - 1)));

  // Three clients replay the stream twice each, phase-shifted.
  constexpr size_t kClients = 3;
  constexpr size_t kRounds = 2;
  std::atomic<size_t> failures{0};
  std::atomic<size_t> divergent{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      StatusOr<std::unique_ptr<KboostClient>> client =
          KboostClient::Connect(host, port);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (size_t i = 0; i < kRounds * queries.size(); ++i) {
        const size_t q = (t + i) % queries.size();
        StatusOr<WireQueryReply> reply = (*client)->Query(queries[q]);
        if (!reply.ok() || !reply->status.ok()) {
          failures.fetch_add(1);
        } else if (!SameAnswer(*reply, reference[q])) {
          divergent.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(divergent.load(), 0u);

  StatusOr<std::unique_ptr<KboostClient>> admin =
      KboostClient::Connect(host, port);
  ASSERT_TRUE(admin.ok()) << admin.status().ToString();
  StatusOr<ServiceStatsSnapshot> stats = (*admin)->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->in_flight, 0u);
  EXPECT_EQ(stats->queued, 0u);
  EXPECT_EQ(stats->shed, 0u);
  EXPECT_EQ(stats->queue_timeouts, 0u);
  ASSERT_EQ(stats->pools.size(), 1u);
  EXPECT_EQ(stats->pools[0].queries, kClients * kRounds * queries.size());

  Status shutdown = (*admin)->Shutdown();
  ASSERT_TRUE(shutdown.ok()) << shutdown.ToString();
  EXPECT_EQ(daemon.AwaitExit(std::chrono::seconds(60)), 0);
  std::filesystem::remove(graph_path);
  std::filesystem::remove(pool_path);
}

}  // namespace
}  // namespace kboost
