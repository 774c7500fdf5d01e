#include "src/net/daemon.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/graph_io.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/serve/boost_service.h"
#include "src/util/parse.h"

namespace kboost {

namespace {

/// The command a flag error names: kboostd takes its flags from argv[1],
/// kboost_cli's commands take theirs from argv[2].
std::string CommandName(int flag_start, const char* command) {
  return flag_start == 1 ? "kboostd" : std::string("kboost_cli ") + command;
}

/// Splits "host:port" with a strict port parse. The last ':' separates, so
/// this stays correct if hosts ever grow colons.
bool ParseHostPort(const char* text, std::string* host, uint16_t* port) {
  const std::string value(text);
  const size_t colon = value.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == value.size()) {
    std::fprintf(stderr,
                 "error: --connect must be HOST:PORT, got '%s'\n", text);
    return false;
  }
  uint64_t port64 = 0;
  if (Status s = ParseUint64(value.substr(colon + 1).c_str(), "--connect port",
                             &port64);
      !s.ok() || port64 == 0 || port64 > 65535) {
    std::fprintf(stderr, "error: --connect port must be in [1, 65535], got "
                         "'%s'\n",
                 value.substr(colon + 1).c_str());
    return false;
  }
  *host = value.substr(0, colon);
  *port = static_cast<uint16_t>(port64);
  return true;
}

bool ParseMode(const char* text, SolveMode* out) {
  if (text == nullptr || std::strcmp(text, "auto") == 0) {
    *out = SolveMode::kAuto;
    return true;
  }
  if (std::strcmp(text, "full") == 0) {
    *out = SolveMode::kFull;
    return true;
  }
  if (std::strcmp(text, "lb") == 0) {
    *out = SolveMode::kLbOnly;
    return true;
  }
  std::fprintf(stderr, "error: --mode must be auto|full|lb, got '%s'\n",
               text);
  return false;
}

}  // namespace

int RunServeCommand(int argc, char** argv, int flag_start) {
  if (!ValidateFlags(argc, argv, flag_start,
                     CommandName(flag_start, "serve").c_str(),
                     {"--graph", "--pool", "--listen", "--bind",
                      "--max-connections"},
                     {"--mmap-pool", "--no-remote-shutdown"})) {
    return 2;
  }
  const char* graph_path = FlagValue(argc, argv, flag_start, "--graph");
  if (graph_path == nullptr) {
    std::fprintf(stderr,
                 "usage: serve --graph=PATH --pool=NAME=SNAPSHOT "
                 "[--pool=...] [--mmap-pool] [--listen=PORT] [--bind=ADDR]\n"
                 "             [--max-connections=N] "
                 "[--no-remote-shutdown]\n");
    return 2;
  }

  // --pool is repeatable: every NAME=SNAPSHOT becomes a warm pool.
  std::vector<BoostService::PoolSpec> pools;
  for (int i = flag_start; i < argc; ++i) {
    if (std::strncmp(argv[i], "--pool=", 7) != 0) continue;
    const char* spec = argv[i] + 7;
    const char* eq = std::strchr(spec, '=');
    if (eq == nullptr || eq == spec || eq[1] == '\0') {
      std::fprintf(stderr,
                   "error: --pool must be NAME=SNAPSHOT_PATH, got '%s'\n",
                   spec);
      return 2;
    }
    pools.push_back({std::string(spec, eq), std::string(eq + 1)});
  }
  if (pools.empty()) {
    std::fprintf(stderr, "error: serve needs at least one --pool=NAME=PATH\n");
    return 2;
  }

  uint64_t listen_port = 0;
  uint64_t max_connections = 256;
  if (!ParseUint64Flag(argc, argv, flag_start, "--listen", &listen_port) ||
      !ParseUint64Flag(argc, argv, flag_start, "--max-connections",
                       &max_connections)) {
    return 2;
  }
  if (listen_port > 65535) {
    std::fprintf(stderr, "error: --listen must be in [0, 65535]\n");
    return 2;
  }
  if (max_connections == 0) {
    std::fprintf(stderr,
                 "error: --max-connections must be >= 1 (0 would refuse "
                 "every client)\n");
    return 2;
  }

  StatusOr<DirectedGraph> graph = LoadEdgeList(graph_path);
  if (!graph.ok()) {
    std::fprintf(stderr, "error: %s\n", graph.status().ToString().c_str());
    return 1;
  }

  BoostService::Options service_options;
  service_options.warm_pools = std::move(pools);
  service_options.mmap_pools = HasFlag(argc, argv, flag_start, "--mmap-pool");
  StatusOr<std::unique_ptr<BoostService>> service =
      BoostService::Create(graph.value(), service_options);
  if (!service.ok()) {
    std::fprintf(stderr, "error: %s\n", service.status().ToString().c_str());
    return 1;
  }

  ServerOptions server_options;
  const char* bind = FlagValue(argc, argv, flag_start, "--bind");
  if (bind != nullptr) server_options.bind_address = bind;
  server_options.port = static_cast<uint16_t>(listen_port);
  server_options.max_connections = max_connections;
  server_options.allow_remote_shutdown =
      !HasFlag(argc, argv, flag_start, "--no-remote-shutdown");
  StatusOr<std::unique_ptr<KboostServer>> server =
      KboostServer::Start(service.value().get(), server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "error: %s\n", server.status().ToString().c_str());
    return 1;
  }
  if (Status s = server.value()->InstallSignalHandlers(); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }

  for (const std::string& name : service.value()->PoolNames()) {
    std::printf("pool '%s' v%llu ready\n", name.c_str(),
                static_cast<unsigned long long>(
                    service.value()->PoolVersion(name)));
  }
  // The pid and the (possibly ephemeral) bound port, parseable by scripts
  // that start the daemon and then point clients at it.
  std::printf("kboostd listening on %s:%u (pid %d)\n",
              server_options.bind_address.c_str(), server.value()->port(),
              static_cast<int>(::getpid()));
  std::fflush(stdout);

  server.value()->Wait();
  const ServerCounters counters = server.value()->counters();
  std::printf("kboostd drained: %llu connections, %llu frames, %llu queries, "
              "%llu unavailable rejects, %llu protocol errors\n",
              static_cast<unsigned long long>(counters.connections_accepted),
              static_cast<unsigned long long>(counters.frames_received),
              static_cast<unsigned long long>(counters.queries_dispatched),
              static_cast<unsigned long long>(counters.unavailable_rejects),
              static_cast<unsigned long long>(counters.protocol_errors));
  return 0;
}

int RunQueryCommand(int argc, char** argv, int flag_start) {
  if (!ValidateFlags(argc, argv, flag_start,
                     CommandName(flag_start, "query").c_str(),
                     {"--connect", "--pool", "--k", "--mode", "--timeout-ms"})) {
    return 2;
  }
  const char* connect = FlagValue(argc, argv, flag_start, "--connect");
  const char* k_s = FlagValue(argc, argv, flag_start, "--k");
  if (connect == nullptr || k_s == nullptr) {
    std::fprintf(stderr,
                 "usage: query --connect=HOST:PORT --k=N [--pool=NAME]\n"
                 "             [--mode=auto|full|lb] [--timeout-ms=N]  (socket "
                 "timeout, default 30000; 0 = none)\n");
    return 2;
  }
  std::string host;
  uint16_t port = 0;
  if (!ParseHostPort(connect, &host, &port)) return 2;

  WireQuery query;
  const char* pool = FlagValue(argc, argv, flag_start, "--pool");
  query.pool = pool != nullptr ? pool : "pool";
  uint64_t timeout_ms = 30000;
  if (!ParseUint64Flag(argc, argv, flag_start, "--k", &query.k) ||
      !ParseUint64Flag(argc, argv, flag_start, "--timeout-ms", &timeout_ms)) {
    return 2;
  }
  if (!ParseMode(FlagValue(argc, argv, flag_start, "--mode"), &query.mode)) {
    return 2;
  }

  ClientOptions client_options;
  client_options.io_timeout_ms = timeout_ms;
  StatusOr<std::unique_ptr<KboostClient>> client =
      KboostClient::Connect(host, port, client_options);
  if (!client.ok()) {
    std::fprintf(stderr, "error: %s\n", client.status().ToString().c_str());
    return 1;
  }
  StatusOr<WireQueryReply> reply = client.value()->Query(query);
  if (!reply.ok()) {
    std::fprintf(stderr, "error: %s\n", reply.status().ToString().c_str());
    return 1;
  }
  if (!reply.value().status.ok()) {
    // The round trip worked; the remote solve answered a typed non-OK
    // outcome (bad budget, unknown pool, shutting down, ...).
    std::fprintf(stderr, "remote: %s\n",
                 reply.value().status.ToString().c_str());
    return 1;
  }
  const WireQueryReply& r = reply.value();
  std::printf("pool '%s' v%llu k=%llu\n", query.pool.c_str(),
              static_cast<unsigned long long>(r.pool_version),
              static_cast<unsigned long long>(query.k));
  std::printf("boost_set: ");
  for (size_t i = 0; i < r.best_set.size(); ++i) {
    std::printf("%s%u", i ? "," : "", r.best_set[i]);
  }
  std::printf("\nestimate: %.6f\n", r.best_estimate);
  std::printf("samples: %llu (boostable %llu, pool budget %llu%s)\n",
              static_cast<unsigned long long>(r.num_samples),
              static_cast<unsigned long long>(r.num_boostable),
              static_cast<unsigned long long>(r.pool_budget),
              r.pool_reused ? ", reused" : "");
  std::printf("solve_seconds: %.4f\n", r.solve_seconds);
  return 0;
}

}  // namespace kboost
