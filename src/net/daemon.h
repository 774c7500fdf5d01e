#ifndef KBOOST_NET_DAEMON_H_
#define KBOOST_NET_DAEMON_H_

namespace kboost {

/// The `serve` command shared by the kboostd binary and `kboost_cli serve`:
/// loads a graph and pool snapshots, builds a BoostService, starts a
/// KboostServer on --listen, installs SIGINT/SIGTERM handlers and blocks
/// until graceful shutdown completes. Flags start at argv[flag_start] (1 for
/// kboostd, 2 for the cli subcommand).
/// Returns the process exit code: 0 after a clean drain, 1 on runtime
/// failure, 2 on a flag error.
int RunServeCommand(int argc, char** argv, int flag_start);

/// The `query` command (`kboost_cli query`): connects to a running kboostd
/// with the blocking client, round-trips one query and prints the typed
/// outcome. Exit 0 when the remote solve succeeded, 1 when it answered a
/// typed non-OK status or the transport failed, 2 on a flag error.
int RunQueryCommand(int argc, char** argv, int flag_start);

}  // namespace kboost

#endif  // KBOOST_NET_DAEMON_H_
