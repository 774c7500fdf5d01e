// kboostd — the k-boosting serving daemon: one BoostService over TCP with
// the length-prefixed binary protocol of docs/PROTOCOL.md.
//
//   kboostd --graph=graph.txt --pool=digg=pool.bin [--pool=...]
//           [--listen=7447] [--bind=ADDR] [--mmap-pool] [--deadline-ms=N]
//           [--max-connections=N] [--no-remote-shutdown]
//
// One event loop per two usable CPUs: loop 0 accepts and deals
// connections round-robin, and each loop answers its connections' query, STATS
// and SHUTDOWN frames and writes their replies; one background thread runs
// REFRESH and hands each reply back to the connection's loop. --listen=0 (the
// default) binds an ephemeral port and prints it; scripts parse the "kboostd
// listening on HOST:PORT" line. SIGINT/SIGTERM trigger the graceful drain
// (acceptor closed, later frames answered kUnavailable, every reply flushed,
// exit 0). Pools come from snapshots and are never sampled here, so there is
// no thread flag: the loop count is derived from the CPUs. `kboost_cli serve`
// runs the identical command in-process.

#include "src/net/daemon.h"

int main(int argc, char** argv) {
  return kboost::RunServeCommand(argc, argv, 1);
}
