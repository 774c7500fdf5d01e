// kboostd — the k-boosting serving daemon: one BoostService over TCP with
// the length-prefixed binary protocol of docs/PROTOCOL.md.
//
//   kboostd --graph=graph.txt --pool=digg=pool.bin [--pool=...]
//           [--listen=7447] [--bind=ADDR] [--mmap-pool] [--workers=N]
//           [--queue-cap=N] [--deadline-ms=N]
//           [--dispatch-queue=N] [--max-connections=N]
//           [--drain-deadline-ms=N] [--no-remote-shutdown]
//
// --listen=0 (the default) binds an ephemeral port and prints it; scripts
// parse the "kboostd listening on HOST:PORT" line. SIGINT/SIGTERM trigger
// the graceful drain (acceptor closed, queued requests answered
// kUnavailable, in-flight solves given --drain-deadline-ms, exit 0).
// `kboost_cli serve` runs the identical command in-process.

#include "src/net/daemon.h"

int main(int argc, char** argv) {
  return kboost::RunServeCommand(argc, argv, 1);
}
