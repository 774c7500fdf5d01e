#ifndef KBENCH_HOST_H_
#define KBENCH_HOST_H_

#include <cstdint>
#include <string>

namespace kbench {

/// Where a number came from. Every result carries it, and a non-Release
/// build is flagged so its numbers are never compared with Release ones.
struct HostContext {
  int nproc = 0;
  std::string build_type;
  std::string compiler;
  /// "git:<sha>" when the sources are a git checkout, else "sha256:<hash>"
  /// of the library and benchmark sources (computed by run.py).
  std::string source_id;
  std::string date_utc;
  bool comparable() const { return build_type == "Release"; }
};

HostContext DetectHost(const std::string& source_id);

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMiB();

/// The machine-wide CPU time counters of /proc/stat, in clock ticks.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTimes ReadCpuTimes();

/// The share of CPU time between two readings that the hypervisor gave to
/// other guests, in percent (0 when /proc/stat is unavailable). A run on a
/// virtual machine whose host is oversubscribed reads a few percent or
/// more, and its timings are not comparable with a quiet run's.
double StealPercent(const CpuTimes& from, const CpuTimes& to);

}  // namespace kbench

#endif  // KBENCH_HOST_H_
