#include "host.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

#ifndef KBENCH_BUILD_TYPE
#define KBENCH_BUILD_TYPE "unknown"
#endif
#ifndef KBENCH_COMPILER
#define KBENCH_COMPILER "unknown"
#endif

namespace kbench {

HostContext DetectHost(const std::string& source_id) {
  HostContext host;
  host.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  host.build_type = KBENCH_BUILD_TYPE;
  host.compiler = KBENCH_COMPILER;
  host.source_id = source_id.empty() ? "unknown" : source_id;
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char date[32];
  std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ", &utc);
  host.date_utc = date;
  return host;
}

double PeakRssMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

CpuTimes ReadCpuTimes() {
  CpuTimes times;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return times;
  // cpu  user nice system idle iowait irq softirq steal guest guest_nice;
  // guest time is already counted in user.
  unsigned long long field[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &field[0],
                  &field[1], &field[2], &field[3], &field[4], &field[5],
                  &field[6], &field[7]) == 8) {
    for (unsigned long long v : field) times.total += v;
    times.steal = field[7];
  }
  std::fclose(f);
  return times;
}

double StealPercent(const CpuTimes& from, const CpuTimes& to) {
  if (to.total <= from.total) return 0.0;
  return 100.0 * static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

}  // namespace kbench
