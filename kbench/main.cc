// kbench: the kboost benchmark. Runs one workload against the default
// configuration of the library and of the kboostd serving stack, checks
// every answer bit for bit against a serial in-process reference, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   kbench --workload serve_full|serve_lb|build --seed N --seconds S
//          --trace 0|1 [--source-id ID] [--out-dir DIR] [--scale-factor F]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs the per-layer probes, records spans and reports tracing overhead.
// Normally started through run.py, which builds this binary first.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "host.h"
#include "src/util/parse.h"
#include "workloads.h"

namespace {

using kbench::Metric;
using kbench::RunOptions;
using kbench::RunReport;

[[noreturn]] void Usage(const char* problem) {
  std::fprintf(stderr,
               "error: %s\nusage: kbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--source-id ID] [--out-dir DIR] "
               "[--scale-factor F]\nworkloads:",
               problem);
  for (const std::string& name : kbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

bool ParsePositive(const char* text, double* out) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(value > 0.0) || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

RunOptions ParseArgs(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    double real = 0.0;
    if (flag == "--workload") {
      if (kbench::FindWorkload(value) == nullptr) Usage("unknown workload");
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!kboost::ParseUint64(value, "--seed", &options.seed).ok()) {
        Usage("--seed wants a non-negative integer");
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParsePositive(value, &options.seconds)) {
        Usage("--seconds wants a positive number");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace wants 0 or 1");
      }
      options.trace = value[0] == '1';
      have_trace = true;
    } else if (flag == "--source-id") {
      options.source_id = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--scale-factor") {
      if (!ParsePositive(value, &real) || real > 1.0) {
        Usage("--scale-factor wants a number in (0, 1]");
      }
      options.scale_factor = real;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  return options;
}

/// JSON-safe number: every digit of a finite value; non-finite becomes 0
/// (and the run is marked incorrect by the caller).
std::string Number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  return buf;
}

std::string Quoted(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string MetricsObject(const std::vector<Metric>& metrics,
                          bool with_notes) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += Quoted(m.name) + ": {\"value\": " + Number(m.value) +
           ", \"unit\": " + Quoted(m.unit);
    if (with_notes) out += ", \"note\": " + Quoted(m.note);
    out += "}";
  }
  return out + "}";
}

void WriteRecord(const RunOptions& options, const kbench::HostContext& host,
                 bool comparable, const RunReport& report) {
  const std::string path = options.out_dir + "/result-" + options.workload +
                           "-seed" + std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0") + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(
      f,
      "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d,\n"
      " \"host\": {\"nproc\": %d, \"build_type\": %s, \"compiler\": %s, "
      "\"source\": %s, \"date\": %s, \"comparable\": %s},\n"
      " \"correct\": %s, \"attempted\": %llu, \"failed\": %llu,\n"
      " \"metrics\": %s,\n \"info\": %s}\n",
      Quoted(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      Number(options.seconds).c_str(), options.trace ? 1 : 0, host.nproc,
      Quoted(host.build_type).c_str(), Quoted(host.compiler).c_str(),
      Quoted(host.source_id).c_str(), Quoted(host.date_utc).c_str(),
      comparable ? "true" : "false", report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed),
      MetricsObject(report.metrics, true).c_str(),
      MetricsObject(report.info, true).c_str());
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions options = ParseArgs(argc, argv);
  const kbench::HostContext host = kbench::DetectHost(options.source_id);
  std::printf("# kbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("# host nproc=%d build_type=%s compiler=\"%s\" source=%s "
              "date=%s\n",
              host.nproc, host.build_type.c_str(), host.compiler.c_str(),
              host.source_id.c_str(), host.date_utc.c_str());
  if (!host.comparable()) {
    std::printf("# WARNING: %s build; never compare these numbers with a "
                "Release build's\n",
                host.build_type.c_str());
  }
  std::fflush(stdout);

  kboost::StatusOr<RunReport> run = kbench::RunBenchmark(options);
  if (!run.ok()) {
    std::fprintf(stderr, "kbench: set-up failed: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }
  RunReport& report = *run;
  const bool comparable = host.comparable() &&
                          report.steal_pct <= kbench::kMaxComparableStealPct;
  if (host.comparable() && !comparable) {
    std::printf("# WARNING: the hypervisor took %.1f%% of CPU time during the "
                "run (above %g%%); never compare these numbers with a quiet "
                "host's\n",
                report.steal_pct, kbench::kMaxComparableStealPct);
  }
  for (const Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) report.Fail(m.name + " is not finite");
  }
  for (const Metric& m : report.metrics) {
    std::printf("metric %-28s %16.6f %-9s (%s)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  for (const Metric& m : report.info) {
    std::printf("info   %-28s %16.6f %-9s (%s)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  if (!report.spans.empty() && report.trace_sample_every > 1) {
    std::printf("# span summaries are partial: some threads kept the spans "
                "of only 1 request in up to %llu, and a span whose children "
                "carry other request ids shows too much self time\n",
                static_cast<unsigned long long>(report.trace_sample_every));
  }
  for (const kbench::SpanSummary& s : report.spans) {
    std::printf("span   %-28s n=%-8zu p50=%.3fus self_total=%.3fms\n",
                s.name.c_str(), s.count, s.p50_us, s.self_total_ms);
  }
  if (!report.trace_path.empty()) {
    std::printf("# spans written to %s\n", report.trace_path.c_str());
  }
  for (const std::string& failure : report.failures) {
    std::printf("FAILURE %s\n", failure.c_str());
  }
  WriteRecord(options, host, comparable, report);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              MetricsObject(report.metrics, false).c_str());
  return 0;
}
