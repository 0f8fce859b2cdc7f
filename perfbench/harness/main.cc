// perfbench: the repository's one benchmark. Runs one named workload
// against the library's public API, checks every answer it audits, and
// prints the metrics as the last line of standard output:
//
//   tabula_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--workdir <dir>] [--commit <id>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 wraps the engine
// and loss in forwarding decorators, records spans and prints the
// per-layer metrics. Exits 1 on any audit, identity or self-test
// failure, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "harness.h"
#include "instruments.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out.push_back(c);
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

std::string StringsJson(const std::map<std::string, std::string>& fields) {
  std::string out = "{";
  for (const auto& [k, v] : fields) {
    if (out.size() > 1) out += ", ";
    out += JsonString(k) + ": " + JsonString(v);
  }
  return out + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: tabula_perf --workload "
               "<build_heatmap|dashboard_zipf|ingest_serve|wire_sharded> "
               "--seed <n> --seconds <s> --trace <0|1> [--workdir <dir>] "
               "[--commit <id>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || !(options.seconds > 0.0) || argc % 2 == 0) {
    return Usage();
  }

  using RunFn = tabula::Status (*)(const RunOptions&, RunReport*);
  RunFn run = nullptr;
  if (options.workload == "build_heatmap") run = RunBuildHeatmap;
  if (options.workload == "dashboard_zipf") run = RunDashboardZipf;
  if (options.workload == "ingest_serve") run = RunIngestServe;
  if (options.workload == "wire_sharded") run = RunWireSharded;
  if (run == nullptr) return Usage();

  const std::vector<std::string> selftest = RunSelfTests();
  if (!selftest.empty()) {
    for (const std::string& f : selftest) {
      std::fprintf(stderr, "[perfbench] self-test failed: %s\n", f.c_str());
    }
    return 1;
  }

  std::error_code ec;
  std::filesystem::create_directories(options.workdir, ec);
  RunReport report;
  if (options.trace) {
    // Bounded: the first spans of a run are kept, later ones counted as
    // dropped, so a traced run's dump stays around 10 MB.
    SpanRecorder::Get().Enable(50000);
    InitLayers(&report);
  }
  const char* pool_env = std::getenv("TABULA_THREADS");
  report.provenance["workload"] = options.workload;
  report.provenance["seed"] = std::to_string(options.seed);
  report.provenance["seconds"] = JsonNumber(options.seconds);
  report.provenance["trace"] = options.trace ? "1" : "0";
  report.provenance["commit"] = commit;
  report.provenance["build_type"] = PERFBENCH_BUILD_TYPE;
  report.provenance["compiler"] = std::string("gcc-compatible ") + __VERSION__;
  report.provenance["nproc"] =
      std::to_string(std::thread::hardware_concurrency());
  report.provenance["pool_threads"] =
      std::to_string(tabula::ThreadPool::Global().num_threads());
  report.provenance["TABULA_THREADS"] = pool_env ? pool_env : "unset";

  const CpuTicks ticks_before = ReadCpuTicks();
  tabula::Status st = run(options, &report);
  const CpuTicks ticks_after = ReadCpuTicks();
  if (!st.ok()) {
    std::fprintf(stderr, "[perfbench] %s failed: %s\n",
                 options.workload.c_str(), st.ToString().c_str());
    return 1;
  }
  if (!options.trace) {
    report.end_to_end["peak_rss_mb"] = Metric{PeakRssMb(), "MiB"};
  }
  // CPU time the hypervisor took from this machine during the run: a
  // validity signal for every timing above, not a target.
  const uint64_t ticks = ticks_after.total - ticks_before.total;
  report.detail["steal_pct"] = Metric{
      ticks == 0 ? 0.0
                 : 100.0 * static_cast<double>(ticks_after.steal -
                                               ticks_before.steal) /
                       static_cast<double>(ticks),
      "%"};

  if (options.trace) {
    const std::string path =
        (std::filesystem::path(options.workdir) /
         ("spans_" + options.workload + ".jsonl"))
            .string();
    tabula::Status written = SpanRecorder::Get().WriteOtlp(path, "perfbench");
    if (!written.ok()) report.Violation("span dump: " + written.ToString());
    report.provenance["spans_file"] = path;
    report.provenance["spans_dropped"] =
        std::to_string(SpanRecorder::Get().dropped());
  }

  for (const std::string& v : report.violations) {
    std::fprintf(stderr, "[perfbench] VIOLATION: %s\n", v.c_str());
  }
  const auto& gated = options.trace ? report.layers : report.end_to_end;
  std::string violations = "[";
  for (const std::string& v : report.violations) {
    if (violations.size() > 1) violations += ", ";
    violations += JsonString(v);
  }
  violations += "]";
  std::printf("{\"report\": {\"provenance\": %s, \"detail\": %s, "
              "\"violations\": %s}}\n",
              StringsJson(report.provenance).c_str(),
              MetricsJson(report.detail).c_str(), violations.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              report.correct() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              MetricsJson(gated).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
