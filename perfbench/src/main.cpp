// perfbench_bin: runs one workload of the repo benchmark and prints its
// result line. perfbench/run.py builds this binary, runs it, and checks the
// printed names and units against BENCHMARK.json, the benchmark's only
// metric catalogue.
//
//   perfbench_bin --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--out-dir <dir>]
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the workload
// twice, each for half the time — untraced, then traced — and prints the
// per-layer metrics: the layers' readings from the traced half, the
// unbounded readings (tail latencies, svc capacity) from the untraced half,
// and the tracing overhead (traced minus untraced end-to-end value). Spans
// and their self times are written to --out-dir when the run ends. The exit
// code is 1 when any output check failed, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "spans.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  Results (*run)(const RunOptions&);
};

constexpr Workload kWorkloads[] = {{"svc_rt", run_svc},
                                   {"mp_inproc", run_mp_inproc},
                                   {"rt_inproc", run_rt_inproc},
                                   {"paper_psim", run_paper_psim}};

/// Readings of the untraced run that vary run to run far beyond any useful
/// bound on a virtual machine whose vCPUs the host preempts for
/// milliseconds: the tail latencies (every workload) and the svc ladder's
/// uncapped climb. They are reported (unbounded) in the traced run's
/// per-layer output, read from its untraced half.
constexpr const char* kUnboundedMetrics[] = {"lat_p99_us.low", "lat_p99_us.high",
                                             "svc.capacity_kops"};

/// The metrics whose tracing overhead the traced run reports as
/// "overhead.<name>".
constexpr const char* kOverheadSources[] = {"setup_s",        "max_rate_kops",
                                            "lat_p50_us.low", "lat_p50_us.high",
                                            "lat_p99_us.low", "lat_p99_us.high"};

int usage(const std::string& why) {
  std::string known;
  for (const Workload& w : kWorkloads) known += std::string(" ") + w.name;
  std::fprintf(stderr,
               "perfbench_bin: %s\nusage: perfbench_bin --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\nknown workloads:%s\n",
               why.c_str(), known.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out_dir = ".";
  std::uint64_t seed = 1;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    } else if (key == "--out-dir") {
      out_dir = value;
    } else {
      return usage("unknown flag " + key);
    }
  }
  if (argc % 2 == 0) return usage("flags come in pairs");
  Results (*run_workload)(const RunOptions&) = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) run_workload = w.run;
  }
  if (run_workload == nullptr) return usage("unknown workload " + workload);
  if (!(seconds > 0.0) || trace < 0) return usage("--seconds > 0 and --trace 0|1 are required");

  Results out;
  if (trace == 0) {
    out = run_workload({seed, seconds, nullptr});
    for (const char* name : kUnboundedMetrics) out.metrics.erase(name);
  } else {
    const Results plain = run_workload({seed, seconds / 2, nullptr});
    SpanBuffer spans;
    out = run_workload({seed, seconds / 2, &spans});
    out.attempted += plain.attempted;
    out.failed += plain.failed;
    out.check_failures.insert(out.check_failures.end(), plain.check_failures.begin(),
                              plain.check_failures.end());
    for (const char* name : kUnboundedMetrics) {
      if (const auto it = plain.metrics.find(name); it != plain.metrics.end()) {
        out.layer(name, it->second.value, it->second.unit);
      }
    }
    for (const std::string name : kOverheadSources) {
      const auto traced_it = out.metrics.find(name);
      const auto plain_it = plain.metrics.find(name);
      if (traced_it == out.metrics.end() || plain_it == plain.metrics.end()) continue;
      out.layer("overhead." + name, traced_it->second.value - plain_it->second.value,
                traced_it->second.unit);
    }
    const std::string stem = out_dir + "/" + workload + "-seed" + std::to_string(seed);
    if (!spans.write_csv(stem + "-spans.csv")) {
      std::fprintf(stderr, "perfbench_bin: could not write %s-spans.csv\n", stem.c_str());
    }
    if (FILE* f = std::fopen((stem + "-selftime.txt").c_str(), "w"); f != nullptr) {
      std::fprintf(f, "%-22s %10s %14s %14s\n", "span", "count", "total_ms", "self_ms");
      for (const auto& entry : spans.self_times()) {
        std::fprintf(f, "%-22s %10llu %14.3f %14.3f\n", entry.name.c_str(),
                     static_cast<unsigned long long>(entry.count), entry.total_ns / 1e6,
                     entry.self_ns / 1e6);
      }
      std::fclose(f);
    }
  }
  for (const std::string& failure : out.check_failures) {
    std::fprintf(stderr, "perfbench_bin: CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("%s\n", out.to_json(trace == 1).c_str());
  return out.correct() ? 0 : 1;
}
