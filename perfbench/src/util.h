// Small shared helpers of the benchmark: the clock, order statistics, the
// /proc and rusage readers behind the resource metrics, and the metric
// sink every workload writes its results into.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock (monotone; the epoch is irrelevant).
std::int64_t now_ns();

/// num ÷ den for per-item readings; a base below 1 counts as 1, so an empty
/// base reads num (0 in practice) instead of dividing by zero.
inline double per(double num, double den) { return num / (den < 1.0 ? 1.0 : den); }

/// Sum of a sample.
double sum(const std::vector<double>& values);

/// q-quantile (q in [0, 1]) by linear interpolation between order
/// statistics; sorts a copy. 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// The `over`-quantile (default: the median), across consecutive windows of
/// `window` samples, of each window's q-quantile (a short last window joins
/// the one before). A multi-millisecond stall of the host then moves the
/// windows it hits, not the reported figure. Falls back to quantile() below
/// two windows.
double windowed_quantile(const std::vector<double>& values, double q, std::size_t window,
                         double over = 0.5);

/// Peak resident set of this process, MiB (VmHWM in /proc/self/status).
double peak_rss_mb();

/// CPU time consumed so far by the whole process / the calling thread, ns.
std::int64_t process_cpu_ns();
std::int64_t thread_cpu_ns();

/// A small per-thread index, handed out in order of first use: the shard
/// a thread writes in sharded per-thread state.
std::size_t thread_index();

/// Kernel thread id of the caller.
int current_tid();
/// Thread ids of every thread of this process, as listed by /proc.
std::vector<int> task_ids();
/// read()+write() syscalls made so far by the process (tid < 0) or by one
/// thread, from /proc/self[/task/<tid>]/io; -1 when the file is unreadable.
std::int64_t io_syscalls(int tid = -1);

/// One workload's results: metric name -> (value, unit), plus the
/// operation tally and every failed check.
struct Results {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;  ///< end-to-end (untraced run)
  std::map<std::string, Metric> layers;   ///< per-layer (traced run)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layers[name] = Metric{value, unit};
  }
  /// Records a failed correctness check (it makes the run incorrect).
  void fail(const std::string& what) { check_failures.push_back(what); }
  bool correct() const { return check_failures.empty(); }

  /// The result line: {"correct", "attempted", "failed", "metrics"}, with
  /// the per-layer metrics as "metrics" when `traced`.
  std::string to_json(bool traced) const;
};

}  // namespace perfbench
