#include "util.h"

#include <dirent.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <limits>
#include <sstream>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double windowed_quantile(const std::vector<double>& values, double q, std::size_t window,
                         double over) {
  const std::size_t windows = window == 0 ? 0 : values.size() / window;
  if (windows < 2) return quantile(values, q);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = values.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto last =
        w + 1 == windows ? values.end() : first + static_cast<std::ptrdiff_t>(window);
    per_window.push_back(quantile(std::vector<double>(first, last), q));
  }
  return quantile(per_window, over);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's peak when larger.
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
    in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0.0;
}

namespace {
std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}
}  // namespace

std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

std::size_t thread_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

int current_tid() { return static_cast<int>(syscall(SYS_gettid)); }

std::vector<int> task_ids() {
  std::vector<int> ids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return ids;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] >= '0' && entry->d_name[0] <= '9') {
      ids.push_back(std::atoi(entry->d_name));
    }
  }
  closedir(dir);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::int64_t io_syscalls(int tid) {
  const std::string path =
      tid < 0 ? "/proc/self/io" : "/proc/self/task/" + std::to_string(tid) + "/io";
  std::ifstream in(path);
  if (!in) return -1;
  std::int64_t total = 0;
  int found = 0;
  std::string key;
  std::int64_t value = 0;
  while (in >> key >> value) {
    if (key == "syscr:" || key == "syscw:") {
      total += value;
      ++found;
    }
  }
  return found == 2 ? total : -1;
}

std::string Results::to_json(bool traced) const {
  std::ostringstream out;
  out.precision(10);
  out << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : traced ? layers : metrics) {
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << metric.value
        << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
