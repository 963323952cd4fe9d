#include "rt/delay_harness.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "util/assert.h"
#include "util/rng.h"

namespace cnet::rt {
namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

void busy_wait_ns(std::uint64_t ns) {
  if (ns == 0) return;
  const auto deadline = Clock::now() + std::chrono::nanoseconds(ns);
  while (Clock::now() < deadline) {
    // burn
  }
}

struct WaitCtx {
  std::uint64_t wait_ns;
};

void after_node_wait(void* ctx, std::uint32_t /*node*/, std::uint32_t /*port*/) {
  busy_wait_ns(static_cast<WaitCtx*>(ctx)->wait_ns);
}

}  // namespace

ExperimentResult run_experiment(const topo::Network& net, const ExperimentParams& params) {
  CNET_CHECK(params.threads >= 1);
  CounterOptions options = params.counter;
  options.max_threads = std::max(options.max_threads, params.threads);
  NetworkCounter counter(net, options);

  // Random subset of round(F * n) delayed threads, as in psim.
  std::vector<char> delayed(params.threads, 0);
  const auto n_delayed = static_cast<std::uint32_t>(
      std::lround(params.delayed_fraction * static_cast<double>(params.threads)));
  for (std::uint32_t i = 0; i < std::min(n_delayed, params.threads); ++i) delayed[i] = 1;
  Rng shuffler(params.seed);
  for (std::uint32_t i = params.threads; i > 1; --i) {
    const auto j = static_cast<std::uint32_t>(shuffler.below(i));
    std::swap(delayed[i - 1], delayed[j]);
  }

  std::vector<lin::History> per_thread(params.threads);
  std::atomic<std::uint64_t> completed{0};
  std::atomic<bool> go{false};
  const auto t0 = Clock::now();

  {
    std::vector<std::jthread> workers;
    workers.reserve(params.threads);
    for (std::uint32_t tid = 0; tid < params.threads; ++tid) {
      workers.emplace_back([&, tid] {
        while (!go.load(std::memory_order_acquire)) {
          // wait for the starting gun so threads ramp together
        }
        WaitCtx ctx{delayed[tid] ? params.wait_ns : 0};
        lin::History& ops = per_thread[tid];
        const std::uint32_t input = counter.entry_wire(tid);
        while (completed.load(std::memory_order_relaxed) < params.total_ops) {
          const double start = ns_since(t0);
          const std::uint64_t value =
              ctx.wait_ns == 0 ? counter.next(tid, input)
                               : counter.next_hooked(tid, input, after_node_wait, &ctx);
          const double end = ns_since(t0);
          ops.push_back(lin::Operation{start, end, value, tid});
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    go.store(true, std::memory_order_release);
  }  // jthreads join here

  ExperimentResult result;
  for (auto& ops : per_thread) {
    result.history.insert(result.history.end(), ops.begin(), ops.end());
  }
  result.analysis = lin::check(result.history);
  result.makespan_ns = ns_since(t0);
  result.throughput_ops_per_sec =
      result.makespan_ns > 0.0
          ? static_cast<double>(result.history.size()) / (result.makespan_ns * 1e-9)
          : 0.0;
  result.counting_ok = lin::values_form_range(result.history, &result.counting_message);
  return result;
}

}  // namespace cnet::rt
