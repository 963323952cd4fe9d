#include "run/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "topo/validate.h"
#include "util/rng.h"
#include "util/spin.h"

namespace cnet::run {
namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

/// One live issuer thread: runs its share of the workload against the
/// backend, recording an Operation per claimed value. `stop` (optional)
/// ends the run early between operations; `injector` (optional) supplies
/// the client-death schedule — a dying op abandons with a zero deadline
/// via count_until and records nothing (counted in `*abandoned` instead;
/// its value surfaces through the backend's recycling path).
void live_issuer(CountingBackend& backend, const Workload& workload, std::uint32_t tid,
                 std::uint64_t quota, bool delayed, std::uint64_t thread_seed,
                 const std::atomic<bool>& go, const std::atomic<bool>* stop,
                 fault::Injector* injector, Clock::time_point* t0, lin::History* ops,
                 std::uint64_t* abandoned) {
  while (!go.load(std::memory_order_acquire)) {
    cpu_relax();  // starting gun: all issuers ramp together
  }
  ops->reserve(quota);
  const bool deaths = injector != nullptr && injector->plan().has_deaths();
  // Deaths need per-op issuance: the schedule is per operation, and a
  // batched claim has no per-value abandonment point.
  const std::uint32_t batch = (delayed || deaths) ? 1 : std::max(1u, workload.batch);
  std::vector<std::uint64_t> values(batch);
  std::uint64_t issued = 0;  // per-thread op index for the death schedule

  const auto stopped = [stop] {
    return stop != nullptr && stop->load(std::memory_order_relaxed);
  };

  const auto issue_block = [&](std::uint64_t n) {
    const double start = ns_since(*t0);
    if (n == 1) {
      const std::uint64_t op_index = issued++;
      const std::uint64_t wait = delayed ? workload.wait : 0;
      if (deaths && injector->should_die(tid, op_index)) {
        const CountingBackend::TimedCount timed = backend.count_until(tid, wait, 0);
        if (!timed.ok) {
          ++*abandoned;
          return;  // no Operation: the value parks and gets recycled
        }
        values[0] = timed.value;  // beat even the zero deadline — keep it
      } else if (delayed) {
        values[0] = backend.count_delayed(tid, wait);
      } else {
        values[0] = backend.count(tid);
      }
    } else {
      backend.count_batch(tid, std::span<std::uint64_t>(values).first(n));
      issued += n;
    }
    const double end = ns_since(*t0);
    for (std::uint64_t i = 0; i < n; ++i) {
      ops->push_back(lin::Operation{start, end, values[i], tid});
    }
  };

  if (workload.arrival == Arrival::kClosed) {
    std::uint64_t remaining = quota;
    while (remaining != 0 && !stopped()) {
      const std::uint64_t n = std::min<std::uint64_t>(batch, remaining);
      issue_block(n);
      remaining -= n;
    }
  } else if (workload.arrival == Arrival::kPoisson) {
    // The first-class open-loop mode: this issuer paces against the shared
    // OpenLoopPacer schedule (aggregate rate split evenly, exponential
    // gaps) — the very same schedule cnet_loadgen offers over the wire for
    // this (workload, issuer) pair.
    OpenLoopPacer pacer(workload, thread_seed);
    for (std::uint64_t i = 0; i < quota && !stopped(); ++i) {
      const double next_arrival = pacer.next_arrival_ns();
      while (ns_since(*t0) < next_arrival) {
        if (stopped()) return;
        cpu_relax();
      }
      issue_block(1);
    }
  } else {  // Arrival::kBurst
    std::uint64_t remaining = quota;
    for (std::uint64_t burst = 0; remaining != 0 && !stopped(); ++burst) {
      const double target = static_cast<double>(burst) * workload.burst_gap;
      while (ns_since(*t0) < target) {
        if (stopped()) return;
        cpu_relax();
      }
      std::uint64_t in_burst = std::min<std::uint64_t>(workload.burst_size, remaining);
      remaining -= in_burst;
      while (in_burst != 0 && !stopped()) {
        const std::uint64_t n = std::min<std::uint64_t>(batch, in_burst);
        issue_block(n);
        in_burst -= n;
      }
    }
  }
}

/// Counting check over the history's values plus the values the post-run
/// drain reclaimed: together they must be exactly {0..n-1}. Every value
/// the outputs issued is accounted for — completed, recycled into a later
/// operation, or recovered from the parked buffer — with no duplicates.
bool counting_with_reclaimed(const lin::History& history,
                             const std::vector<std::uint64_t>& reclaimed,
                             std::string* message) {
  std::vector<std::uint64_t> values;
  values.reserve(history.size() + reclaimed.size());
  for (const lin::Operation& op : history) values.push_back(op.value);
  values.insert(values.end(), reclaimed.begin(), reclaimed.end());
  std::sort(values.begin(), values.end());
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] == i) continue;
    *message = values[i] < i
                   ? "value " + std::to_string(values[i]) +
                         " appears more than once (history + reclaimed)"
                   : "value " + std::to_string(i) + " missing (history + reclaimed)";
    return false;
  }
  return true;
}

RunReport reject(RunReport report, std::string why) {
  report.ok = false;
  report.error = std::move(why);
  return report;
}

}  // namespace

RunReport Runner::run(CountingBackend& backend, const Workload& workload,
                      const std::atomic<bool>* stop, sched::Recorder* capture) {
  RunReport report;
  report.spec = backend.spec();
  report.workload = workload;
  report.time_unit = backend.time_unit();

  if (workload.threads == 0) return reject(std::move(report), "workload needs threads >= 1");
  if (capture != nullptr && !backend.set_recorder(capture)) {
    return reject(std::move(report),
                  "schedule capture requires a live rt or mp backend (a simulated "
                  "backend's schedule is its params — serialize those instead)");
  }
  if (workload.delayed_fraction < 0.0 || workload.delayed_fraction > 1.0) {
    return reject(std::move(report), "delayed_fraction must be in [0, 1]");
  }
  const Family family = backend.spec().family;
  if (family == Family::kRt && workload.threads > backend.spec().max_threads) {
    return reject(std::move(report),
                  "workload threads exceed the spec's threads=" +
                      std::to_string(backend.spec().max_threads) + " bound");
  }

  std::optional<lin::CheckResult> simulated_analysis;  // a simulated backend's own check
  if (backend.live()) {
    if (workload.arrival == Arrival::kPoisson && workload.rate <= 0.0) {
      return reject(std::move(report), "poisson arrivals need rate > 0");
    }
    if (workload.arrival == Arrival::kBurst &&
        (workload.burst_gap <= 0.0 || workload.burst_size == 0)) {
      return reject(std::move(report), "burst arrivals need burst_gap > 0 and burst_size >= 1");
    }
    const std::uint32_t threads = workload.threads;
    const auto n_delayed = static_cast<std::uint32_t>(
        std::lround(workload.delayed_fraction * static_cast<double>(threads)));
    const std::vector<std::uint64_t> quota = issuer_quotas(workload.total_ops, threads);
    std::vector<lin::History> per_thread(threads);
    std::vector<std::uint64_t> abandoned(threads, 0);
    fault::Injector* injector = backend.fault_injector();

    // The canonical per-issuer seed chain (shared with cnet_loadgen, so an
    // over-the-wire run of this workload draws the same pacer streams).
    const std::vector<std::uint64_t> seeds = issuer_seeds(workload.seed, threads);

    std::atomic<bool> go{false};
    Clock::time_point t0;
    {
      std::vector<std::jthread> issuers;
      issuers.reserve(threads);
      for (std::uint32_t tid = 0; tid < threads; ++tid) {
        issuers.emplace_back(live_issuer, std::ref(backend), std::cref(workload), tid,
                             quota[tid], tid < n_delayed, seeds[tid], std::cref(go), stop,
                             injector, &t0, &per_thread[tid], &abandoned[tid]);
      }
      t0 = Clock::now();
      go.store(true, std::memory_order_release);
    }
    for (auto& ops : per_thread) {
      report.history.insert(report.history.end(), ops.begin(), ops.end());
    }
    for (const lin::Operation& op : report.history) {
      report.makespan = std::max(report.makespan, op.end);
    }
    for (std::uint64_t a : abandoned) report.abandoned_ops += a;
    report.interrupted = stop != nullptr && stop->load(std::memory_order_acquire);

    // Quiesce before analysis: abandoned tokens may still be in flight, and
    // their parked values belong in the counting check.
    constexpr std::uint64_t kDrainDeadlineNs = 5'000'000'000;
    CountingBackend::DrainResult drained = backend.drain(kDrainDeadlineNs);
    report.drain_quiescent = drained.quiescent;
    report.stray_tokens = drained.strays;
    report.drain_wait_ns = drained.waited_ns;
    report.reclaimed_values = std::move(drained.reclaimed);
    // Detach only after the drain: an abandoned token still in flight
    // would otherwise report hops to a recorder the caller already owns.
    if (capture != nullptr) backend.set_recorder(nullptr);
  } else {
    SimulatedRun result = backend.simulate(workload);
    if (!result.ok) return reject(std::move(report), std::move(result.error));
    report.history = std::move(result.history);
    report.makespan = result.makespan;
    report.avg_tog = result.avg_tog;
    report.avg_c2_over_c1 = result.avg_c2_over_c1;
    simulated_analysis = std::move(result.analysis);
  }

  // Uniform post-run analysis: Def 2.4 (unless the simulated backend
  // already made it), counting property, step property, latency/throughput,
  // and the obs snapshot.
  report.analysis =
      simulated_analysis ? std::move(*simulated_analysis) : lin::check(report.history);
  if (report.reclaimed_values.empty()) {
    report.counting_ok = lin::values_form_range(report.history, &report.counting_message);
  } else {
    report.counting_ok = counting_with_reclaimed(report.history, report.reclaimed_values,
                                                 &report.counting_message);
  }
  std::vector<std::uint64_t> per_output(backend.network().output_width(), 0);
  for (const lin::Operation& op : report.history) {
    ++per_output[op.value % per_output.size()];
    report.op_latency.add(op.end - op.start);
  }
  // Reclaimed values exited the network's outputs too — the step property
  // is about what the outputs issued, not what the clients kept.
  for (std::uint64_t value : report.reclaimed_values) {
    ++per_output[value % per_output.size()];
  }
  report.step_ok = topo::has_step_property(per_output);
  if (report.makespan > 0.0) {
    report.throughput = static_cast<double>(report.history.size()) / report.makespan;
  }
  report.c2c1_estimate = backend.c2c1_estimate();

  fault::Injector* injector = backend.fault_injector();
  report.faults = injector != nullptr;
  if (injector != nullptr) report.fault_stats = injector->stats();
  report.degrade = backend.degrade_status();
  const bool guard_downgraded =
      report.degrade.policy == rt::DegradePolicy::kReport && report.degrade.tripped;
  if (guard_downgraded || report.abandoned_ops != 0) {
    report.guarantee = RunReport::Guarantee::kCountingOnly;
  }

  obs::MetricsRegistry registry;
  backend.register_metrics(registry);
  report.metrics = registry.snapshot();
  report.ok = true;
  return report;
}

std::string RunReport::to_text() const {
  char buf[256];
  std::string s;
  if (!ok) {
    s = "run rejected: " + error + "\n";
    return s;
  }
  s += "spec     : " + spec.to_string() + "\n";
  s += "workload : " + workload.to_string() + "\n";
  if (interrupted) {
    s += "status   : INTERRUPTED — issuers stopped early, history is partial\n";
  }
  std::snprintf(buf, sizeof buf, "ops      : %zu completed, values %s, step property %s\n",
                history.size(), counting_ok ? "0..n-1 exactly once" : counting_message.c_str(),
                step_ok ? "ok" : "VIOLATED");
  s += buf;
  std::snprintf(buf, sizeof buf,
                "Def 2.4  : %llu non-linearizable of %llu (%.4f%%), worst inversion %llu\n",
                static_cast<unsigned long long>(analysis.nonlinearizable_ops),
                static_cast<unsigned long long>(analysis.total_ops),
                analysis.fraction() * 100.0,
                static_cast<unsigned long long>(analysis.worst_inversion));
  s += buf;
  std::snprintf(buf, sizeof buf, "makespan : %.0f %s\n", makespan, time_unit.c_str());
  s += buf;
  if (!schedule_ref.empty()) {
    s += "schedule : captured to " + schedule_ref + "\n";
  }
  if (time_unit == "ns") {
    std::snprintf(buf, sizeof buf, "rate     : %.3f M ops/s\n", throughput * 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "rate     : %.3f ops per 1000 %s\n", throughput * 1e3,
                  time_unit.c_str());
  }
  s += buf;
  std::snprintf(buf, sizeof buf, "latency  : mean %.1f, min %.1f, max %.1f %s\n",
                op_latency.mean(), op_latency.min(), op_latency.max(), time_unit.c_str());
  s += buf;
  if (avg_tog > 0.0) {
    std::snprintf(buf, sizeof buf, "psim     : avg Tog %.1f cycles, (Tog+W)/Tog %.2f\n",
                  avg_tog, avg_c2_over_c1);
    s += buf;
  }
  if (c2c1_estimate > 0.0) {
    std::snprintf(buf, sizeof buf, "c2/c1    : %.2f online estimate (Cor 3.9 needs <= 2)\n",
                  c2c1_estimate);
    s += buf;
  }
  if (degrade.policy != rt::DegradePolicy::kOff) {
    const char* policy = degrade.policy == rt::DegradePolicy::kPad ? "pad" : "report";
    if (!degrade.tripped) {
      std::snprintf(buf, sizeof buf, "degrade  : %s armed, c2/c1 estimate %.2f\n", policy,
                    degrade.estimate);
    } else if (degrade.policy == rt::DegradePolicy::kPad) {
      std::snprintf(buf, sizeof buf,
                    "degrade  : pad TRIPPED at c2/c1 %.2f — %u-stage Cor 3.12 pad, "
                    "%llu ns per op\n",
                    degrade.estimate, degrade.pad_len,
                    static_cast<unsigned long long>(degrade.pad_ns));
    } else {
      std::snprintf(buf, sizeof buf,
                    "degrade  : report TRIPPED at c2/c1 %.2f — hop p10 %.0f ns, p90 %.0f ns\n",
                    degrade.estimate, degrade.hop_p10, degrade.hop_p90);
    }
    s += buf;
  }
  if (faults) {
    std::snprintf(buf, sizeof buf,
                  "faults   : %llu stalls (%.1f ms), %llu pauses, %llu delays, %llu deaths\n",
                  static_cast<unsigned long long>(fault_stats.stalls),
                  static_cast<double>(fault_stats.stall_ns) / 1e6,
                  static_cast<unsigned long long>(fault_stats.pauses),
                  static_cast<unsigned long long>(fault_stats.delays),
                  static_cast<unsigned long long>(fault_stats.deaths));
    s += buf;
  }
  if (faults || interrupted || abandoned_ops != 0 || !reclaimed_values.empty() ||
      !drain_quiescent) {
    const std::string drain_text =
        drain_quiescent ? "quiescent"
                        : std::to_string(stray_tokens) + " STRAY TOKENS at deadline";
    std::snprintf(buf, sizeof buf,
                  "robust   : %llu abandoned, %zu values reclaimed, drain %s (%.1f ms)\n",
                  static_cast<unsigned long long>(abandoned_ops), reclaimed_values.size(),
                  drain_text.c_str(), static_cast<double>(drain_wait_ns) / 1e6);
    s += buf;
  }
  if (guarantee == Guarantee::kCountingOnly) {
    s += "guarantee: counting-only — linearizability forfeited "
         "(abandonments recycle stale values / guard tripped)\n";
  } else if (faults || degrade.policy != rt::DegradePolicy::kOff) {
    s += "guarantee: linearizable\n";
  }
  return s;
}

}  // namespace cnet::run
