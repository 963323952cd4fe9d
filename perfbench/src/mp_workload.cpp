// mp_inproc: the message-passing backend with nothing in front of it.
// Issuer threads keep bursts of operations in flight on a fresh
// mp:tree:8?actors=2 per round — count_begin × burst, then a
// deadline-bounded count_collect_until for each — so the actor hops, the
// response cells and the deadline path do the work, with the workers kept
// busy rather than parked between single operations.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.h"
#include "run/backend.h"
#include "topo/validate.h"
#include "tracing_backend.h"
#include "workloads.h"

namespace perfbench {

namespace run = cnet::run;

namespace {

// The workload's pins.
constexpr const char* kSpec = "mp:tree:8?actors=2";
constexpr std::uint32_t kThreads = 2;          ///< issuers of the high phase
constexpr std::uint32_t kBurst = 16;           ///< count_begins in flight per issuer
constexpr std::uint64_t kBudgetNs = 50'000'000;  ///< count_collect_until deadline
constexpr std::uint64_t kRoundOps = 200'000;   ///< ops per fresh backend
constexpr std::uint32_t kSamplePeriod = 16;    ///< one op in this many is timed
constexpr double kLowShare = 0.4;              ///< share of the run with 1 issuer
constexpr double kHighShare = 0.6;             ///< share with kThreads issuers

/// What the traced rounds' obs sinks saw, summed over rounds.
struct MpTally {
  double deadline_timeouts = 0.0;
  double values_parked = 0.0;
  double values_reclaimed = 0.0;
  double queue_depth_p99 = 0.0;  ///< of the last round
  double cells_created = 0.0;    ///< process-wide response-cell arena
};

struct MpRound {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t timeouts = 0;
  std::vector<double> latency_us;  ///< begin → value, sampled ops
  bool ok = true;
};

MpRound run_mp_round(const std::string& spec, std::uint32_t threads, std::uint32_t sample_offset,
                     SpanBuffer* spans, MpTally* tally, Results* results) {
  MpRound round;
  const std::uint64_t per_thread = kRoundOps / threads / kBurst * kBurst;
  round.ops = per_thread * threads;
  const std::int64_t t0 = now_ns();
  std::unique_ptr<run::CountingBackend> backend;
  {
    ScopedSpan span(spans, "setup.backend");
    std::string error;
    backend = run::make_backend(spec, &error);
    if (!backend) {
      results->fail("mp_inproc: bad backend spec: " + error);
      round.ok = false;
      return round;
    }
  }
  round.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  std::unique_ptr<TracingBackend> tracer;
  if (spans != nullptr) {
    tracer = std::make_unique<TracingBackend>(*backend, *spans, kSamplePeriod);
  }
  run::CountingBackend& target = tracer ? *tracer : *backend;

  std::vector<std::vector<std::uint64_t>> values(threads);
  std::vector<std::vector<double>> latency(threads);
  std::vector<std::uint64_t> timeouts(threads, 0);
  std::vector<std::int64_t> end_ns(threads, 0);
  std::atomic<bool> go{false};
  std::atomic<std::uint32_t> ready{0};
  std::vector<std::thread> issuers;
  for (std::uint32_t t = 0; t < threads; ++t) {
    issuers.emplace_back([&, t] {
      values[t].reserve(per_thread);
      std::vector<run::CountingBackend::PendingCount> pending(kBurst);
      std::vector<std::int64_t> begun(kBurst);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      std::uint64_t n = 0;
      for (std::uint64_t i = 0; i < per_thread; i += kBurst) {
        for (std::uint32_t k = 0; k < kBurst; ++k) {
          begun[k] = now_ns();
          pending[k] = target.count_begin(t, 0);
        }
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::nanoseconds(kBudgetNs);
        for (std::uint32_t k = 0; k < kBurst; ++k) {
          const run::CountingBackend::TimedCount timed =
              target.count_collect_until(pending[k], deadline);
          if (timed.ok) {
            values[t].push_back(timed.value);
          } else {
            ++timeouts[t];
          }
          if (n++ % kSamplePeriod == sample_offset) {
            latency[t].push_back(static_cast<double>(now_ns() - begun[k]) / 1e3);
          }
        }
      }
      end_ns[t] = now_ns();
    });
  }
  while (ready.load() != threads) std::this_thread::yield();
  const std::int64_t start = now_ns();
  go.store(true, std::memory_order_release);
  for (auto& issuer : issuers) issuer.join();
  const std::int64_t last_end = *std::max_element(end_ns.begin(), end_ns.end());
  round.wall_s = static_cast<double>(last_end - start) / 1e9;

  // Checks: the collected values and the ones the drain reclaims form
  // 0..n-1 with the step property; every parked value is accounted for.
  // n is fewer than the ops when a collect timed out: its value was parked
  // and a later op recycled it instead of sending a token of its own.
  const run::CountingBackend::DrainResult drained = target.drain(2'000'000'000);
  std::size_t n = drained.reclaimed.size();
  for (const auto& v : values) n += v.size();
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<std::uint64_t> per_output(target.network().output_width(), 0);
  std::uint64_t bad = 0;
  const auto add = [&](std::uint64_t v) {
    if (v >= seen.size() || seen[v] != 0) {
      ++bad;
      return;
    }
    seen[v] = 1;
    ++per_output[v % per_output.size()];
  };
  for (std::uint32_t t = 0; t < threads; ++t) {
    for (std::uint64_t v : values[t]) add(v);
    round.timeouts += timeouts[t];
    round.latency_us.insert(round.latency_us.end(), latency[t].begin(), latency[t].end());
  }
  for (std::uint64_t v : drained.reclaimed) add(v);
  const std::uint64_t holes =
      static_cast<std::uint64_t>(std::count(seen.begin(), seen.end(), std::uint8_t{0}));
  if (bad + holes != 0 || !drained.quiescent) {
    results->fail("mp_inproc: " + std::to_string(bad) + " duplicate or wild values, " +
                  std::to_string(holes) + " holes (collected + reclaimed must form 0..n-1)");
    round.ok = false;
  }
  if (!cnet::topo::has_step_property(per_output)) {
    results->fail("mp_inproc: step property violated");
    round.ok = false;
  }
  const auto robust = dynamic_cast<run::MpBackend&>(*backend).service().robustness_stats();
  if (robust.values_parked != robust.values_reclaimed + drained.reclaimed.size()) {
    results->fail("mp_inproc: values parked != values recycled + reclaimed by drain");
    round.ok = false;
  }
  if (tracer) {
    cnet::obs::MetricsRegistry registry;
    target.register_metrics(registry);
    const cnet::obs::Snapshot snap = registry.snapshot();
    for (const auto& gauge : snap.gauges) {
      if (gauge.name == "mp.deadline_timeouts") tally->deadline_timeouts += gauge.value;
      if (gauge.name == "mp.values_parked") tally->values_parked += gauge.value;
      if (gauge.name == "mp.values_reclaimed") tally->values_reclaimed += gauge.value;
      if (gauge.name == "mp.cells.created") tally->cells_created = gauge.value;
    }
    for (const auto& histogram : snap.histograms) {
      if (histogram.name == "mp.queue_depth") {
        tally->queue_depth_p99 = histogram.histogram.quantile(0.99);
      }
    }
  }
  return round;
}

}  // namespace

Results run_mp_inproc(const RunOptions& options) {
  Results results;
  SpanBuffer* spans = options.spans;
  std::string spec = kSpec;
  if (spans != nullptr) spec += "&metrics";
  // Closed-loop issuers have no random inputs; the seed picks which ops
  // (one in kSamplePeriod) are timed for the latency figures.
  const auto sample_offset = static_cast<std::uint32_t>(options.seed % kSamplePeriod);

  std::vector<double> setup_samples;
  MpTally tally;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto phase = [&](std::uint32_t threads, double share) {
    std::vector<MpRound> rounds;
    const std::int64_t end = now_ns() + static_cast<std::int64_t>(options.seconds * share * 1e9);
    do {
      rounds.push_back(run_mp_round(spec, threads, sample_offset, spans, &tally, &results));
      setup_samples.push_back(rounds.back().setup_s);
      attempted += rounds.back().ops;
      failed += rounds.back().ok ? rounds.back().timeouts : rounds.back().ops;
    } while (now_ns() < end);
    return rounds;
  };
  const auto latency = [](const std::vector<MpRound>& rounds, double q) {
    std::vector<double> per_round;
    for (const MpRound& r : rounds) per_round.push_back(quantile(r.latency_us, q));
    return median(per_round);
  };

  const auto low = phase(1, kLowShare);
  const auto high = phase(kThreads, kHighShare);
  std::vector<double> rates;
  for (const MpRound& r : high) rates.push_back(static_cast<double>(r.ops) / r.wall_s);

  const auto d = [](auto v) { return static_cast<double>(v); };
  results.attempted = attempted;
  results.failed = failed;
  results.set("setup_s", median(setup_samples), "s");
  results.set("rss_mb", peak_rss_mb(), "MiB");
  results.set("ok_frac", 1.0 - per(d(failed), d(attempted)), "ratio");
  results.set("max_rate_kops", median(rates) / 1e3, "kcount/s");
  results.set("lat_p50_us.low", latency(low, 0.50), "us");
  results.set("lat_p99_us.low", latency(low, 0.99), "us");
  results.set("lat_p50_us.high", latency(high, 0.50), "us");
  results.set("lat_p99_us.high", latency(high, 0.99), "us");
  if (spans == nullptr) return results;

  std::vector<double> collect_us = spans->durations("mp.count_collect");
  for (double& v : collect_us) v /= 1e3;
  results.layer("mp.begin_ns_p50", quantile(spans->durations("mp.count_begin"), 0.50), "ns");
  results.layer("mp.collect_wait_us_p50", quantile(collect_us, 0.50), "us");
  results.layer("mp.collect_wait_us_p99", quantile(collect_us, 0.99), "us");
  results.layer("mp.deadline_timeouts", tally.deadline_timeouts, "ops");
  results.layer("mp.values_parked", tally.values_parked, "values");
  results.layer("mp.values_reclaimed", tally.values_reclaimed, "values");
  results.layer("mp.queue_depth_p99", tally.queue_depth_p99, "messages");
  results.layer("mp.cells_created", tally.cells_created, "cells");
  results.layer("setup.backend_ms", median(spans->durations("setup.backend")) / 1e6, "ms");
  return results;
}

}  // namespace perfbench
