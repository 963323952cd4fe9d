// rt_inproc: the counting network with nothing in front of it. Issuer
// threads (at most the core count) call count() — then count_batch(16) —
// on a fresh rt backend in closed loop, so rt does nearly all the work:
// contended balancer atomics, output fetch_adds, cache-line traffic. Work is
// cut into rounds of a fixed number of operations; each round builds a
// fresh backend (a set-up sample), so its values can be checked as the
// range 0..n-1 with bounded memory.
#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lin/checker.h"
#include "obs/registry.h"
#include "run/backend.h"
#include "topo/validate.h"
#include "tracing_backend.h"
#include "workloads.h"

namespace perfbench {

namespace run = cnet::run;

namespace {

// The workload's pins.
constexpr const char* kSpec = "rt:bitonic:32";
constexpr std::uint32_t kMaxThreads = 4;      ///< issuers of the contended phases, ≤ nproc
constexpr std::uint64_t kRoundOps = 1'000'000;  ///< ops per fresh backend
constexpr std::uint32_t kBatchSize = 16;      ///< count_batch size
constexpr std::uint32_t kSamplePeriod = 64;   ///< one call in this many is timed
constexpr double kSingleShare = 0.2;          ///< share of the run: 1 thread, count()
constexpr double kContendedShare = 0.5;       ///< kMaxThreads threads, count()
constexpr double kBatchShare = 0.3;           ///< kMaxThreads threads, count_batch

enum class Mode { kSingle, kBatch };

struct Round {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t ops = 0;
  std::vector<double> latency_us;  ///< sampled call durations
  std::uint64_t checked = 0;       ///< ops of the Def 2.4 analysis (traced runs)
  std::uint64_t nonlin = 0;        ///< non-linearizable ops among them
  bool ok = true;
};

struct Tally {
  TracingBackend::Totals count;
  TracingBackend::Totals batch;
  double thread_wall_ns = 0.0;  ///< Σ round wall × issuer threads
  double c2c1 = 0.0;
  double hop_ns_p99 = 0.0;
};

Round run_round(const std::string& spec, Mode mode, std::uint32_t threads,
                std::uint32_t sample_offset, SpanBuffer* spans, Tally* tally, Results* results) {
  Round round;
  const std::uint64_t per_thread = kRoundOps / threads;
  round.ops = per_thread * threads;

  const std::int64_t t0 = now_ns();
  std::unique_ptr<run::CountingBackend> backend;
  {
    ScopedSpan span(spans, "setup.backend");
    std::string error;
    backend = run::make_backend(spec, &error);
    if (!backend) {
      results->fail("rt_inproc: bad backend spec: " + error);
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
  const bool record_history = spans != nullptr && mode == Mode::kSingle;

  std::vector<std::vector<std::uint64_t>> values(threads,
                                                 std::vector<std::uint64_t>(per_thread));
  std::vector<std::vector<double>> latency(threads);
  std::vector<cnet::lin::History> history(threads);
  std::vector<std::int64_t> end_ns(threads, 0);
  std::atomic<bool> go{false};
  std::atomic<std::uint32_t> ready{0};
  std::vector<std::thread> issuers;
  for (std::uint32_t t = 0; t < threads; ++t) {
    issuers.emplace_back([&, t] {
      std::vector<std::uint64_t>& out = values[t];
      std::vector<double>& lat = latency[t];
      lat.reserve(per_thread / kSamplePeriod + 1);
      if (record_history) history[t].reserve(per_thread);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      if (mode == Mode::kSingle) {
        for (std::uint64_t i = 0; i < per_thread; ++i) {
          if (record_history) {
            const std::int64_t start = now_ns();
            out[i] = target.count(t);
            history[t].push_back({static_cast<double>(start), static_cast<double>(now_ns()),
                                  out[i], t});
            if (i % kSamplePeriod == sample_offset) {
              lat.push_back((history[t].back().end - static_cast<double>(start)) / 1e3);
            }
          } else if (i % kSamplePeriod == sample_offset) {
            const std::int64_t start = now_ns();
            out[i] = target.count(t);
            lat.push_back(static_cast<double>(now_ns() - start) / 1e3);
          } else {
            out[i] = target.count(t);
          }
        }
      } else {
        std::uint64_t calls = 0;
        for (std::uint64_t i = 0; i < per_thread; i += kBatchSize) {
          const std::span<std::uint64_t> chunk(out.data() + i,
                                               std::min<std::uint64_t>(kBatchSize, per_thread - i));
          if (calls++ % kSamplePeriod == sample_offset) {
            const std::int64_t start = now_ns();
            target.count_batch(t, chunk);
            lat.push_back(static_cast<double>(now_ns() - start) / 1e3);
          } else {
            target.count_batch(t, chunk);
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

  // Checks: the values form 0..n-1 (lin::values_form_range) and the
  // per-output counts have the step property.
  cnet::lin::History all;
  all.reserve(round.ops);
  std::vector<std::uint64_t> per_output(target.network().output_width(), 0);
  for (std::uint32_t t = 0; t < threads; ++t) {
    for (std::uint64_t v : values[t]) {
      all.push_back({0.0, 0.0, v, t});
      ++per_output[v % per_output.size()];
    }
    round.latency_us.insert(round.latency_us.end(), latency[t].begin(), latency[t].end());
  }
  std::string message;
  if (!cnet::lin::values_form_range(all, &message)) {
    results->fail("rt_inproc: values do not form 0..n-1: " + message);
    round.ok = false;
  }
  if (!cnet::topo::has_step_property(per_output)) {
    results->fail("rt_inproc: step property violated");
    round.ok = false;
  }
  if (record_history && threads > 1) {
    // Def 2.4 on this round's call-boundary history, analysed here so that
    // no round's history outlives it.
    cnet::lin::History merged;
    for (auto& h : history) merged.insert(merged.end(), h.begin(), h.end());
    history.clear();
    ScopedSpan span(spans, "lin.check");
    round.nonlin = cnet::lin::check(merged).nonlinearizable_ops;
    round.checked = merged.size();
  }
  if (tracer) {
    const auto add = [](TracingBackend::Totals& into, const TracingBackend::Totals& from) {
      into.calls += from.calls;
      into.values += from.values;
      into.busy_ns += from.busy_ns;
    };
    add(tally->count, tracer->totals(TracingBackend::Call::kCount));
    add(tally->batch, tracer->totals(TracingBackend::Call::kCountBatch));
    tally->thread_wall_ns += round.wall_s * 1e9 * threads;
    if (mode == Mode::kSingle && threads > 1) {
      cnet::obs::MetricsRegistry registry;
      target.register_metrics(registry);
      for (const auto& histogram : registry.snapshot().histograms) {
        if (histogram.name == "rt.hop_latency") {
          tally->hop_ns_p99 = histogram.histogram.quantile(0.99);
        }
      }
      tally->c2c1 = target.c2c1_estimate();
    }
  }
  return round;
}

}  // namespace

Results run_rt_inproc(const RunOptions& options) {
  Results results;
  SpanBuffer* spans = options.spans;
  std::string spec = kSpec;
  if (spans != nullptr) spec += "?metrics";
  const std::uint32_t threads =
      std::max(1U, std::min(kMaxThreads, std::thread::hardware_concurrency()));
  // Closed-loop issuers have no random inputs; the seed picks which calls
  // (one in kSamplePeriod) are timed for the latency figures.
  const auto sample_offset = static_cast<std::uint32_t>(options.seed % kSamplePeriod);

  std::vector<double> setup_samples;
  Tally tally;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Rounds of one mode until its share of the run is used (at least one).
  const auto phase = [&](Mode mode, std::uint32_t n_threads, double share) {
    std::vector<Round> rounds;
    const std::int64_t end = now_ns() + static_cast<std::int64_t>(options.seconds * share * 1e9);
    do {
      rounds.push_back(run_round(spec, mode, n_threads, sample_offset, spans, &tally, &results));
      setup_samples.push_back(rounds.back().setup_s);
      attempted += rounds.back().ops;
      if (!rounds.back().ok) failed += rounds.back().ops;
    } while (now_ns() < end);
    return rounds;
  };
  const auto rate = [](const std::vector<Round>& rounds) {
    std::vector<double> rates;
    for (const Round& r : rounds) rates.push_back(static_cast<double>(r.ops) / r.wall_s);
    return median(rates);
  };
  // Latency quantiles per round, then the median over rounds: one round
  // that the host preempted does not set the figure.
  const auto latency = [](const std::vector<Round>& rounds, double q) {
    std::vector<double> per_round;
    for (const Round& r : rounds) per_round.push_back(quantile(r.latency_us, q));
    return median(per_round);
  };

  const auto single = phase(Mode::kSingle, 1, kSingleShare);
  const auto contended = phase(Mode::kSingle, threads, kContendedShare);
  const auto batched = phase(Mode::kBatch, threads, kBatchShare);
  const auto d = [](auto v) { return static_cast<double>(v); };

  results.attempted = attempted;
  results.failed = failed;
  results.set("setup_s", median(setup_samples), "s");
  results.set("rss_mb", peak_rss_mb(), "MiB");
  results.set("ok_frac", 1.0 - per(d(failed), d(attempted)), "ratio");
  results.set("max_rate_kops", rate(contended) / 1e3, "kcount/s");
  results.set("lat_p50_us.low", latency(single, 0.50), "us");
  results.set("lat_p99_us.low", latency(single, 0.99), "us");
  results.set("lat_p50_us.high", latency(contended, 0.50), "us");
  results.set("lat_p99_us.high", latency(contended, 0.99), "us");
  if (spans == nullptr) return results;

  const std::uint64_t calls = tally.count.calls + tally.batch.calls;
  std::vector<double> call_ns = spans->durations("rt.count");
  const std::vector<double> batch_ns = spans->durations("rt.count_batch");
  call_ns.insert(call_ns.end(), batch_ns.begin(), batch_ns.end());
  results.layer("rt.calls", d(calls), "calls");
  results.layer("rt.ops_per_call", per(d(tally.count.values + tally.batch.values), d(calls)),
                "values/call");
  results.layer("rt.call_ns_p50", quantile(call_ns, 0.50), "ns");
  results.layer("rt.call_ns_p99", quantile(call_ns, 0.99), "ns");
  results.layer("rt.busy_frac",
                per(d(tally.count.busy_ns + tally.batch.busy_ns), tally.thread_wall_ns), "ratio");
  results.layer("rt.c2c1_est", tally.c2c1, "ratio");
  results.layer("rt.hop_ns_p99", tally.hop_ns_p99, "ns");
  results.layer("rt.batch_mops", rate(batched) / 1e6, "Mcount/s");

  // Def 2.4 per round: every round is its own fresh counter.
  std::uint64_t nonlin = 0;
  std::uint64_t checked = 0;
  for (const Round& r : contended) {
    nonlin += r.nonlin;
    checked += r.checked;
  }
  results.layer("lin.nonlin_frac", per(d(nonlin), d(checked)), "ratio");
  results.layer("lin.check_ns_per_op", per(sum(spans->durations("lin.check")), d(checked)),
                "ns/op");
  results.layer("setup.backend_ms", median(spans->durations("setup.backend")) / 1e6, "ms");
  return results;
}

}  // namespace perfbench
