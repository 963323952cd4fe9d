// Unit tests of the benchmark's own machinery: the generator's schedule is
// the repo's open-loop schedule, the tracing decorator hands back exactly
// what the backend returns, self time is derived correctly, and one short
// generator phase against a live server is served and checkable.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "loadgen.h"
#include "run/backend.h"
#include "run/runner.h"
#include "run/workload.h"
#include "spans.h"
#include "svc/server.h"
#include "tracing_backend.h"

namespace perfbench {
namespace {

namespace run = cnet::run;

TEST(Schedule, EqualsIssuerSeedsAndOpenLoopPacer) {
  const double rate = 50000.0;
  const double seconds = 0.5;
  const std::uint64_t seed = 42;
  const Schedule streams = make_schedule(rate, seconds, seed, 4);
  run::Workload workload;
  workload.arrival = run::Arrival::kPoisson;
  workload.threads = 4;
  workload.rate = rate;
  const std::vector<std::uint64_t> quotas = run::issuer_quotas(25000, 4);
  const std::vector<std::uint64_t> seeds = run::issuer_seeds(seed, 4);
  ASSERT_EQ(streams.size(), 4u);
  for (std::size_t c = 0; c < 4; ++c) {
    run::OpenLoopPacer pacer(workload, seeds[c]);
    EXPECT_EQ(streams[c], pacer.schedule(quotas[c])) << "stream " << c;
  }
  // Same inputs, same schedule; another seed, another one.
  EXPECT_EQ(make_schedule(rate, seconds, seed, 4), streams);
  EXPECT_NE(make_schedule(rate, seconds, seed + 1, 4), streams);
}

TEST(TracingBackend, ReturnsTheBackendsValuesUnchanged) {
  // Single-threaded rt is deterministic, so a wrapped and a bare backend fed
  // the same calls must hand out the same values.
  const auto bare = run::make_backend(run::parse_spec_or_die("rt:bitonic:8"));
  const auto inner = run::make_backend(run::parse_spec_or_die("rt:bitonic:8"));
  SpanBuffer spans;
  TracingBackend traced(*inner, spans, 4);
  for (std::uint32_t i = 0; i < 50; ++i) EXPECT_EQ(traced.count(i % 8), bare->count(i % 8));
  std::vector<std::uint64_t> a(16);
  std::vector<std::uint64_t> b(16);
  traced.count_batch(3, a);
  bare->count_batch(3, b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(traced.totals(TracingBackend::Call::kCount).calls, 50u);
  EXPECT_EQ(traced.totals(TracingBackend::Call::kCountBatch).values, 16u);
  EXPECT_EQ(spans.durations("rt.count").size(), 13u);  // every 4th of 50 calls
  EXPECT_EQ(traced.network().output_width(), bare->network().output_width());
}

TEST(TracingBackend, ForwardsAsyncAndSimulatedCalls) {
  const auto inner = run::make_backend(run::parse_spec_or_die("mp:tree:8?actors=2"));
  SpanBuffer spans;
  TracingBackend traced(*inner, spans, 1);
  ASSERT_TRUE(traced.supports_async_count());
  std::vector<run::CountingBackend::PendingCount> pending;
  for (std::uint32_t i = 0; i < 32; ++i) pending.push_back(traced.count_begin(i % 8, 0));
  std::vector<std::uint64_t> values;
  for (const auto& p : pending) values.push_back(traced.count_collect(p));
  std::sort(values.begin(), values.end());
  for (std::uint64_t i = 0; i < values.size(); ++i) EXPECT_EQ(values[i], i);
  EXPECT_TRUE(traced.drain(1'000'000'000).quiescent);
  // begin and collect of one operation share a trace id.
  std::size_t linked = 0;
  const std::vector<Span> all = spans.spans();
  for (const Span& begin : all) {
    if (std::string(begin.name) != "mp.count_begin") continue;
    linked += static_cast<std::size_t>(std::count_if(all.begin(), all.end(), [&](const Span& s) {
      return std::string(s.name) == "mp.count_collect" && s.trace == begin.trace;
    }));
  }
  EXPECT_EQ(linked, 32u);

  run::Workload workload;
  workload.threads = 8;
  workload.total_ops = 500;
  const auto bare_psim = run::make_backend(run::parse_spec_or_die("psim:bitonic:8"));
  const auto inner_psim = run::make_backend(run::parse_spec_or_die("psim:bitonic:8"));
  TracingBackend traced_psim(*inner_psim, spans, 1);
  const run::SimulatedRun x = bare_psim->simulate(workload);
  const run::SimulatedRun y = traced_psim.simulate(workload);
  ASSERT_EQ(x.history.size(), y.history.size());
  for (std::size_t i = 0; i < x.history.size(); ++i) {
    EXPECT_EQ(x.history[i].value, y.history[i].value);
    EXPECT_EQ(x.history[i].start, y.history[i].start);
    EXPECT_EQ(x.history[i].end, y.history[i].end);
  }
  EXPECT_EQ(x.makespan, y.makespan);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  SpanBuffer spans;
  spans.record({"parent", 1, 1, 0, 0, 100});
  spans.record({"child", 1, 2, 1, 10, 30});
  spans.record({"child", 1, 3, 1, 20, 50});   // overlaps the first child
  spans.record({"child", 1, 4, 1, 90, 120});  // runs past the parent's end
  for (const auto& entry : spans.self_times()) {
    if (entry.name == "parent") {
      EXPECT_EQ(entry.total_ns, 100.0);
      EXPECT_EQ(entry.self_ns, 50.0);  // 100 - [10,50) - [90,100)
    } else {
      EXPECT_EQ(entry.count, 3u);
      EXPECT_EQ(entry.self_ns, 20.0 + 30.0 + 30.0);
    }
  }
}

TEST(Spans, ScopedSpansNestIntoOneTrace) {
  SpanBuffer spans;
  {
    ScopedSpan outer(&spans, "outer");
    ScopedSpan inner(&spans, "inner");
  }
  { ScopedSpan off(nullptr, "off"); }
  const std::vector<Span> all = spans.spans();
  ASSERT_EQ(all.size(), 2u);
  const Span& inner = std::string(all[0].name) == "inner" ? all[0] : all[1];
  const Span& outer = std::string(all[0].name) == "outer" ? all[0] : all[1];
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(inner.trace, outer.trace);
  EXPECT_EQ(outer.parent, 0u);
}

TEST(Generator, ServesAShortPhaseFromItsDueTimes) {
  const auto backend = run::make_backend(run::parse_spec_or_die("rt:bitonic:8?threads=8"));
  cnet::svc::ServerOptions options;
  options.loops = 2;
  cnet::svc::Server server(*backend, options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  std::vector<std::unique_ptr<cnet::svc::Client>> conns;
  for (int i = 0; i < 4; ++i) {
    conns.push_back(std::make_unique<cnet::svc::Client>());
    ASSERT_TRUE(conns.back()->connect("127.0.0.1", server.port(), &error)) << error;
  }
  const Schedule schedule = make_schedule(5000.0, 0.2, 7, 4);
  const PhaseResult r = run_phase(conns, schedule, 2.0, true, nullptr, 1);
  EXPECT_EQ(r.sent, 1000u);
  EXPECT_EQ(r.ok, 1000u);
  EXPECT_EQ(r.failed(), 0u);
  EXPECT_EQ(r.latency_us.size(), 1000u);
  EXPECT_EQ(r.lag_us.size(), 1000u);
  EXPECT_EQ(r.history.size(), 1000u);
  EXPECT_GT(r.writes, 0u);
  EXPECT_LE(r.writes, 1000u);
  std::vector<std::uint64_t> values = r.values;
  std::sort(values.begin(), values.end());
  for (std::uint64_t i = 0; i < values.size(); ++i) ASSERT_EQ(values[i], i);
  for (double lag : r.lag_us) EXPECT_GE(lag, 0.0);  // never sent before due
  for (auto& conn : conns) conn->close();
  server.stop();
}

}  // namespace
}  // namespace perfbench
