// Cross-backend conformance: one seeded workload matrix runs on the
// sim, psim, and rt families purely from spec strings, and every cell
// must satisfy the counting property, the Def 2.2 step property, and
// produce a clean lin::Checker analysis. A final smoke case exercises
// all four families (mp included) through the same Runner.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "run/backend.h"
#include "run/runner.h"

namespace cnet::run {
namespace {

RunReport run_spec(const std::string& spec, const Workload& workload) {
  std::string error;
  auto backend = make_backend(spec, &error);
  EXPECT_NE(backend, nullptr) << spec << " -> " << error;
  if (!backend) return RunReport{};
  Runner runner;
  return runner.run(*backend, workload);
}

void expect_conformant(const RunReport& report, const std::string& spec) {
  ASSERT_TRUE(report.ok) << spec << " -> " << report.error;
  EXPECT_TRUE(report.counting_ok) << spec << ": " << report.counting_message;
  EXPECT_TRUE(report.step_ok) << spec << ": step property violated";
  EXPECT_EQ(report.analysis.total_ops, report.history.size()) << spec;
  EXPECT_GT(report.makespan, 0.0) << spec;
  EXPECT_GT(report.throughput, 0.0) << spec;
}

TEST(RunConformance, SeededMatrixAcrossSimPsimRt) {
  const std::vector<std::string> specs = {
      "sim:bitonic:8",
      "sim:periodic:8?c1=1&c2=3",
      "sim:tree:16?model=fixed&c1=2",
      "psim:balancer:1",
      "psim:bitonic:8",
      "psim:tree:16?diffraction=on",
      "psim:bitonic:8?mcs",
      "rt:bitonic:8",
      "rt:tree:16?diffraction=on",
      "rt:bitonic:8?pad=3",
  };
  Workload workload;
  workload.threads = 4;
  workload.total_ops = 400;
  workload.seed = 2026;
  for (const std::string& spec : specs) {
    SCOPED_TRACE(spec);
    expect_conformant(run_spec(spec, workload), spec);
  }
}

TEST(RunConformance, SameSeededWorkloadOnAllFourFamilies) {
  Workload workload;
  workload.threads = 3;
  workload.total_ops = 150;
  workload.seed = 7;
  for (const std::string spec :
       {"sim:bitonic:4", "psim:bitonic:4", "rt:bitonic:4", "mp:bitonic:4?actors=2"}) {
    SCOPED_TRACE(spec);
    expect_conformant(run_spec(spec, workload), spec);
  }
}

TEST(RunConformance, DelayedFractionMatrix) {
  // The paper's F/W injection: a quarter of issuers stall after every
  // node. Counting and step properties must survive on every family —
  // including mp, where the token message carries the wait and the
  // hosting worker burns it after each balancer transition.
  Workload workload;
  workload.threads = 4;
  workload.total_ops = 200;
  workload.delayed_fraction = 0.25;
  workload.wait = 200;
  workload.seed = 13;
  for (const std::string spec :
       {"sim:bitonic:8", "psim:bitonic:8", "rt:bitonic:8", "mp:bitonic:8?actors=2"}) {
    SCOPED_TRACE(spec);
    expect_conformant(run_spec(spec, workload), spec);
  }
}

TEST(RunConformance, OpenLoopArrivalsOnSimAndRt) {
  Workload poisson;
  poisson.arrival = Arrival::kPoisson;
  poisson.threads = 2;
  poisson.total_ops = 100;
  poisson.seed = 21;

  poisson.rate = 5.0;  // ops per virtual time unit
  expect_conformant(run_spec("sim:bitonic:8", poisson), "sim:bitonic:8 poisson");
  poisson.rate = 2e6;  // ops per second on the live backend
  expect_conformant(run_spec("rt:bitonic:8", poisson), "rt:bitonic:8 poisson");

  Workload burst;
  burst.arrival = Arrival::kBurst;
  burst.threads = 2;
  burst.total_ops = 80;
  burst.burst_size = 4;
  burst.seed = 22;

  burst.burst_gap = 40.0;  // virtual time units
  expect_conformant(run_spec("sim:bitonic:8", burst), "sim:bitonic:8 burst");
  burst.burst_gap = 20000.0;  // ns
  expect_conformant(run_spec("rt:bitonic:8", burst), "rt:bitonic:8 burst");
}

TEST(RunConformance, SimulatedFamiliesAreDeterministicAcrossRuns) {
  Workload workload;
  workload.threads = 4;
  workload.total_ops = 300;
  workload.seed = 42;
  for (const std::string spec : {"sim:bitonic:8?c2=3", "psim:bitonic:8"}) {
    SCOPED_TRACE(spec);
    const RunReport a = run_spec(spec, workload);
    const RunReport b = run_spec(spec, workload);
    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.analysis.nonlinearizable_ops, b.analysis.nonlinearizable_ops);
    EXPECT_EQ(a.analysis.worst_inversion, b.analysis.worst_inversion);
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t i = 0; i < a.history.size(); ++i) {
      EXPECT_EQ(a.history[i].value, b.history[i].value);
    }
  }
}

TEST(RunConformance, RunnerRejectsImpossibleCombinations) {
  Workload workload;
  workload.threads = 0;
  EXPECT_FALSE(run_spec("rt:bitonic:8", workload).ok);

  Workload bad_fraction;
  bad_fraction.threads = 4;
  bad_fraction.delayed_fraction = 1.5;
  EXPECT_FALSE(run_spec("mp:bitonic:4", bad_fraction).ok);

  Workload wide;
  wide.threads = 9;
  const RunReport capped = run_spec("rt:bitonic:8?threads=8", wide);
  EXPECT_FALSE(capped.ok);
  EXPECT_NE(capped.error.find("threads=8"), std::string::npos);

  Workload open;
  open.arrival = Arrival::kPoisson;
  open.rate = 100.0;
  EXPECT_FALSE(run_spec("psim:bitonic:8", open).ok);
}

TEST(RunConformance, ReportRendersAndCarriesMetrics) {
  Workload workload;
  workload.threads = 2;
  workload.total_ops = 100;
  const RunReport report = run_spec("rt:bitonic:8?metrics", workload);
  ASSERT_TRUE(report.ok) << report.error;
  const std::string text = report.to_text();
  EXPECT_NE(text.find("rt:bitonic:8?metrics"), std::string::npos);
  EXPECT_NE(text.find("step property ok"), std::string::npos);
#if CNET_OBS
  EXPECT_FALSE(report.metrics.counters.empty());
  EXPECT_GT(report.c2c1_estimate, 0.0);
#endif
}

}  // namespace
}  // namespace cnet::run
