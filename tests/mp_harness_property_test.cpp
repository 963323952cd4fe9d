// History-level properties of the mp backend under the run harness: every
// seeded workload cell yields the counting property (values 0..n-1 exactly
// once), the Def 2.2 step property, and an internally consistent
// lin::Checker analysis; a single client's sequential history is
// linearizable.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lin/checker.h"
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

void expect_properties(const std::string& spec, const Workload& workload) {
  SCOPED_TRACE(spec);
  const RunReport report = run_spec(spec, workload);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_TRUE(report.counting_ok) << report.counting_message;
  EXPECT_TRUE(report.step_ok) << "step property violated";
  EXPECT_EQ(report.analysis.total_ops, report.history.size());
  // The checker's Def 2.4 analysis ran over the full history; a counting
  // network is not linearizable in general, but the analysis must be
  // internally consistent.
  EXPECT_LE(report.analysis.nonlinearizable_ops, report.analysis.total_ops);
}

TEST(MpHarnessProperties, SeededClosedLoopMatrix) {
  const std::vector<std::string> specs = {
      "mp:bitonic:4?actors=1",
      "mp:bitonic:8?actors=2",
      "mp:periodic:8?actors=3",
      "mp:tree:16?actors=2",
      "mp:balancer:4?actors=2",
  };
  Workload workload;
  workload.threads = 4;
  workload.total_ops = 400;
  workload.seed = 2026;
  for (const std::string& spec : specs) {
    expect_properties(spec, workload);
  }
}

TEST(MpHarnessProperties, ThreadCountSweep) {
  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    Workload workload;
    workload.threads = threads;
    workload.total_ops = 200 * threads;
    workload.seed = 7 + threads;
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_properties("mp:bitonic:8?actors=2", workload);
  }
}

TEST(MpHarnessProperties, DelayedWorkloadAccepted) {
  // The paper's F/W scheme reaches mp: the token message carries the wait.
  // The backend must accept the workload and keep the properties.
  Workload workload;
  workload.threads = 4;
  workload.total_ops = 200;
  workload.delayed_fraction = 0.5;
  workload.wait = 500;  // ns per node hop for the delayed half
  workload.seed = 13;
  expect_properties("mp:bitonic:8?actors=2", workload);
}

TEST(MpHarnessProperties, BatchedWorkload) {
  Workload workload;
  workload.threads = 3;
  workload.total_ops = 300;
  workload.batch = 4;  // mp has no native batch: falls back to count() loops
  workload.seed = 99;
  expect_properties("mp:tree:8?actors=2", workload);
}

TEST(MpHarnessProperties, SequentialHistoriesAreLinearizable) {
  // One thread: the history is sequential, so the checker must report zero
  // nonlinearizable operations (any inversion would be a runtime reordering
  // bug, not a counting-network artifact).
  Workload workload;
  workload.threads = 1;
  workload.total_ops = 300;
  workload.seed = 5;
  const RunReport report = run_spec("mp:bitonic:8?actors=2", workload);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_TRUE(report.counting_ok);
  EXPECT_EQ(report.analysis.nonlinearizable_ops, 0u);
}

}  // namespace
}  // namespace cnet::run
