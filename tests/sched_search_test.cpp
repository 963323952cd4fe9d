// Adversarial schedule search: the §4 construction yields exactly
// width - 1 on every supported network, the bounded enumerator
// rediscovers it mechanically, the commuting-window pruning and the
// budget cap behave, and the JSON report carries the schedule.
#include "sched/search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "topo/builders.h"

namespace cnet::sched {
namespace {

SearchOptions section4_options(const topo::Network& net) {
  SearchOptions options;
  options.procs = net.output_width() + 1;
  options.ops_per_proc = 1;
  options.max_stalls = 2;
  options.budget = 100000;
  return options;
}

std::uint64_t magnitude(const topo::Network& net, const SearchOptions& options,
                        const std::vector<Placement>& placements) {
  const psim::Script script = make_schedule(net, options, placements);
  psim::MachineParams params;
  params.script = &script;
  params.hop_cycles = options.hop_cycles;
  params.seed = options.seed;
  return psim::run_workload(net, params).analysis.worst_inversion;
}

TEST(SchedSearch, Section4ConstructionYieldsWidthMinusOne) {
  for (const std::uint32_t width : {4u, 8u, 16u}) {
    const topo::Network net = topo::make_bitonic(width);
    const SearchOptions options = section4_options(net);
    EXPECT_EQ(magnitude(net, options, section4_placements(net, options)), width - 1)
        << "bitonic[" << width << "]";
  }
  for (const std::uint32_t width : {4u, 8u}) {
    const topo::Network net = topo::make_counting_tree(width);
    const SearchOptions options = section4_options(net);
    EXPECT_EQ(magnitude(net, options, section4_placements(net, options)), width - 1)
        << "tree[" << width << "]";
  }
}

TEST(SchedSearch, Section4ParksThePortZeroLaneAndDefersTheExtraOne) {
  const topo::Network net = topo::make_bitonic(4);
  const SearchOptions options = section4_options(net);
  const std::vector<Placement> placements = section4_placements(net, options);
  ASSERT_EQ(placements.size(), 2u);
  EXPECT_EQ(placements[0].hop, net.depth());  // pre-counter park
  EXPECT_EQ(placements[1].hop, 0u);           // invocation defer
  EXPECT_EQ(placements[1].proc, net.output_width());
}

TEST(SchedSearch, SearchRediscoversSection4OnBitonic4) {
  const topo::Network net = topo::make_bitonic(4);
  SearchOptions options = section4_options(net);
  options.budget = 2000;
  const SearchResult result = search(net, options);
  EXPECT_EQ(result.best_magnitude, net.output_width() - 1);
  EXPECT_FALSE(result.budget_exhausted);
  // The winning schedule has the §4 shape: one pre-counter park plus one
  // deferred invocation.
  const bool has_park = std::any_of(result.best.begin(), result.best.end(),
                                    [&](const Placement& pl) { return pl.hop == net.depth(); });
  const bool has_defer = std::any_of(result.best.begin(), result.best.end(),
                                     [](const Placement& pl) { return pl.hop == 0; });
  EXPECT_TRUE(has_park);
  EXPECT_TRUE(has_defer);
}

TEST(SchedSearch, SearchIsDeterministic) {
  const topo::Network net = topo::make_bitonic(4);
  SearchOptions options = section4_options(net);
  options.budget = 2000;
  const SearchResult a = search(net, options);
  const SearchResult b = search(net, options);
  EXPECT_EQ(a.best_magnitude, b.best_magnitude);
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.pruned, b.pruned);
  EXPECT_EQ(a.best, b.best);
}

TEST(SchedSearch, PruningCollapsesCommutingPlacements) {
  const topo::Network net = topo::make_bitonic(4);
  SearchOptions options;
  options.procs = 8;
  options.ops_per_proc = 2;
  options.max_stalls = 1;
  options.budget = 100000;
  const SearchResult result = search(net, options);
  EXPECT_GT(result.pruned, 0u);
  // Single placements: base + (procs * ops * (depth + 1) - pruned).
  const std::uint64_t all =
      static_cast<std::uint64_t>(options.procs) * options.ops_per_proc * (net.depth() + 1);
  EXPECT_EQ(result.evaluated, 1 + all - result.pruned);
  // A pruned placement provably cannot beat the base run, so pruning never
  // changes the answer — re-check against an exhaustive evaluation.
  SearchOptions exhaustive = options;
  std::uint64_t best = 0;
  for (std::uint32_t p = 0; p < options.procs; ++p) {
    for (std::uint32_t o = 0; o < options.ops_per_proc; ++o) {
      for (std::uint32_t h = 0; h <= net.depth(); ++h) {
        best = std::max(best, magnitude(net, exhaustive, {Placement{p, o, h}}));
      }
    }
  }
  EXPECT_EQ(result.best_magnitude, best);
}

TEST(SchedSearch, BudgetCapStopsTheSearch) {
  const topo::Network net = topo::make_bitonic(4);
  SearchOptions options = section4_options(net);
  options.budget = 5;
  const SearchResult result = search(net, options);
  EXPECT_TRUE(result.budget_exhausted);
  EXPECT_LE(result.evaluated, 5u);
}

TEST(SchedSearch, MakeScheduleEncodesParksAndDefers) {
  const topo::Network net = topo::make_bitonic(4);
  SearchOptions options;
  options.procs = 2;
  options.ops_per_proc = 2;
  options.stall_cycles = 1000;
  const psim::Script script = make_schedule(
      net, options, {Placement{0, 1, net.depth()}, Placement{1, 0, 0}, Placement{1, 1, 2, 77}});
  ASSERT_EQ(script.procs.size(), 2u);
  ASSERT_EQ(script.procs[0].size(), 2u);
  EXPECT_EQ(script.procs[0][1].stalls[net.depth() - 1], 1000u);
  EXPECT_EQ(script.procs[1][0].defer, 500u);  // defers take half the stall length
  EXPECT_EQ(script.procs[1][1].stalls[1], 77u);  // explicit cycles override
  EXPECT_EQ(script.procs[0][0].defer, 0u);
  EXPECT_TRUE(script.procs[0][0].stalls.empty());
}

TEST(SchedSearch, JsonReportCarriesTheSchedule) {
  const topo::Network net = topo::make_bitonic(4);
  SearchOptions options = section4_options(net);
  options.budget = 2000;
  const SearchResult result = search(net, options);
  const std::string json = result.to_json("psim:bitonic:4");
  EXPECT_NE(json.find("\"spec\": \"psim:bitonic:4\""), std::string::npos);
  EXPECT_NE(json.find("\"magnitude\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"evaluated\""), std::string::npos);
  EXPECT_NE(json.find("\"pruned\""), std::string::npos);
  EXPECT_NE(json.find("\"budget_exhausted\": false"), std::string::npos);
  EXPECT_NE(json.find("\"placements\": [{"), std::string::npos);
  EXPECT_NE(json.find("\"hop\": 0"), std::string::npos);  // the §4 defer
}

}  // namespace
}  // namespace cnet::sched
