// Pins psim's output for a fixed seed: the simulator is deterministic, so a
// change to the engine, the memory model, the balancers or the coroutine
// plumbing must reproduce every history bit for bit. Each cell records an
// FNV-1a digest of the run's history and summary together with the number
// of engine events and simulated memory accesses; equal counts show that no
// event was merged or elided, not merely that the histories still agree.
// The pinned values were taken from the engine before its frames were
// pooled and before each balancer hop became one coroutine frame.
#include "psim/machine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include "topo/builders.h"

namespace cnet::psim {
namespace {

struct GoldenCell {
  bool tree;              ///< counting tree with prisms, else bitonic
  std::uint32_t n;        ///< simulated processors
  Cycle wait;             ///< W
  double fraction;        ///< F
  std::uint64_t digest;   ///< FNV-1a of history + summary
  std::uint64_t events;   ///< Engine events fired
  std::uint64_t accesses; ///< simulated memory accesses
};

constexpr std::uint32_t kWidth = 32;  // the Figure 5/6 networks
constexpr std::uint64_t kOps = 300;
constexpr std::uint64_t kSeed = 20260704;

// clang-format off
constexpr GoldenCell kCells[] = {
    {false,   4,    100, 0.25, 0xe2135ef801555207ULL, 33274, 27859},
    {false,   4,    100, 0.50, 0x0f792916fa57c3e3ULL, 34168, 27733},
    {false,   4, 100000, 0.25, 0x71452527fa74cdb0ULL, 32161, 27601},
    {false,   4, 100000, 0.50, 0xcfcf9146cde550ccULL, 32187, 27612},
    {false, 256,    100, 0.25, 0xd6179ceb96e453ccULL, 87468, 77268},
    {false, 256,    100, 0.50, 0x67ad94b5f6e800e8ULL, 90446, 78296},
    {false, 256, 100000, 0.25, 0x1bcbbb095da109c0ULL, 77833, 68548},
    {false, 256, 100000, 0.50, 0x5a22f5630ed9d4fbULL, 76192, 65947},
    {true,    4,    100, 0.25, 0x0ebdc95a39d2aaf7ULL, 38990, 37130},
    {true,    4,    100, 0.50, 0x32364ab71188d3d4ULL, 40001, 37756},
    {true,    4, 100000, 0.25, 0xc0494e2d449e6e55ULL, 39872, 38347},
    {true,    4, 100000, 0.50, 0xb65483c97ff3a27fULL, 39245, 37710},
    {true,  256,    100, 0.25, 0x3249dce2f176aed3ULL, 65694, 62189},
    {true,  256,    100, 0.50, 0xfa82c72cbd56781bULL, 66670, 62530},
    {true,  256, 100000, 0.25, 0x360c7aed97d554bbULL, 66136, 63041},
    {true,  256, 100000, 0.50, 0x5f9a1b7790d018f1ULL, 57986, 54571},
};
// clang-format on

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;
  template <typename T>
  void add(const T& value) {
    const auto* p = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t i = 0; i < sizeof value; ++i) h = (h ^ p[i]) * 1099511628211ULL;
  }
};

std::uint64_t digest(const MachineResult& r) {
  Fnv1a d;
  for (const lin::Operation& op : r.history) {
    d.add(op.start);
    d.add(op.end);
    d.add(op.value);
    d.add(op.actor);
  }
  d.add(r.analysis.nonlinearizable_ops);
  d.add(r.analysis.worst_inversion);
  d.add(r.avg_tog);
  d.add(r.avg_c2_over_c1);
  d.add(r.toggles);
  d.add(r.diffractions);
  d.add(r.makespan);
  return d.h;
}

void PrintTo(const GoldenCell& c, std::ostream* os) {
  *os << (c.tree ? "tree" : "bitonic") << " n=" << c.n << " W=" << c.wait << " F=" << c.fraction;
}

class PsimGolden : public ::testing::TestWithParam<GoldenCell> {};

TEST_P(PsimGolden, HistoryEventsAndAccessesMatchPinnedRun) {
  const GoldenCell& cell = GetParam();
  const topo::Network net =
      cell.tree ? topo::make_counting_tree(kWidth) : topo::make_bitonic(kWidth);
  MachineParams params;
  params.processors = cell.n;
  params.total_ops = kOps;
  params.delayed_fraction = cell.fraction;
  params.wait_cycles = cell.wait;
  params.seed = kSeed;
  params.use_diffraction = cell.tree;
  const MachineResult result = run_workload(net, params);

  char actual[96];
  std::snprintf(actual, sizeof actual, "0x%016llxULL, %llu, %llu",
                static_cast<unsigned long long>(digest(result)),
                static_cast<unsigned long long>(result.events),
                static_cast<unsigned long long>(result.memory_accesses));
  char pinned[96];
  std::snprintf(pinned, sizeof pinned, "0x%016llxULL, %llu, %llu",
                static_cast<unsigned long long>(cell.digest),
                static_cast<unsigned long long>(cell.events),
                static_cast<unsigned long long>(cell.accesses));
  EXPECT_GE(result.history.size(), kOps);
  EXPECT_EQ(std::string(actual), std::string(pinned));
}

std::string cell_name(const ::testing::TestParamInfo<GoldenCell>& info) {
  const GoldenCell& c = info.param;
  return std::string(c.tree ? "Tree" : "Bitonic") + "_n" + std::to_string(c.n) + "_W" +
         std::to_string(c.wait) + "_F" + std::to_string(static_cast<int>(c.fraction * 100));
}

INSTANTIATE_TEST_SUITE_P(Fig56, PsimGolden, ::testing::ValuesIn(kCells), cell_name);

}  // namespace
}  // namespace cnet::psim
