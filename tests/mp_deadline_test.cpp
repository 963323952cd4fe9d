// Deadline-bounded mp operations: count_until's cancellation race, the
// parked-ticket recycling that preserves the counting property across
// abandonments, the quiescence drain, and the abandoned-cell donation path
// through the process arena — on both engines (the futex CAS protocol and
// the locked oracle's cancelled_ flag must be observationally identical).
#include "mp/network_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "fault/injector.h"
#include "fault/plan.h"
#include "mp/response_cell.h"
#include "topo/builders.h"

namespace cnet::mp {
namespace {

constexpr std::uint64_t kLongDrainNs = 20'000'000'000;  // far past any stall

std::string engine_name(const ::testing::TestParamInfo<Engine>& info) {
  return info.param == Engine::kLockFree ? "lockfree" : "locked";
}

fault::FaultPlan plan_or_die(const char* text) {
  fault::FaultPlan plan;
  std::string error;
  EXPECT_TRUE(fault::parse_fault_plan(text, &plan, &error)) << error;
  return plan;
}

class MpDeadline : public ::testing::TestWithParam<Engine> {};

TEST_P(MpDeadline, GenerousDeadlineCompletesNormally) {
  const topo::Network net = topo::make_bitonic(4);
  NetworkService service(net, {.workers = 2, .engine = GetParam()});
  topo::SequentialRouter reference(net);
  for (int i = 0; i < 100; ++i) {
    const auto input = static_cast<std::uint32_t>(i % 4);
    // Generous = never fires even on an oversubscribed CI box: a 1 s
    // deadline has been seen expiring under parallel-test load.
    const NetworkService::TimedCount result =
        service.count_until(input, 0, /*timeout_ns=*/kLongDrainNs);
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(result.value, reference.next_value(input));
  }
  // Quiesce before reading in_flight: a counter actor decrements it after
  // delivering, so the client can wake while its token is still counted.
  ASSERT_TRUE(service.drain(kLongDrainNs).quiescent);
  const NetworkService::RobustnessStats stats = service.robustness_stats();
  EXPECT_EQ(stats.deadline_timeouts, 0u);
  EXPECT_EQ(stats.values_parked, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
}

TEST_P(MpDeadline, TimeoutParksTheOrphanedValue) {
  const topo::Network net = topo::make_bitonic(4);
  // Every hop stalls 5 ms: a token needs >= depth * 5 ms, so a 100 us
  // deadline reliably abandons while the token is still mid-network (with
  // margin to spare against the waiter being descheduled under load).
  fault::Injector injector(plan_or_die("stall:1:5000000"));
  NetworkService service(net, {.workers = 2, .engine = GetParam(), .fault = &injector});
  const NetworkService::TimedCount result = service.count_until(0, 0, /*timeout_ns=*/100'000);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(service.robustness_stats().deadline_timeouts, 1u);

  const NetworkService::DrainReport drained = service.drain(kLongDrainNs);
  EXPECT_TRUE(drained.quiescent);
  EXPECT_EQ(drained.strays, 0u);
  const NetworkService::RobustnessStats stats = service.robustness_stats();
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.values_parked, 1u);
  EXPECT_EQ(stats.parked_now, 1u);

  const std::vector<std::uint64_t> parked = service.take_parked();
  ASSERT_EQ(parked.size(), 1u);
  EXPECT_EQ(parked[0], 0u);  // the only token through a fresh network
  EXPECT_EQ(service.robustness_stats().parked_now, 0u);
}

TEST_P(MpDeadline, ParkedValuesAreRecycledBeforeNewTokens) {
  const topo::Network net = topo::make_bitonic(4);
  // 5 ms per hop: the walk outlives the 50 us deadline even if the waiting
  // thread is descheduled for several ms before its first slot check (a
  // 300 us stall flaked exactly that way under a parallel test load).
  fault::Injector injector(plan_or_die("stall:1:5000000"));
  NetworkService service(net, {.workers = 2, .engine = GetParam(), .fault = &injector});
  ASSERT_FALSE(service.count_until(0, 0, /*timeout_ns=*/50'000).ok);
  ASSERT_TRUE(service.drain(kLongDrainNs).quiescent);  // value 0 is parked now

  // The next operation recycles the orphan instead of issuing a token; the
  // counting property holds across the abandonment.
  EXPECT_EQ(service.count(1), 0u);
  EXPECT_EQ(service.robustness_stats().values_reclaimed, 1u);
  EXPECT_EQ(service.robustness_stats().parked_now, 0u);
  EXPECT_EQ(service.count(2), 1u);  // fresh tokens resume the sequence
}

TEST_P(MpDeadline, DrainReportsStraysAtItsDeadline) {
  const topo::Network net = topo::make_bitonic(4);
  // 50 ms per hop: the token outlives a 5 ms drain deadline by construction.
  fault::Injector injector(plan_or_die("stall:1:50000000"));
  NetworkService service(net, {.workers = 2, .engine = GetParam(), .fault = &injector});
  ASSERT_FALSE(service.count_until(0, 0, /*timeout_ns=*/100'000).ok);

  const NetworkService::DrainReport early = service.drain(5'000'000);
  EXPECT_FALSE(early.quiescent);
  EXPECT_EQ(early.strays, 1u);
  EXPECT_GE(early.waited_ns, 5'000'000u);

  const NetworkService::DrainReport late = service.drain(kLongDrainNs);
  EXPECT_TRUE(late.quiescent);
  EXPECT_EQ(service.take_parked().size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Engines, MpDeadline,
                         ::testing::Values(Engine::kLockFree, Engine::kLocked), engine_name);

TEST(MpDeadlineCells, AbandonedCellsAreDonatedAndReadopted) {
  const topo::Network net = topo::make_bitonic(4);
  fault::Injector injector(plan_or_die("stall:1:5000000"));
  NetworkService service(net, {.workers = 2, .engine = Engine::kLockFree, .fault = &injector});
  const ResponseCellCache::ArenaStats before = ResponseCellCache::arena_stats();

  // The abandoning client runs (and exits) on its own thread so its cell
  // cannot come back through a thread-local free list — only through the
  // arena, donated by the late completer.
  std::jthread([&service] {
    EXPECT_FALSE(service.count_until(0, 0, /*timeout_ns=*/100'000).ok);
  }).join();
  ASSERT_TRUE(service.drain(kLongDrainNs).quiescent);
  while (ResponseCellCache::arena_stats().orphan_donations == before.orphan_donations) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));  // late notify in flight
  }
  EXPECT_EQ(ResponseCellCache::arena_stats().orphan_donations, before.orphan_donations + 1);

  // A fresh thread must adopt the donated cell instead of constructing one.
  // Its first operation recycles the parked value without a cell; the
  // second issues a real token and needs one.
  const std::uint64_t created = ResponseCellCache::cells_created();
  const std::uint64_t adoptions = ResponseCellCache::arena_stats().adoptions;
  std::jthread([&service] {
    EXPECT_EQ(service.count(1), 0u);  // the orphaned value comes back first
    EXPECT_EQ(service.count(2), 1u);  // fresh token: acquires (adopts) a cell
  }).join();
  EXPECT_EQ(ResponseCellCache::cells_created(), created)
      << "abandonment leaked the cell: a later thread had to construct a fresh one";
  EXPECT_GT(ResponseCellCache::arena_stats().adoptions, adoptions);
}

TEST(MpDeadlineChaos, HistoryPlusParkedIsExactlyTheIssuedRange) {
  const topo::Network net = topo::make_bitonic(8);
  fault::Injector injector(plan_or_die("stall:0.5:300000,seed:13"));
  NetworkService service(net, {.workers = 3, .engine = Engine::kLockFree, .fault = &injector});
  constexpr unsigned kClients = 4;
  constexpr int kPerClient = 50;
  std::vector<std::vector<std::uint64_t>> kept(kClients);
  {
    std::vector<std::jthread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
      clients.emplace_back([&service, &mine = kept[c], c] {
        for (int i = 0; i < kPerClient; ++i) {
          const NetworkService::TimedCount result =
              service.count_until(c % 8, 0, /*timeout_ns=*/100'000);
          if (result.ok) mine.push_back(result.value);
        }
      });
    }
  }
  ASSERT_TRUE(service.drain(kLongDrainNs).quiescent);
  const NetworkService::RobustnessStats stats = service.robustness_stats();
  EXPECT_EQ(stats.in_flight, 0u);
  // Every value ever parked was either recycled to a client or still sits
  // in the buffer (about to be taken below).
  EXPECT_EQ(stats.values_parked, stats.values_reclaimed + stats.parked_now);

  std::vector<std::uint64_t> all = service.take_parked();
  for (const auto& mine : kept) all.insert(all.end(), mine.begin(), mine.end());
  std::sort(all.begin(), all.end());
  // Ops that recycled a parked value issued no token, so the union is the
  // contiguous range of whatever WAS issued — no holes, no duplicates.
  for (std::uint64_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i], i) << "counting property broken across abandonments";
  }
}

}  // namespace
}  // namespace cnet::mp
