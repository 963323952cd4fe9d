#include "psim/balancer.h"

#include <gtest/gtest.h>

#include <vector>

#include "psim/coro.h"

namespace cnet::psim {
namespace {

TEST(McsToggleBalancer, AlternatesSequentially) {
  Engine engine;
  Memory mem(engine, MemParams{10, 4});
  McsToggleBalancer balancer(engine, mem, 1, 2);
  Rng rng(1);
  std::vector<std::uint32_t> ports;
  auto body = [&]() -> Coro<> {
    for (int i = 0; i < 6; ++i) ports.push_back(co_await balancer.traverse(0, rng));
  };
  auto task = body();  // a named closure: the coroutine reads captures through it
  task.start();
  engine.run();
  EXPECT_EQ(ports, (std::vector<std::uint32_t>{0, 1, 0, 1, 0, 1}));
  EXPECT_EQ(balancer.stats().toggles, 6u);
  EXPECT_EQ(balancer.stats().diffractions, 0u);
}

TEST(McsToggleBalancer, WiderFanOutRoundRobins) {
  Engine engine;
  Memory mem(engine, MemParams{10, 4});
  McsToggleBalancer balancer(engine, mem, 1, 4);
  Rng rng(1);
  std::vector<std::uint32_t> ports;
  auto body = [&]() -> Coro<> {
    for (int i = 0; i < 8; ++i) ports.push_back(co_await balancer.traverse(0, rng));
  };
  auto task = body();
  task.start();
  engine.run();
  EXPECT_EQ(ports, (std::vector<std::uint32_t>{0, 1, 2, 3, 0, 1, 2, 3}));
}

TEST(McsToggleBalancer, StepPropertyUnderConcurrency) {
  Engine engine;
  Memory mem(engine, MemParams{10, 4});
  const std::uint32_t n = 16;
  McsToggleBalancer balancer(engine, mem, n, 2);
  std::vector<std::uint64_t> exits(2, 0);
  auto worker = [&](std::uint32_t proc) -> Coro<> {
    Rng rng(proc);
    for (int i = 0; i < 25; ++i) {
      const std::uint32_t port = co_await balancer.traverse(proc, rng);
      ++exits[port];
    }
  };
  std::vector<Coro<>> tasks;
  for (std::uint32_t p = 0; p < n; ++p) tasks.push_back(worker(p));
  for (auto& t : tasks) t.start();
  engine.run();
  EXPECT_EQ(exits[0] + exits[1], 400u);
  EXPECT_EQ(exits[0], exits[1]);  // even total -> perfectly balanced
}

TEST(McsToggleBalancer, TogWaitRecorded) {
  Engine engine;
  Memory mem(engine, MemParams{10, 4});
  McsToggleBalancer balancer(engine, mem, 2, 2);
  auto worker = [&](std::uint32_t proc) -> Coro<> {
    Rng rng(proc);
    co_await balancer.traverse(proc, rng);
  };
  std::vector<Coro<>> tasks;
  tasks.push_back(worker(0));
  tasks.push_back(worker(1));
  for (auto& t : tasks) t.start();
  engine.run();
  EXPECT_EQ(balancer.stats().tog_wait.count(), 2u);
  EXPECT_GT(balancer.stats().tog_wait.mean(), 0.0);
  // The second proc queued behind the first: its wait exceeds the min.
  EXPECT_GT(balancer.stats().tog_wait.max(), balancer.stats().tog_wait.min());
}

class DiffractingParams : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DiffractingParams, BalancesUnderConcurrency) {
  const std::uint32_t n = GetParam();
  Engine engine;
  Memory mem(engine, MemParams{10, 4});
  PrismParams prism;
  prism.width = 4;
  prism.spin = 200;
  DiffractingBalancer balancer(engine, mem, n, prism);
  std::vector<std::uint64_t> exits(2, 0);
  const int per_proc = 30;
  auto worker = [&](std::uint32_t proc) -> Coro<> {
    Rng rng(proc + 100);
    for (int i = 0; i < per_proc; ++i) {
      const std::uint32_t port = co_await balancer.traverse(proc, rng);
      ++exits[port];
    }
  };
  std::vector<Coro<>> tasks;
  for (std::uint32_t p = 0; p < n; ++p) tasks.push_back(worker(p));
  for (auto& t : tasks) t.start();
  engine.run();
  const std::uint64_t total = exits[0] + exits[1];
  EXPECT_EQ(total, static_cast<std::uint64_t>(n) * per_proc);
  // Quiescent step property: outputs differ by at most 1... and with an even
  // total they must be equal.
  const std::uint64_t diff = exits[0] > exits[1] ? exits[0] - exits[1] : exits[1] - exits[0];
  EXPECT_LE(diff, total % 2 == 0 ? 0u : 1u);
  EXPECT_EQ(balancer.stats().toggles + balancer.stats().diffractions, total);
}

INSTANTIATE_TEST_SUITE_P(Concurrency, DiffractingParams, ::testing::Values(1u, 2u, 8u, 32u));

TEST(DiffractingBalancer, PairsUnderHighTraffic) {
  Engine engine;
  Memory mem(engine, MemParams{10, 4});
  PrismParams prism;
  prism.width = 2;
  prism.spin = 500;
  DiffractingBalancer balancer(engine, mem, 16, prism);
  auto worker = [&](std::uint32_t proc) -> Coro<> {
    Rng rng(proc);
    for (int i = 0; i < 20; ++i) co_await balancer.traverse(proc, rng);
  };
  std::vector<Coro<>> tasks;
  for (std::uint32_t p = 0; p < 16; ++p) tasks.push_back(worker(p));
  for (auto& t : tasks) t.start();
  engine.run();
  EXPECT_GT(balancer.stats().diffractions, 0u);
  // Diffractions come in pairs by construction: both partners count one.
  EXPECT_EQ(balancer.stats().diffractions % 2, 0u);
}

TEST(DiffractingBalancer, LoneTokenFallsToToggle) {
  Engine engine;
  Memory mem(engine, MemParams{10, 4});
  PrismParams prism;
  prism.width = 2;
  prism.spin = 100;
  DiffractingBalancer balancer(engine, mem, 1, prism);
  std::uint32_t port = 9;
  auto body = [&]() -> Coro<> {
    Rng rng(5);
    port = co_await balancer.traverse(0, rng);
  };
  auto task = body();
  task.start();
  engine.run();
  EXPECT_EQ(port, 0u);  // first toggle goes up
  EXPECT_EQ(balancer.stats().toggles, 1u);
  EXPECT_EQ(balancer.stats().diffractions, 0u);
  // Tog includes the wasted camping window.
  EXPECT_GE(balancer.stats().tog_wait.mean(), 100.0);
}

}  // namespace
}  // namespace cnet::psim
