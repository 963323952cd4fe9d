#include "psim/engine.h"

#include <gtest/gtest.h>

#include <vector>

#include "psim/coro.h"

namespace cnet::psim {
namespace {

TEST(Engine, SleepAdvancesClock) {
  Engine engine;
  std::vector<Cycle> wakeups;
  auto body = [&]() -> Coro<> {
    co_await engine.sleep(10);
    wakeups.push_back(engine.now());
    co_await engine.sleep(5);
    wakeups.push_back(engine.now());
  };
  auto task = body();  // a named closure: the coroutine reads captures through it
  task.start();
  engine.run();
  EXPECT_TRUE(task.done());
  EXPECT_EQ(wakeups, (std::vector<Cycle>{10, 15}));
}

TEST(Engine, SleepZeroDoesNotSuspend) {
  Engine engine;
  bool ran = false;
  auto body = [&]() -> Coro<> {
    co_await engine.sleep(0);
    ran = true;
  };
  auto task = body();
  task.start();
  // No engine.run() needed: sleep(0) continues inline.
  EXPECT_TRUE(ran);
  EXPECT_TRUE(task.done());
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  auto sleeper = [&](Cycle dt, int id) -> Coro<> {
    co_await engine.sleep(dt);
    order.push_back(id);
  };
  std::vector<Coro<>> tasks;
  tasks.push_back(sleeper(30, 3));
  tasks.push_back(sleeper(10, 1));
  tasks.push_back(sleeper(20, 2));
  for (auto& t : tasks) t.start();
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, TiesBreakByScheduleOrder) {
  Engine engine;
  std::vector<int> order;
  auto sleeper = [&](int id) -> Coro<> {
    co_await engine.sleep(7);
    order.push_back(id);
  };
  std::vector<Coro<>> tasks;
  for (int i = 0; i < 5; ++i) tasks.push_back(sleeper(i));
  for (auto& t : tasks) t.start();
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, NestedCoroutinesComposeViaSymmetricTransfer) {
  Engine engine;
  std::vector<std::string> trace;

  struct Helper {
    Engine& engine;
    std::vector<std::string>& trace;

    Coro<std::uint64_t> inner() {
      trace.push_back("inner-start");
      co_await engine.sleep(3);
      trace.push_back("inner-end");
      co_return 42;
    }
    Coro<std::uint64_t> middle() {
      trace.push_back("middle-start");
      const std::uint64_t v = co_await inner();
      trace.push_back("middle-end");
      co_return v * 2;
    }
  } helper{engine, trace};

  std::uint64_t result = 0;
  auto body = [&]() -> Coro<> {
    result = co_await helper.middle();
    trace.push_back("outer-end");
  };
  auto task = body();
  task.start();
  engine.run();
  EXPECT_EQ(result, 84u);
  EXPECT_EQ(trace, (std::vector<std::string>{"middle-start", "inner-start", "inner-end",
                                             "middle-end", "outer-end"}));
}

TEST(Engine, DeterministicEventCount) {
  auto run_once = [] {
    Engine engine;
    auto spin = [&](int rounds) -> Coro<> {
      for (int i = 0; i < rounds; ++i) co_await engine.sleep(2);
    };
    std::vector<Coro<>> tasks;
    for (int i = 1; i <= 4; ++i) tasks.push_back(spin(i * 3));
    for (auto& t : tasks) t.start();
    engine.run();
    return engine.events_processed();
  };
  const std::uint64_t first = run_once();
  EXPECT_EQ(first, run_once());
  EXPECT_EQ(first, 3u + 6u + 9u + 12u);
}

TEST(EngineDeath, SchedulingIntoThePast) {
  Engine engine;
  auto body = [&]() -> Coro<> { co_await engine.sleep(100); };
  auto task = body();
  task.start();
  engine.run();
  EXPECT_EQ(engine.now(), 100u);
  auto h = std::noop_coroutine();
  EXPECT_DEATH(engine.schedule(h, 50), "past");
}

}  // namespace
}  // namespace cnet::psim
