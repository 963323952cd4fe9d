#include "psim/mcs_lock.h"

#include <gtest/gtest.h>

#include <vector>

#include "psim/coro.h"
#include "psim/engine.h"
#include "psim/memory.h"

namespace cnet::psim {
namespace {

TEST(McsLock, UncontendedAcquireRelease) {
  Engine engine;
  Memory mem(engine, MemParams{10, 4});
  McsLock lock(mem, 4);
  bool done = false;
  auto body = [&]() -> Coro<> {
    co_await lock.acquire(0);
    co_await lock.release(0);
    co_await lock.acquire(0);  // reacquirable after release
    co_await lock.release(0);
    done = true;
  };
  auto task = body();  // a named closure: the coroutine reads captures through it
  task.start();
  engine.run();
  EXPECT_TRUE(done);
}

TEST(McsLock, MutualExclusion) {
  Engine engine;
  Memory mem(engine, MemParams{10, 4});
  const std::uint32_t n = 8;
  McsLock lock(mem, n);
  int inside = 0;
  int max_inside = 0;
  std::uint64_t critical_sections = 0;
  auto worker = [&](std::uint32_t proc) -> Coro<> {
    for (int round = 0; round < 20; ++round) {
      co_await lock.acquire(proc);
      ++inside;
      max_inside = std::max(max_inside, inside);
      co_await engine.sleep(3);  // time passes inside the critical section
      ++critical_sections;
      --inside;
      co_await lock.release(proc);
    }
  };
  std::vector<Coro<>> tasks;
  for (std::uint32_t p = 0; p < n; ++p) tasks.push_back(worker(p));
  for (auto& t : tasks) t.start();
  engine.run();
  EXPECT_EQ(max_inside, 1);
  EXPECT_EQ(critical_sections, 160u);
}

TEST(McsLock, LostUpdateFreeCounter) {
  Engine engine;
  Memory mem(engine, MemParams{10, 4});
  const std::uint32_t n = 6;
  McsLock lock(mem, n);
  const std::uint32_t counter = mem.alloc(0);
  auto worker = [&](std::uint32_t proc) -> Coro<> {
    for (int round = 0; round < 25; ++round) {
      co_await lock.acquire(proc);
      const std::uint64_t v = co_await mem.load(counter);
      co_await mem.store(counter, v + 1);  // racy without the lock
      co_await lock.release(proc);
    }
  };
  std::vector<Coro<>> tasks;
  for (std::uint32_t p = 0; p < n; ++p) tasks.push_back(worker(p));
  for (auto& t : tasks) t.start();
  engine.run();
  EXPECT_EQ(mem.peek(counter), 150u);
}

TEST(McsLock, FifoHandoff) {
  // Waiters acquire in the order their swap on the tail was serviced.
  Engine engine;
  Memory mem(engine, MemParams{10, 4});
  McsLock lock(mem, 5);
  std::vector<std::uint32_t> order;
  auto worker = [&](std::uint32_t proc, Cycle delay) -> Coro<> {
    co_await engine.sleep(delay);
    co_await lock.acquire(proc);
    order.push_back(proc);
    co_await engine.sleep(50);  // hold long enough that all others queue
    co_await lock.release(proc);
  };
  std::vector<Coro<>> tasks;
  // Arrival order by delay: 2, 0, 3, 1, 4.
  tasks.push_back(worker(0, 5));
  tasks.push_back(worker(1, 15));
  tasks.push_back(worker(2, 0));
  tasks.push_back(worker(3, 10));
  tasks.push_back(worker(4, 20));
  for (auto& t : tasks) t.start();
  engine.run();
  EXPECT_EQ(order, (std::vector<std::uint32_t>{2, 0, 3, 1, 4}));
}

TEST(McsLock, IndependentLocksDoNotInterfere) {
  Engine engine;
  Memory mem(engine, MemParams{10, 4});
  McsLock lock_a(mem, 2);
  McsLock lock_b(mem, 2);
  Cycle a_done = 0;
  Cycle b_done = 0;
  auto worker = [&](McsLock& lock, Cycle& out) -> Coro<> {
    co_await lock.acquire(0);
    co_await engine.sleep(100);
    co_await lock.release(0);
    out = engine.now();
  };
  std::vector<Coro<>> tasks;
  tasks.push_back(worker(lock_a, a_done));
  tasks.push_back(worker(lock_b, b_done));
  for (auto& t : tasks) t.start();
  engine.run();
  // Both finish around the same time: no cross-lock serialization.
  EXPECT_LT(std::max(a_done, b_done), 250u);
}

}  // namespace
}  // namespace cnet::psim
