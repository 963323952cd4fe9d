// The bucketed timing wheel (psim::Engine) must replay a binary heap's
// (cycle, seq) firing order bit-for-bit — psim determinism (identical
// figures for identical seeds) depends on it. HeapEngine below is the
// original heap implementation, kept here as the reference model; these
// tests drive both engines through identical randomized schedules and
// compare traces.
#include "psim/engine.h"

#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <queue>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "psim/coro.h"
#include "util/assert.h"
#include "util/rng.h"

namespace cnet::psim {
namespace {

/// Reference event engine: a binary heap over (cycle, seq). Same contract
/// as psim::Engine — single-threaded, events fire in (cycle, sequence)
/// order, sleep(0) continues without touching the queue.
class HeapEngine {
 public:
  Cycle now() const { return now_; }

  void schedule(std::coroutine_handle<> h, Cycle at) {
    CNET_CHECK_MSG(at >= now_, "cannot schedule into the simulated past");
    queue_.push(Event{at, next_seq_++, h});
  }

  void run() {
    while (!queue_.empty()) {
      const Event ev = queue_.top();
      queue_.pop();
      now_ = ev.at;
      ev.handle.resume();
    }
  }

  std::uint64_t events_processed() const { return next_seq_; }

  auto sleep(Cycle dt) {
    struct Awaiter {
      HeapEngine& engine;
      Cycle dt;
      bool await_ready() const noexcept { return dt == 0; }
      void await_suspend(std::coroutine_handle<> h) const {
        engine.schedule(h, engine.now_ + dt);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, dt};
  }

 private:
  struct Event {
    Cycle at;
    std::uint64_t seq;
    std::coroutine_handle<> handle;
  };
  struct After {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  Cycle now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, After> queue_;
};

/// One firing: (cycle, chain id, step index within the chain).
using Trace = std::vector<std::tuple<Cycle, int, int>>;

/// A chain coroutine sleeps through `delays` in order, recording each wakeup.
template <class EngineT>
Coro<> chain(EngineT& engine, Trace& trace, int id, const std::vector<Cycle>& delays) {
  for (int step = 0; step < static_cast<int>(delays.size()); ++step) {
    co_await engine.sleep(delays[step]);
    trace.emplace_back(engine.now(), id, step);
  }
}

template <class EngineT>
Trace run_chains(const std::vector<std::vector<Cycle>>& workload) {
  EngineT engine;
  Trace trace;
  std::vector<Coro<>> tasks;
  tasks.reserve(workload.size());
  for (int id = 0; id < static_cast<int>(workload.size()); ++id) {
    tasks.push_back(chain(engine, trace, id, workload[id]));
  }
  for (auto& t : tasks) t.start();
  engine.run();
  return trace;
}

std::vector<std::vector<Cycle>> random_workload(std::uint64_t seed, int chains, int steps,
                                                Cycle max_delay) {
  Rng rng(seed);
  std::vector<std::vector<Cycle>> workload(chains);
  for (auto& delays : workload) {
    delays.reserve(steps);
    for (int s = 0; s < steps; ++s) {
      // Bimodal like the §5 workloads: mostly short hops, occasionally huge
      // waits; include 0 (inline continue) and exact-tie candidates.
      const std::uint64_t pick = rng.below(100);
      if (pick < 10) {
        delays.push_back(0);
      } else if (pick < 75) {
        delays.push_back(rng.below(64));
      } else if (pick < 95) {
        delays.push_back(rng.below(max_delay));
      } else {
        delays.push_back(max_delay - rng.below(16));  // cluster => cross-chain ties
      }
    }
  }
  return workload;
}

TEST(EngineWheel, ReplaysHeapOrderOnRandomizedSchedules) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto workload = random_workload(seed, 48, 40, 100000);
    EXPECT_EQ(run_chains<Engine>(workload), run_chains<HeapEngine>(workload));
  }
}

TEST(EngineWheel, ReplaysHeapOrderAcrossCascadeBoundaries) {
  // Delays straddling the wheel's slot/level boundaries (256, 65536, 2^24)
  // force cascades; the heap has no such boundaries, so agreement means the
  // cascade path preserves (cycle, seq).
  std::vector<std::vector<Cycle>> workload;
  for (const Cycle base : {Cycle{255}, Cycle{256}, Cycle{257}, Cycle{65535}, Cycle{65536},
                           Cycle{1u << 24}, (Cycle{1} << 24) + 1}) {
    workload.push_back({base, 1, 255, base, 256});
    workload.push_back({base, 0, base, 65536, 3});
  }
  EXPECT_EQ(run_chains<Engine>(workload), run_chains<HeapEngine>(workload));
}

TEST(EngineWheel, ReplaysHeapOrderBeyondTheHorizon) {
  // Delays past the 2^32-cycle wheel horizon park in the overflow list and
  // must still interleave correctly with near events.
  const Cycle huge = (Cycle{1} << 33) + 12345;
  std::vector<std::vector<Cycle>> workload = {
      {huge, 7, 3},
      {10, huge, 10},
      {(Cycle{1} << 32), 1},
      {5, 100000, (Cycle{1} << 34)},
      {huge, huge},
  };
  EXPECT_EQ(run_chains<Engine>(workload), run_chains<HeapEngine>(workload));
}

TEST(EngineWheel, ReplaysHeapOrderAtStallDebitScale) {
  // The schedule search's park/defer debits (sched/search.h) mix ~2^20-cycle
  // sleeps with ~4-cycle hop costs in one run; the wheel must keep the heap's
  // (cycle, seq) order across that 5-orders-of-magnitude spread, including
  // parks that wake at exactly the same cycle a short chain reaches.
  std::vector<std::vector<Cycle>> workload = {
      {4, 4, 4, Cycle{1} << 20, 4},              // a parked token
      {4, 4, 4, 4, 4, 4, 4, 4, 4},               // eager wave
      {(Cycle{1} << 19), 4, 4, 4},               // a deferred invocation
      {(Cycle{1} << 20) + 16, 4},                // ties with the parked wake
      {(Cycle{1} << 22), (Cycle{1} << 21), 4},   // pushed past everything
      {1, 1, 1, (Cycle{1} << 20) + 13, 1, 1},
  };
  EXPECT_EQ(run_chains<Engine>(workload), run_chains<HeapEngine>(workload));
}

TEST(EngineWheel, SameCycleFifoByScheduleOrder) {
  // All chains wake at cycle 7: firing order must be schedule (seq) order.
  std::vector<std::vector<Cycle>> workload(16, std::vector<Cycle>{7});
  const Trace trace = run_chains<Engine>(workload);
  ASSERT_EQ(trace.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(trace[i], std::make_tuple(Cycle{7}, i, 0));
  }
}

TEST(EngineWheel, DeterministicAcrossRuns) {
  const auto workload = random_workload(42, 32, 64, 1u << 20);
  const Trace first = run_chains<Engine>(workload);
  EXPECT_EQ(first, run_chains<Engine>(workload));
}

TEST(EngineWheel, EventCountMatchesHeap) {
  const auto workload = random_workload(7, 24, 32, 1u << 22);
  Engine wheel;
  HeapEngine heap;
  Trace t1, t2;
  std::vector<Coro<>> tasks;
  for (int id = 0; id < static_cast<int>(workload.size()); ++id) {
    tasks.push_back(chain(wheel, t1, id, workload[id]));
    tasks.push_back(chain(heap, t2, id, workload[id]));
  }
  for (auto& t : tasks) t.start();
  wheel.run();
  heap.run();
  EXPECT_EQ(wheel.events_processed(), heap.events_processed());
  EXPECT_EQ(wheel.now(), heap.now());
  EXPECT_EQ(t1, t2);
}

}  // namespace
}  // namespace cnet::psim
