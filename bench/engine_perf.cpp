// Performance of the simulation engines themselves (google-benchmark):
// events per second for the event-level timing simulator and the coroutine
// multiprocessor, so regressions in the substrates are visible — plus the
// bucketed timing wheel (psim::Engine) alone on the figure-5-shaped event
// mix (hundreds of processors, short toggle/hop delays interleaved with
// 100k-cycle waits) that every psim figure bench generates.
#include <benchmark/benchmark.h>

#include <vector>

#include "fault/injector.h"
#include "fault/plan.h"
#include "psim/coro.h"
#include "psim/engine.h"
#include "psim/machine.h"
#include "sim/scenarios.h"
#include "sim/simulator.h"
#include "topo/builders.h"

namespace {

using namespace cnet;

// --- the timing wheel on the fig5-shaped mix -----------------------------

/// One simulated processor of the fig5 workload shape: per network layer a
/// hop, a small toggle-service delay, and (for the delayed F = 25% subset)
/// the W-cycle pause. Pure sleeps — no Memory/MCS machinery — so the bench
/// isolates event-queue cost.
psim::Coro<> fig5_mix_proc(psim::Engine& engine, std::uint32_t id, std::uint64_t rounds,
                           psim::Cycle wait, bool delayed) {
  constexpr int kLayers = 15;  // Bitonic[32] depth
  for (std::uint64_t r = 0; r < rounds; ++r) {
    for (int layer = 0; layer < kLayers; ++layer) {
      co_await engine.sleep(4);
      co_await engine.sleep(1 + ((id + layer + r) & 15));
      if (delayed) co_await engine.sleep(wait);
    }
  }
}

std::uint64_t run_fig5_mix(std::uint32_t procs, psim::Cycle wait, std::uint64_t total_ops) {
  psim::Engine engine;
  const std::uint64_t rounds = std::max<std::uint64_t>(1, total_ops / procs);
  std::vector<psim::Coro<>> tasks;
  tasks.reserve(procs);
  for (std::uint32_t p = 0; p < procs; ++p) {
    tasks.push_back(fig5_mix_proc(engine, p, rounds, wait, p % 4 == 0));
  }
  for (auto& t : tasks) t.start();
  engine.run();
  return engine.events_processed();
}

void BM_EngineWheelFig5Mix(benchmark::State& state) {
  const auto procs = static_cast<std::uint32_t>(state.range(0));
  const auto wait = static_cast<psim::Cycle>(state.range(1));
  std::uint64_t events = 0;
  for (auto _ : state) {
    events += run_fig5_mix(procs, wait, 5000);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = engine events");
}
BENCHMARK(BM_EngineWheelFig5Mix)->Args({256, 100000})->Args({256, 1000})->Args({64, 100000});

void BM_SimRandomExecution(benchmark::State& state) {
  const topo::Network net = topo::make_bitonic(static_cast<std::uint32_t>(state.range(0)));
  std::uint64_t seed = 1;
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::UniformDelay delays(1.0, 3.0);
    sim::Simulator simulator(net, delays, seed++);
    for (int i = 0; i < 1000; ++i) {
      simulator.inject(static_cast<std::uint32_t>(i) % net.input_width(), i * 0.05);
    }
    simulator.run();
    benchmark::DoNotOptimize(simulator.output_counts().data());
    events += 1000ull * (net.depth() + 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = balancer+counter events");
}
BENCHMARK(BM_SimRandomExecution)->Arg(8)->Arg(32);

void BM_PsimWorkload(benchmark::State& state) {
  const topo::Network net = topo::make_bitonic(32);
  std::uint64_t seed = 1;
  std::uint64_t events = 0;
  for (auto _ : state) {
    psim::MachineParams params;
    params.processors = static_cast<std::uint32_t>(state.range(0));
    params.total_ops = 2000;
    params.delayed_fraction = 0.25;
    params.wait_cycles = 1000;
    params.seed = seed++;
    const psim::MachineResult result = psim::run_workload(net, params);
    benchmark::DoNotOptimize(result.makespan);
    events += result.events;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = engine events");
}
BENCHMARK(BM_PsimWorkload)->Arg(16)->Arg(128);

void BM_PsimDiffractingWorkload(benchmark::State& state) {
  const topo::Network net = topo::make_counting_tree(32);
  std::uint64_t seed = 1;
  std::uint64_t events = 0;
  for (auto _ : state) {
    psim::MachineParams params;
    params.processors = static_cast<std::uint32_t>(state.range(0));
    params.total_ops = 2000;
    params.use_diffraction = true;
    params.seed = seed++;
    const psim::MachineResult result = psim::run_workload(net, params);
    benchmark::DoNotOptimize(result.makespan);
    events += result.events;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = engine events");
}
BENCHMARK(BM_PsimDiffractingWorkload)->Arg(64);

/// Fault-plan realization cost in the cycle simulator: the same workload
/// with no injector (arg 0) and with an armed stall plan (arg 1) whose
/// debits land as timing-wheel sleeps. The delta is the price of chaos
/// runs in psim — it should be dominated by the extra simulated events,
/// not by the per-hop decision draws.
void BM_PsimStallDebit(benchmark::State& state) {
  const topo::Network net = topo::make_bitonic(32);
  fault::FaultPlan plan;
  fault::parse_fault_plan("stall:0.25:2000,seed:5", &plan, nullptr);
  const bool armed = state.range(0) != 0;
  std::uint64_t seed = 1;
  std::uint64_t events = 0;
  for (auto _ : state) {
    fault::Injector injector(plan);
    psim::MachineParams params;
    params.processors = 64;
    params.total_ops = 2000;
    params.seed = seed++;
    params.fault = armed ? &injector : nullptr;
    const psim::MachineResult result = psim::run_workload(net, params);
    benchmark::DoNotOptimize(result.makespan);
    events += result.events;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel(armed ? "armed stall plan" : "no injector");
}
BENCHMARK(BM_PsimStallDebit)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
