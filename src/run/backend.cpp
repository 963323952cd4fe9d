#include "run/backend.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "mp/response_cell.h"
#include "sched/trace.h"
#include "sim/delay_model.h"
#include "sim/simulator.h"
#include "util/assert.h"
#include "util/rng.h"

namespace cnet::run {
namespace {

void busy_wait_ns(std::uint64_t ns) {
  if (ns == 0) return;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < deadline) {
    // burn — the paper's W is busy time, not blocked time
  }
}

struct WaitCtx {
  std::uint64_t wait_ns;
};

void after_node_wait(void* ctx, std::uint32_t /*node*/, std::uint32_t /*port*/) {
  busy_wait_ns(static_cast<WaitCtx*>(ctx)->wait_ns);
}

/// Hook context for faulted rt traversals: the W wait plus per-hop stall
/// decisions. `hop` counts traversed nodes (1-based), which on the layered
/// networks the builders produce is the token's layer — close enough for
/// stall:p:ns:hop targeting (docs/ROBUSTNESS.md spells out the
/// approximation).
struct FaultWaitCtx {
  std::uint64_t wait_ns;
  fault::Injector* injector;
  std::uint32_t thread_id;
  std::uint32_t hop;
};

void after_node_fault(void* c, std::uint32_t /*node*/, std::uint32_t /*port*/) {
  auto* ctx = static_cast<FaultWaitCtx*>(c);
  ++ctx->hop;
  busy_wait_ns(ctx->wait_ns);
  busy_wait_ns(ctx->injector->stall_ns(ctx->thread_id, ctx->hop));
}

/// Hook context for captured rt traversals: the schedule recorder rides the
/// same per-node hook as the W wait and the fault injector, so a captured
/// run sees exactly the hops (and stalls) an uncaptured one would. The ctx
/// address doubles as the recorder's token key — unique while the op is in
/// flight, which is all the recorder needs.
struct CaptureCtx {
  sched::Recorder* recorder;
  std::uint64_t wait_ns;
  fault::Injector* injector;  ///< may be null
  std::uint32_t thread_id;
  std::uint32_t hop;
};

void after_node_capture(void* c, std::uint32_t node, std::uint32_t port) {
  auto* ctx = static_cast<CaptureCtx*>(c);
  ++ctx->hop;
  busy_wait_ns(ctx->wait_ns);
  std::uint64_t stall = 0;
  if (ctx->injector != nullptr) {
    stall = ctx->injector->stall_ns(ctx->thread_id, ctx->hop);
    busy_wait_ns(stall);
  }
  ctx->recorder->hop(ctx, node, port, stall);
}

rt::CounterOptions rt_options(const BackendSpec& spec, obs::CounterMetrics* metrics) {
  rt::CounterOptions options;
  options.mode = spec.mcs ? rt::BalancerMode::kMcsLocked : rt::BalancerMode::kFetchAdd;
  options.diffraction = spec.diffraction;
  options.prism_width = spec.prism_width;
  options.max_threads = spec.max_threads;
  options.engine =
      spec.engine_walk ? rt::ExecutionEngine::kGraphWalk : rt::ExecutionEngine::kCompiledPlan;
  options.metrics = metrics;
  options.degrade.policy = spec.degrade == DegradeMode::kPad      ? rt::DegradePolicy::kPad
                           : spec.degrade == DegradeMode::kReport ? rt::DegradePolicy::kReport
                                                                  : rt::DegradePolicy::kOff;
  return options;
}

/// Workspace placement for `ws=` specs: the counter's plan state goes into
/// a named shm segment this backend creates and owns. In-process behavior
/// is identical to heap placement — this is the single-process half of the
/// deployment story (deploy/counter_deploy.cpp runs the multi-process
/// half, where tiles attach instead of create). A spec without ws= returns
/// the empty arena, i.e. the plan allocates privately as before.
rt::PlanArena make_plan_arena(const BackendSpec& spec, obs::CounterMetrics* metrics,
                              shm::Workspace* workspace) {
  if (spec.ws.empty()) return {};
  const rt::CounterOptions options = rt_options(spec, metrics);
  const std::size_t footprint =
      rt::NetworkCounter::plan_state_footprint(spec.build_network(), options);
  std::string error;
  const bool created = shm::Workspace::create(
      spec.ws, std::max<std::uint64_t>(footprint, 1), workspace, &error);
  CNET_CHECK_MSG(created, error.c_str());
  void* base = workspace->alloc("rt.plan", rt::RoutingPlan::state_align(),
                                std::max<std::uint64_t>(footprint, 1), &error);
  CNET_CHECK_MSG(base != nullptr, error.c_str());
  return rt::PlanArena{base, footprint, /*attach=*/false};
}

mp::NetworkService::Options mp_options(const BackendSpec& spec, obs::MpMetrics* metrics,
                                       fault::Injector* injector) {
  mp::NetworkService::Options options;
  options.workers = spec.actors;
  options.engine = spec.mp_locked ? mp::Engine::kLocked : mp::Engine::kLockFree;
  options.metrics = metrics;
  options.fault = injector;
  return options;
}

std::unique_ptr<fault::Injector> make_injector(const BackendSpec& spec) {
  return spec.fault.any() ? std::make_unique<fault::Injector>(spec.fault) : nullptr;
}

/// Adds the workload's per-node wait to the base link delay of tokens in
/// the delayed set — the sim-family realization of the paper's F/W scheme
/// (a delayed processor's extra W cycles per node are, in the §2 model,
/// indistinguishable from a slower link).
class DelayedLinkModel final : public sim::DelayModel {
 public:
  DelayedLinkModel(sim::DelayModel& base, const std::vector<char>& token_delayed, double wait)
      : base_(base), token_delayed_(token_delayed), wait_(wait) {}

  double link_delay(sim::TokenId token, std::uint32_t layer, Rng& rng) override {
    const double base = base_.link_delay(token, layer, rng);
    const bool delayed = token < token_delayed_.size() && token_delayed_[token] != 0;
    return delayed ? base + wait_ : base;
  }

 private:
  sim::DelayModel& base_;
  const std::vector<char>& token_delayed_;
  double wait_;
};

/// Folds fault-plan stalls into the link-delay draw: a stalled hop is a
/// slower link, which in the §2 model is all a stall can be. stall_ns is
/// interpreted in the model's time units here (fault/plan.h documents the
/// unit switch). Keyed by token id — deterministic, since sim token ids
/// are assigned in injection order.
class FaultLinkModel final : public sim::DelayModel {
 public:
  FaultLinkModel(sim::DelayModel& base, fault::Injector& injector)
      : base_(base), injector_(injector) {}

  double link_delay(sim::TokenId token, std::uint32_t layer, Rng& rng) override {
    const double base = base_.link_delay(token, layer, rng);
    const std::uint64_t stall = injector_.stall_ns(static_cast<std::uint32_t>(token), layer);
    return stall == 0 ? base : base + static_cast<double>(stall);
  }

 private:
  sim::DelayModel& base_;
  fault::Injector& injector_;
};

std::vector<std::uint64_t> split_ops(std::uint64_t total, std::uint32_t threads) {
  std::vector<std::uint64_t> quota(threads, total / threads);
  for (std::uint32_t t = 0; t < total % threads; ++t) ++quota[t];
  return quota;
}

}  // namespace

// --- base class -----------------------------------------------------------

std::uint64_t CountingBackend::count(std::uint32_t) {
  CNET_CHECK_MSG(false, "count() called on a simulated backend — use simulate()");
  return 0;
}

void CountingBackend::count_batch(std::uint32_t thread_id, std::span<std::uint64_t> out) {
  for (auto& value : out) value = count(thread_id);
}

std::uint64_t CountingBackend::count_delayed(std::uint32_t thread_id, std::uint64_t) {
  // A backend that cannot reach inside a traversal runs the plain
  // operation; the Runner rejects workloads whose delay injection would be
  // silent. Both live families (rt, mp) currently override this.
  return count(thread_id);
}

SimulatedRun CountingBackend::simulate(const Workload&) {
  CNET_CHECK_MSG(false, "simulate() called on a live backend — use the Runner");
  return {};
}

CountingBackend::TimedCount CountingBackend::count_until(std::uint32_t thread_id,
                                                         std::uint64_t wait_ns,
                                                         std::uint64_t timeout_ns) {
  // No cancellation machinery: run to completion and say so. The Runner
  // distinguishes ok-late from abandoned, so this never fakes a timeout.
  (void)timeout_ns;
  return {true, count_delayed(thread_id, wait_ns)};
}

CountingBackend::PendingCount CountingBackend::count_begin(std::uint32_t, std::uint64_t) {
  CNET_CHECK_MSG(false, "count_begin() on a backend without async issue — "
                        "check supports_async_count() first");
  return {};
}

std::uint64_t CountingBackend::count_collect(const PendingCount&) {
  CNET_CHECK_MSG(false, "count_collect() on a backend without async issue");
  return 0;
}

CountingBackend::TimedCount CountingBackend::count_collect_until(
    const PendingCount&, std::chrono::steady_clock::time_point) {
  CNET_CHECK_MSG(false, "count_collect_until() on a backend without async issue");
  return {};
}

CountingBackend::DrainResult CountingBackend::drain(std::uint64_t) {
  // Operations complete on the caller's thread: joined issuers == quiescent.
  return {};
}

void CountingBackend::register_metrics(obs::MetricsRegistry&) const {}

// --- rt -------------------------------------------------------------------

RtBackend::RtBackend(const BackendSpec& spec, obs::CounterMetrics* external_metrics)
    : CountingBackend(spec),
      owned_metrics_(external_metrics == nullptr && spec.metrics
                         ? std::make_unique<obs::CounterMetrics>()
                         : nullptr),
      metrics_(external_metrics != nullptr ? external_metrics : owned_metrics_.get()),
      fault_(make_injector(spec)),
      counter_(spec.build_network(), rt_options(spec, metrics_),
               make_plan_arena(spec, metrics_, &workspace_)) {}

std::uint64_t RtBackend::count(std::uint32_t thread_id) {
  if (fault_ != nullptr || recorder_ != nullptr) [[unlikely]] {
    return count_delayed(thread_id, 0);
  }
  return counter_.next(thread_id);
}

void RtBackend::count_batch(std::uint32_t thread_id, std::span<std::uint64_t> out) {
  if (fault_ != nullptr || recorder_ != nullptr) [[unlikely]] {
    // Stalls and schedule capture are per-hop, per-token; the batched claim
    // makes one traversal for the whole span, so fall back to individual
    // tokens to keep the injected fault rate (and the captured hop count)
    // independent of the batch size.
    for (auto& value : out) value = count_delayed(thread_id, 0);
    return;
  }
  counter_.next_batch(thread_id, thread_id % network().input_width(), out);
}

std::uint64_t RtBackend::count_delayed(std::uint32_t thread_id, std::uint64_t wait_ns) {
  const std::uint32_t input = thread_id % network().input_width();
  if (recorder_ != nullptr) [[unlikely]] {
    CaptureCtx ctx{recorder_, wait_ns, fault_.get(), thread_id, 0};
    recorder_->issue(&ctx, input);
    const std::uint64_t value = counter_.next_hooked(thread_id, input, after_node_capture, &ctx);
    recorder_->commit(&ctx, value);
    return value;
  }
  if (fault_ != nullptr) [[unlikely]] {
    FaultWaitCtx ctx{wait_ns, fault_.get(), thread_id, 0};
    return counter_.next_hooked(thread_id, input, after_node_fault, &ctx);
  }
  if (wait_ns == 0) return count(thread_id);
  WaitCtx ctx{wait_ns};
  return counter_.next_hooked(thread_id, input, after_node_wait, &ctx);
}

bool RtBackend::set_recorder(sched::Recorder* recorder) {
  recorder_ = recorder;
  return true;
}

void RtBackend::register_metrics(obs::MetricsRegistry& registry) const {
  if (metrics_ != nullptr) metrics_->register_into(registry);
}

double RtBackend::c2c1_estimate() const {
  return metrics_ != nullptr ? metrics_->c2c1_estimate() : 0.0;
}

rt::DegradeGuard::Status RtBackend::degrade_status() const {
  const rt::DegradeGuard* guard = counter_.degrade_guard();
  return guard != nullptr ? guard->status() : rt::DegradeGuard::Status{};
}

// --- mp -------------------------------------------------------------------

MpBackend::MpBackend(const BackendSpec& spec)
    : CountingBackend(spec),
      metrics_(spec.metrics ? std::make_unique<obs::MpMetrics>() : nullptr),
      fault_(make_injector(spec)),
      service_(spec.build_network(), mp_options(spec, metrics_.get(), fault_.get())) {}

std::uint64_t MpBackend::count(std::uint32_t thread_id) {
  return service_.count(thread_id % network().input_width());
}

std::uint64_t MpBackend::count_delayed(std::uint32_t thread_id, std::uint64_t wait_ns) {
  return service_.count_delayed(thread_id % network().input_width(), wait_ns);
}

CountingBackend::TimedCount MpBackend::count_until(std::uint32_t thread_id,
                                                   std::uint64_t wait_ns,
                                                   std::uint64_t timeout_ns) {
  const mp::NetworkService::TimedCount result =
      service_.count_until(thread_id % network().input_width(), wait_ns, timeout_ns);
  return {result.ok, result.value};
}

CountingBackend::PendingCount MpBackend::count_begin(std::uint32_t thread_id,
                                                     std::uint64_t wait_ns) {
  const mp::NetworkService::Pending p =
      service_.count_begin(thread_id % network().input_width(), wait_ns);
  return {p.cell, p.value, p.input, p.start_ns};
}

std::uint64_t MpBackend::count_collect(const PendingCount& pending) {
  return service_.count_collect({static_cast<mp::ResponseCell*>(pending.handle),
                                 pending.value, pending.input, pending.start_ns});
}

CountingBackend::TimedCount MpBackend::count_collect_until(
    const PendingCount& pending, std::chrono::steady_clock::time_point deadline) {
  const mp::NetworkService::TimedCount result = service_.count_collect_until(
      {static_cast<mp::ResponseCell*>(pending.handle), pending.value, pending.input,
       pending.start_ns},
      deadline);
  return {result.ok, result.value};
}

bool MpBackend::set_recorder(sched::Recorder* recorder) {
  service_.set_recorder(recorder);
  return true;
}

CountingBackend::DrainResult MpBackend::drain(std::uint64_t deadline_ns) {
  const mp::NetworkService::DrainReport report = service_.drain(deadline_ns);
  DrainResult out;
  out.quiescent = report.quiescent;
  out.strays = report.strays;
  out.waited_ns = report.waited_ns;
  out.reclaimed = service_.take_parked();
  return out;
}

void MpBackend::register_metrics(obs::MetricsRegistry& registry) const {
  if (metrics_ == nullptr) return;
  metrics_->register_into(registry);
  // Response-cell arena occupancy and lifecycle. Process-wide (every
  // service shares the one immortal arena), registered here because the
  // arena itself has no obs dependency.
  using Cache = mp::ResponseCellCache;
  registry.add_gauge("mp.cells.created", "cells",
                     [] { return static_cast<double>(Cache::cells_created()); });
  registry.add_gauge("mp.cells.arena_owned", "cells", [] {
    return static_cast<double>(Cache::arena_stats().owned);
  });
  registry.add_gauge("mp.cells.arena_free", "cells", [] {
    return static_cast<double>(Cache::arena_stats().free_cells);
  });
  registry.add_gauge("mp.cells.thread_donations", "cells", [] {
    return static_cast<double>(Cache::arena_stats().thread_donations);
  });
  registry.add_gauge("mp.cells.adoptions", "cells", [] {
    return static_cast<double>(Cache::arena_stats().adoptions);
  });
  registry.add_gauge("mp.cells.orphan_donations", "cells", [] {
    return static_cast<double>(Cache::arena_stats().orphan_donations);
  });
  // This service's deadline/recycling counters.
  const mp::NetworkService* service = &service_;
  registry.add_gauge("mp.deadline_timeouts", "ops", [service] {
    return static_cast<double>(service->robustness_stats().deadline_timeouts);
  });
  registry.add_gauge("mp.values_parked", "values", [service] {
    return static_cast<double>(service->robustness_stats().values_parked);
  });
  registry.add_gauge("mp.values_reclaimed", "values", [service] {
    return static_cast<double>(service->robustness_stats().values_reclaimed);
  });
}

// --- sim ------------------------------------------------------------------

SimBackend::SimBackend(const BackendSpec& spec)
    : CountingBackend(spec), fault_(make_injector(spec)), net_(spec.build_network()) {}

SimulatedRun SimBackend::simulate(const Workload& workload) {
  SimulatedRun out;
  const std::uint32_t threads = std::max(1u, workload.threads);
  if (workload.arrival == Arrival::kPoisson && workload.rate <= 0.0) {
    out.error = "poisson arrivals need rate > 0";
    return out;
  }
  if (workload.arrival == Arrival::kBurst &&
      (workload.burst_gap <= 0.0 || workload.burst_size == 0)) {
    out.error = "burst arrivals need burst_gap > 0 and burst_size >= 1";
    return out;
  }

  std::unique_ptr<sim::DelayModel> base;
  if (spec_.delay == DelayKind::kFixed) {
    base = std::make_unique<sim::FixedDelay>(spec_.c1);
  } else {
    base = std::make_unique<sim::UniformDelay>(spec_.c1, spec_.c2);
  }

  // token -> issuing actor and delayed flag, appended at injection time.
  std::vector<std::uint32_t> token_actor;
  std::vector<char> token_delayed;
  const double wait = static_cast<double>(workload.wait);
  DelayedLinkModel delayed_model(*base, token_delayed, wait);
  std::unique_ptr<FaultLinkModel> fault_model;
  sim::DelayModel* model = &delayed_model;
  if (fault_ != nullptr) {
    fault_model = std::make_unique<FaultLinkModel>(delayed_model, *fault_);
    model = fault_model.get();
  }
  sim::Simulator simulator(net_, *model, workload.seed);

  const std::uint32_t inputs = net_.input_width();
  const std::uint64_t total = workload.total_ops;

  if (workload.arrival == Arrival::kClosed) {
    // Virtual closed loop: `threads` issuers re-enter as soon as their
    // previous token exits. Completion is polled by advancing the clock in
    // c1-sized steps (the minimum link time), so a re-entry lags a real
    // exit by at most one step.
    const auto n_delayed = static_cast<std::uint32_t>(
        std::lround(workload.delayed_fraction * static_cast<double>(threads)));
    std::vector<std::uint64_t> quota = split_ops(total, threads);
    std::vector<sim::TokenId> current(threads, 0);
    std::vector<char> active(threads, 0);
    std::uint64_t in_flight = 0;

    const auto launch = [&](std::uint32_t thread, double time) {
      token_actor.push_back(thread);
      token_delayed.push_back(thread < n_delayed ? 1 : 0);
      current[thread] = simulator.inject(thread % inputs, time);
      active[thread] = 1;
      --quota[thread];
      ++in_flight;
    };

    for (std::uint32_t t = 0; t < threads; ++t) {
      if (quota[t] != 0) launch(t, 0.0);
    }
    const double step = spec_.c1;
    while (in_flight != 0) {
      simulator.run_until(simulator.now() + step);
      for (std::uint32_t t = 0; t < threads; ++t) {
        if (active[t] != 0 && simulator.token(current[t]).done) {
          active[t] = 0;
          --in_flight;
          if (quota[t] != 0) launch(t, simulator.now());
        }
      }
    }
  } else if (workload.arrival == Arrival::kPoisson) {
    Rng arrivals(workload.seed);
    double time = 0.0;
    const double mean_gap = 1.0 / workload.rate;
    for (std::uint64_t i = 0; i < total; ++i) {
      token_actor.push_back(static_cast<std::uint32_t>(i % threads));
      token_delayed.push_back(arrivals.chance(workload.delayed_fraction) ? 1 : 0);
      simulator.inject(static_cast<std::uint32_t>(i % inputs), time);
      time += -mean_gap * std::log(1.0 - arrivals.unit());
    }
    simulator.run();
  } else {  // Arrival::kBurst
    Rng arrivals(workload.seed);
    const std::uint64_t per_burst =
        static_cast<std::uint64_t>(threads) * static_cast<std::uint64_t>(workload.burst_size);
    std::uint64_t injected = 0;
    for (std::uint64_t burst = 0; injected < total; ++burst) {
      const double time = static_cast<double>(burst) * workload.burst_gap;
      const std::uint64_t count = std::min<std::uint64_t>(per_burst, total - injected);
      for (std::uint64_t i = 0; i < count; ++i, ++injected) {
        token_actor.push_back(static_cast<std::uint32_t>(injected % threads));
        token_delayed.push_back(arrivals.chance(workload.delayed_fraction) ? 1 : 0);
        simulator.inject(static_cast<std::uint32_t>(injected % inputs), time);
      }
    }
    simulator.run();
  }
  simulator.run();  // flush anything still queued past the last poll step

  out.history.reserve(simulator.tokens().size());
  for (std::size_t i = 0; i < simulator.tokens().size(); ++i) {
    const sim::TokenRecord& token = simulator.tokens()[i];
    lin::Operation op;
    op.start = token.enter_time;
    op.end = token.exit_time;
    op.value = token.value;
    op.actor = token_actor[i];
    out.history.push_back(op);
    out.makespan = std::max(out.makespan, token.exit_time);
  }
  out.ok = true;
  return out;
}

// --- psim -----------------------------------------------------------------

PsimBackend::PsimBackend(const BackendSpec& spec)
    : CountingBackend(spec),
      metrics_(spec.metrics ? std::make_unique<obs::PsimMetrics>() : nullptr),
      fault_(make_injector(spec)),
      net_(spec.build_network()) {}

SimulatedRun PsimBackend::simulate(const Workload& workload) {
  SimulatedRun out;
  if (workload.arrival != Arrival::kClosed) {
    out.error = "psim supports only the closed-loop arrival process "
                "(its processors are the issuers)";
    return out;
  }
  psim::MachineParams params;
  params.processors = spec_.procs != 0 ? spec_.procs : std::max(1u, workload.threads);
  params.total_ops = workload.total_ops;
  params.delayed_fraction = workload.delayed_fraction;
  params.wait_cycles = workload.wait;
  params.seed = workload.seed;
  params.hop_cycles = spec_.hop_cycles;
  params.use_diffraction = spec_.diffraction;
  params.prism.width = spec_.prism_width;
  params.metrics = metrics_.get();
  params.fault = fault_.get();

  psim::MachineResult result = psim::run_workload(net_, params);
  out.history = std::move(result.history);
  out.makespan = static_cast<double>(result.makespan);
  out.avg_tog = result.avg_tog;
  out.avg_c2_over_c1 = result.avg_c2_over_c1;
  out.analysis = std::move(result.analysis);
  out.ok = true;
  return out;
}

void PsimBackend::register_metrics(obs::MetricsRegistry& registry) const {
  if (metrics_ != nullptr) metrics_->register_into(registry);
}

double PsimBackend::c2c1_estimate() const {
  return metrics_ != nullptr ? metrics_->c2c1_estimate() : 0.0;
}

// --- factory --------------------------------------------------------------

std::unique_ptr<CountingBackend> make_backend(const BackendSpec& spec) {
  switch (spec.family) {
    case Family::kRt: return std::make_unique<RtBackend>(spec);
    case Family::kMp: return std::make_unique<MpBackend>(spec);
    case Family::kSim: return std::make_unique<SimBackend>(spec);
    case Family::kPsim: return std::make_unique<PsimBackend>(spec);
  }
  CNET_CHECK_MSG(false, "unreachable backend family");
  return nullptr;
}

std::unique_ptr<CountingBackend> make_backend(std::string_view spec_text, std::string* error) {
  BackendSpec spec;
  if (!parse_spec(spec_text, &spec, error)) return nullptr;
  return make_backend(spec);
}

}  // namespace cnet::run
