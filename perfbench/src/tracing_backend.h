// TracingBackend: a forwarding run::CountingBackend decorator for the traced
// run. It hands every call to the wrapped backend unchanged — the values,
// handles and results the caller sees are the inner backend's own — and
// times each one on the way through. Every call adds to per-kind totals
// (calls, counter values, busy time); every `sample_period`-th hot call of
// a thread (count, count_batch, count_begin, count_collect*) and every
// simulate/count_until/drain call is also recorded as a span. Because
// svc::Server and run::Runner take any CountingBackend, passing them this
// decorator puts spans on every backend call they make without touching
// the program.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "run/backend.h"
#include "spans.h"

namespace perfbench {

class TracingBackend final : public cnet::run::CountingBackend {
 public:
  enum class Call : std::uint8_t {
    kCount,
    kCountBatch,
    kCountBegin,
    kCountCollect,  ///< count_collect and count_collect_until
    kCountUntil,
    kSimulate,
    kDrain,
  };
  static constexpr std::size_t kCalls = 7;
  static constexpr const char* kSpanNames[kCalls] = {
      "rt.count", "rt.count_batch", "mp.count_begin", "mp.count_collect",
      "backend.count_until", "psim.simulate", "backend.drain"};

  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t values = 0;  ///< counter values the calls handed out
    std::int64_t busy_ns = 0;  ///< summed call durations
  };

  /// `inner` and `spans` are borrowed and must outlive the decorator.
  TracingBackend(CountingBackend& inner, SpanBuffer& spans, std::uint32_t sample_period);

  Totals totals(Call call) const;

  const cnet::topo::Network& network() const override { return inner_.network(); }
  bool live() const override { return inner_.live(); }
  const char* time_unit() const override { return inner_.time_unit(); }

  std::uint64_t count(std::uint32_t thread_id) override;
  void count_batch(std::uint32_t thread_id, std::span<std::uint64_t> out) override;
  std::uint64_t count_delayed(std::uint32_t thread_id, std::uint64_t wait_ns) override;
  TimedCount count_until(std::uint32_t thread_id, std::uint64_t wait_ns,
                         std::uint64_t timeout_ns) override;
  bool supports_async_count() const override { return inner_.supports_async_count(); }
  PendingCount count_begin(std::uint32_t thread_id, std::uint64_t wait_ns) override;
  std::uint64_t count_collect(const PendingCount& pending) override;
  TimedCount count_collect_until(const PendingCount& pending,
                                 std::chrono::steady_clock::time_point deadline) override;
  DrainResult drain(std::uint64_t deadline_ns) override;
  cnet::run::SimulatedRun simulate(const cnet::run::Workload& workload) override;

  cnet::fault::Injector* fault_injector() override { return inner_.fault_injector(); }
  bool set_recorder(cnet::sched::Recorder* recorder) override {
    return inner_.set_recorder(recorder);
  }
  cnet::rt::DegradeGuard::Status degrade_status() const override {
    return inner_.degrade_status();
  }
  void register_metrics(cnet::obs::MetricsRegistry& registry) const override {
    inner_.register_metrics(registry);
  }
  double c2c1_estimate() const override { return inner_.c2c1_estimate(); }

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kCalls> calls{};
    std::array<std::atomic<std::uint64_t>, kCalls> values{};
    std::array<std::atomic<std::int64_t>, kCalls> busy_ns{};
  };
  static constexpr std::size_t kShards = 64;

  /// Adds one finished call to the totals and, when `sampled`, records it
  /// as a span under `trace` (0 = a trace of its own).
  void account(Call call, std::uint64_t values, std::int64_t start_ns, std::int64_t end_ns,
               bool sampled, std::uint64_t trace = 0);
  /// The per-thread sampling decision for hot calls.
  bool sample_hot();

  CountingBackend& inner_;
  SpanBuffer& spans_;
  std::uint32_t sample_period_;
  std::array<Shard, kShards> shards_{};
};

}  // namespace perfbench
