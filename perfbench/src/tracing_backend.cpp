#include "tracing_backend.h"

#include "util.h"
#include "util/rng.h"

namespace perfbench {

TracingBackend::TracingBackend(CountingBackend& inner, SpanBuffer& spans,
                               std::uint32_t sample_period)
    : CountingBackend(inner.spec()),
      inner_(inner),
      spans_(spans),
      sample_period_(sample_period == 0 ? 1 : sample_period) {}

TracingBackend::Totals TracingBackend::totals(Call call) const {
  const auto k = static_cast<std::size_t>(call);
  Totals out;
  for (const Shard& shard : shards_) {
    out.calls += shard.calls[k].load(std::memory_order_relaxed);
    out.values += shard.values[k].load(std::memory_order_relaxed);
    out.busy_ns += shard.busy_ns[k].load(std::memory_order_relaxed);
  }
  return out;
}

bool TracingBackend::sample_hot() {
  thread_local std::uint64_t calls = 0;
  return calls++ % sample_period_ == 0;
}

void TracingBackend::account(Call call, std::uint64_t values, std::int64_t start_ns,
                             std::int64_t end_ns, bool sampled, std::uint64_t trace) {
  const auto k = static_cast<std::size_t>(call);
  Shard& shard = shards_[thread_index() % kShards];
  shard.calls[k].fetch_add(1, std::memory_order_relaxed);
  shard.values[k].fetch_add(values, std::memory_order_relaxed);
  shard.busy_ns[k].fetch_add(end_ns - start_ns, std::memory_order_relaxed);
  if (!sampled) return;
  Span span;
  span.name = kSpanNames[k];
  span.id = spans_.next_id();
  if (const Span* parent = current_span(); parent != nullptr) {
    span.parent = parent->id;
    if (trace == 0) trace = parent->trace;
  }
  span.trace = trace != 0 ? trace : span.id;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.record(span);
}

std::uint64_t TracingBackend::count(std::uint32_t thread_id) {
  const std::int64_t start = now_ns();
  const std::uint64_t value = inner_.count(thread_id);
  account(Call::kCount, 1, start, now_ns(), sample_hot());
  return value;
}

void TracingBackend::count_batch(std::uint32_t thread_id, std::span<std::uint64_t> out) {
  const std::int64_t start = now_ns();
  inner_.count_batch(thread_id, out);
  account(Call::kCountBatch, out.size(), start, now_ns(), sample_hot());
}

std::uint64_t TracingBackend::count_delayed(std::uint32_t thread_id, std::uint64_t wait_ns) {
  const std::int64_t start = now_ns();
  const std::uint64_t value = inner_.count_delayed(thread_id, wait_ns);
  account(Call::kCount, 1, start, now_ns(), sample_hot());
  return value;
}

TracingBackend::TimedCount TracingBackend::count_until(std::uint32_t thread_id,
                                                       std::uint64_t wait_ns,
                                                       std::uint64_t timeout_ns) {
  const std::int64_t start = now_ns();
  const TimedCount timed = inner_.count_until(thread_id, wait_ns, timeout_ns);
  account(Call::kCountUntil, timed.ok ? 1 : 0, start, now_ns(), true);
  return timed;
}

// One operation's begin and collect spans share a trace id derived from its
// handle, which is unique while the operation is pending.
namespace {
std::uint64_t pending_trace(const cnet::run::CountingBackend::PendingCount& pending) {
  std::uint64_t state = reinterpret_cast<std::uintptr_t>(pending.handle) ^ pending.start_ns;
  return cnet::splitmix64(state) | 1;
}
}  // namespace

TracingBackend::PendingCount TracingBackend::count_begin(std::uint32_t thread_id,
                                                         std::uint64_t wait_ns) {
  const std::int64_t start = now_ns();
  const PendingCount pending = inner_.count_begin(thread_id, wait_ns);
  account(Call::kCountBegin, 0, start, now_ns(), sample_hot(), pending_trace(pending));
  return pending;
}

std::uint64_t TracingBackend::count_collect(const PendingCount& pending) {
  const std::uint64_t trace = pending_trace(pending);
  const std::int64_t start = now_ns();
  const std::uint64_t value = inner_.count_collect(pending);
  account(Call::kCountCollect, 1, start, now_ns(), sample_hot(), trace);
  return value;
}

TracingBackend::TimedCount TracingBackend::count_collect_until(
    const PendingCount& pending, std::chrono::steady_clock::time_point deadline) {
  const std::uint64_t trace = pending_trace(pending);
  const std::int64_t start = now_ns();
  const TimedCount timed = inner_.count_collect_until(pending, deadline);
  account(Call::kCountCollect, timed.ok ? 1 : 0, start, now_ns(), sample_hot(), trace);
  return timed;
}

TracingBackend::DrainResult TracingBackend::drain(std::uint64_t deadline_ns) {
  const std::int64_t start = now_ns();
  DrainResult result = inner_.drain(deadline_ns);
  account(Call::kDrain, result.reclaimed.size(), start, now_ns(), true);
  return result;
}

cnet::run::SimulatedRun TracingBackend::simulate(const cnet::run::Workload& workload) {
  const std::int64_t start = now_ns();
  cnet::run::SimulatedRun run = inner_.simulate(workload);
  account(Call::kSimulate, run.history.size(), start, now_ns(), true);
  return run;
}

}  // namespace perfbench
