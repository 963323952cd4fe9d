// The traced run's span buffer. Spans are recorded by the benchmark's own
// code at each layer boundary — around the calls it makes into svc, run,
// rt, mp, psim, sched and lin — never inside the program. Each span has a
// name, a start and an end, its own id, the id of the span that caused it
// (0 for a root), and a trace id shared by every span of one request or
// operation. Spans stay in memory until the run ends; write_csv() then
// writes them out and self_times() derives each span name's self time: a
// span's duration minus the part of it that its children cover.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< a string literal: names are static
  std::uint64_t trace = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class SpanBuffer {
 public:
  SpanBuffer();

  /// A fresh span (or trace) id; never 0.
  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Appends one finished span. Thread-safe: each thread appends to its own
  /// shard, so concurrent recorders do not contend.
  void record(const Span& span);

  /// Every recorded span, shard by shard. Call once recording has stopped.
  std::vector<Span> spans() const;

  /// Durations (ns) of every span named `name`.
  std::vector<double> durations(const std::string& name) const;

  struct SelfTime {
    std::string name;
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };
  /// Per span name: count, total duration, and self time (duration minus
  /// the union of its children's intervals, clipped to the parent).
  std::vector<SelfTime> self_times() const;

  /// Writes `name,trace,id,parent,start_ns,end_ns` rows; false on an I/O
  /// error.
  bool write_csv(const std::string& path) const;

 private:
  static constexpr std::size_t kShards = 64;
  struct Shard {
    mutable std::mutex mutex;
    std::vector<Span> spans;  // guarded by mutex
  };
  std::array<std::unique_ptr<Shard>, kShards> shards_;
  std::atomic<std::uint64_t> next_id_{1};
};

/// The calling thread's innermost open ScopedSpan (null when none).
const Span* current_span();

/// Records the enclosing scope as one span when a buffer is given; does
/// nothing (and reads no clock) when it is null, so untraced runs pay only
/// a pointer test. While it is alive it is the calling thread's current
/// span: a span opened inside it without an explicit parent becomes its
/// child and joins its trace.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, std::uint64_t trace = 0,
             std::uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buffer_;
  Span span_;
  const Span* enclosing_ = nullptr;
};

}  // namespace perfbench
