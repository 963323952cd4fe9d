// The benchmark's open-loop load generator: ONE thread driving every
// connection, so the generator never needs more cores than it has.
//
// Arrivals are Poisson. The schedule is the repo's own definition of "who
// sends when" — run::issuer_quotas splits the requests over the
// connections, run::issuer_seeds gives each connection its stream seed, and
// run::OpenLoopPacer turns that seed into absolute due times — so a
// (rate, seconds, seed) triple always yields the same schedule. Between
// arrivals the thread sleeps in ppoll() until the next due time (with a
// 1 ns timer slack) and never spins; on each wake every connection's
// frames that are due go out in one write. Every request is timed from its
// DUE time, not from when it was sent, so a generator that falls behind
// shows up as latency, and the generator's own lateness (send − due) is
// reported separately so a late step can be declared invalid.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "lin/history.h"
#include "spans.h"
#include "svc/client.h"

namespace perfbench {

/// Every connection's arrivals: due times in ns from the phase start,
/// one stream per connection.
using Schedule = std::vector<std::vector<double>>;

/// `rate` requests/s for `seconds` over `conns` streams.
Schedule make_schedule(double rate, double seconds, std::uint64_t seed, std::uint32_t conns);

struct PhaseResult {
  std::uint64_t sent = 0;  ///< requests the schedule issued
  std::uint64_t ok = 0;
  std::uint64_t timeout = 0;
  std::uint64_t shed = 0;
  std::uint64_t error = 0;       ///< kError frames, duplicates, foreign ids
  std::uint64_t unanswered = 0;  ///< no response by the drain deadline
  std::vector<std::uint64_t> values;  ///< every kOk value
  std::vector<double> latency_us;     ///< due → response, every answered request
  std::vector<double> lag_us;         ///< write − due, every frame
  std::uint64_t writes = 0;           ///< write calls that sent frames
  double window_s = 0.0;              ///< first due → last response
  /// Requests still unanswered when the last frame went out (the backlog).
  std::uint64_t backlog_at_end = 0;
  /// Client-boundary history (start = write, end = response), when asked.
  cnet::lin::History history;
  /// The generator thread's own CPU time and read/write syscalls.
  std::int64_t gen_cpu_ns = 0;
  std::int64_t gen_syscalls = 0;

  std::uint64_t failed() const { return timeout + shed + error + unanswered; }
  double served_per_s() const {
    return window_s > 0.0 ? static_cast<double>(ok) / window_s : 0.0;
  }
};

/// Runs one phase over `conns` (already connected; the sockets are driven
/// non-blocking from here on). Waits up to `drain_s` after the last due
/// time for outstanding responses. `spans` (traced run) receives every
/// `span_period`-th request as a "svc.request" span from due to response.
PhaseResult run_phase(std::vector<std::unique_ptr<cnet::svc::Client>>& conns,
                      const Schedule& schedule, double drain_s, bool record_history, SpanBuffer* spans,
                      std::uint32_t span_period);

}  // namespace perfbench
