#include "loadgen.h"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <limits>

#include "run/workload.h"
#include "svc/frame.h"
#include "util.h"

namespace perfbench {

namespace svc = cnet::svc;

namespace {
constexpr int kConnShift = 40;
constexpr std::uint64_t kIndexMask = (std::uint64_t{1} << kConnShift) - 1;
/// Latency charged to a request that failed or was never answered: it
/// misses every limit (a refused request is not a fast one).
constexpr double kFailedLatencyUs = 1e9;
}  // namespace

Schedule make_schedule(double rate, double seconds, std::uint64_t seed, std::uint32_t conns) {
  cnet::run::Workload workload;
  workload.arrival = cnet::run::Arrival::kPoisson;
  workload.threads = conns;
  workload.rate = rate;
  workload.total_ops = static_cast<std::uint64_t>(std::llround(rate * seconds));
  workload.seed = seed;
  const std::vector<std::uint64_t> quotas =
      cnet::run::issuer_quotas(workload.total_ops, conns);
  const std::vector<std::uint64_t> seeds = cnet::run::issuer_seeds(seed, conns);
  Schedule streams(conns);
  for (std::uint32_t c = 0; c < conns; ++c) {
    streams[c] = cnet::run::OpenLoopPacer(workload, seeds[c]).schedule(quotas[c]);
  }
  return streams;
}

namespace {

struct ConnState {
  svc::Client* client = nullptr;
  const std::vector<double>* due_ns = nullptr;
  std::size_t next = 0;             ///< next request to encode
  std::size_t frames_written = 0;   ///< requests whose bytes are all on the wire
  std::uint64_t bytes_written = 0;
  std::vector<std::uint8_t> out;    ///< encoded, not yet written
  std::size_t out_off = 0;
  std::vector<std::int64_t> sent_ns;
  std::vector<std::uint8_t> answered;
  bool broken = false;

  bool has_unwritten() const { return out_off < out.size(); }
  bool done_sending() const {
    return broken || (next == due_ns->size() && !has_unwritten());
  }
};

}  // namespace

PhaseResult run_phase(std::vector<std::unique_ptr<svc::Client>>& conns,
                      const Schedule& schedule, double drain_s, bool record_history, SpanBuffer* spans,
                      std::uint32_t span_period) {
  // Sleep precisely: the default 50 µs timer slack would otherwise be
  // added to every wake-up and read as generator lag.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  PhaseResult result;
  const std::int64_t cpu0 = thread_cpu_ns();
  const std::int64_t sys0 = io_syscalls(current_tid());

  std::vector<ConnState> state(conns.size());
  std::uint64_t total = 0;
  double last_due = 0.0;
  double first_due = std::numeric_limits<double>::max();
  for (std::size_t c = 0; c < conns.size(); ++c) {
    state[c].client = conns[c].get();
    state[c].due_ns = &schedule[c];
    const std::size_t n = schedule[c].size();
    state[c].sent_ns.assign(n, 0);
    state[c].answered.assign(n, 0);
    total += n;
    if (n > 0) {
      last_due = std::max(last_due, schedule[c].back());
      first_due = std::min(first_due, schedule[c].front());
    }
  }
  result.values.reserve(total);
  result.latency_us.reserve(total);
  result.lag_us.reserve(total);
  if (record_history) result.history.reserve(total);

  const std::int64_t t0 = now_ns() + 200'000;
  const auto due_abs = [&](const ConnState& s, std::size_t k) {
    return t0 + static_cast<std::int64_t>((*s.due_ns)[k]);
  };
  const std::int64_t drain_deadline =
      t0 + static_cast<std::int64_t>(last_due) + static_cast<std::int64_t>(drain_s * 1e9);
  std::uint64_t answered = 0;
  std::uint64_t responses_seen = 0;
  std::int64_t last_response = t0;
  bool backlog_taken = false;
  std::vector<pollfd> fds(conns.size());

  const auto write_pending = [&](ConnState& s) {
    if (!s.has_unwritten() || s.broken) return;
    const ssize_t n = send(s.client->fd(), s.out.data() + s.out_off, s.out.size() - s.out_off,
                           MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) s.broken = true;
      return;
    }
    const std::int64_t at = now_ns();
    ++result.writes;
    s.out_off += static_cast<std::size_t>(n);
    s.bytes_written += static_cast<std::uint64_t>(n);
    // Frames are fixed-size, so the frames now wholly on the wire follow
    // from the byte count; each is stamped with the write that finished it.
    const auto done = static_cast<std::size_t>(s.bytes_written / svc::kFrameWireSize);
    for (std::size_t k = s.frames_written; k < done; ++k) {
      s.sent_ns[k] = at;
      result.lag_us.push_back(static_cast<double>(at - due_abs(s, k)) / 1e3);
    }
    s.frames_written = done;
    if (s.out_off == s.out.size()) {
      s.out.clear();
      s.out_off = 0;
    }
  };

  const auto on_response = [&](const svc::Response& r, std::int64_t at) {
    ++responses_seen;
    const std::uint64_t c = r.request_id >> kConnShift;
    const std::uint64_t k = r.request_id & kIndexMask;
    if (c >= state.size() || k >= state[c].answered.size() || state[c].answered[k] != 0 ||
        state[c].sent_ns[k] == 0) {
      ++result.error;
      return;
    }
    ConnState& s = state[c];
    s.answered[k] = 1;
    ++answered;
    last_response = std::max(last_response, at);
    const double latency = static_cast<double>(at - due_abs(s, k)) / 1e3;
    switch (r.status) {
      case svc::Status::kOk:
        ++result.ok;
        result.values.push_back(r.value);
        result.latency_us.push_back(latency);
        if (record_history) {
          result.history.push_back({static_cast<double>(s.sent_ns[k]), static_cast<double>(at),
                                    r.value, static_cast<std::uint32_t>(c)});
        }
        break;
      case svc::Status::kTimeout:
        ++result.timeout;
        result.latency_us.push_back(kFailedLatencyUs);
        break;
      case svc::Status::kShed:
        ++result.shed;
        result.latency_us.push_back(kFailedLatencyUs);
        break;
      case svc::Status::kError:
        ++result.error;
        result.latency_us.push_back(kFailedLatencyUs);
        break;
    }
    if (spans != nullptr && responses_seen % span_period == 0) {
      Span span;
      span.name = "svc.request";
      span.id = spans->next_id();
      span.trace = span.id;
      span.start_ns = due_abs(s, k);
      span.end_ns = at;
      spans->record(span);
    }
  };

  for (;;) {
    // 1. Everything due goes out, one write per connection.
    std::int64_t now = now_ns();
    bool all_sent = true;
    std::int64_t next_due = std::numeric_limits<std::int64_t>::max();
    for (ConnState& s : state) {
      const std::size_t n = s.due_ns->size();
      while (!s.broken && s.next < n && due_abs(s, s.next) <= now) {
        const std::size_t k = s.next++;
        svc::Request request;
        request.request_id = (static_cast<std::uint64_t>(&s - state.data()) << kConnShift) | k;
        svc::encode_request(request, &s.out);
      }
      write_pending(s);
      if (s.next < n && !s.broken) next_due = std::min(next_due, due_abs(s, s.next));
      all_sent = all_sent && s.done_sending();
    }
    if (all_sent && !backlog_taken) {
      backlog_taken = true;
      std::uint64_t sent = 0;
      for (const ConnState& s : state) sent += s.frames_written;
      result.backlog_at_end = sent - std::min(sent, answered);
    }
    now = now_ns();
    if (all_sent && (answered == total || now >= drain_deadline)) break;

    // 2. Sleep until the next due time or a response, whichever is first.
    std::int64_t wait_ns = all_sent ? std::min<std::int64_t>(drain_deadline - now, 10'000'000)
                                    : next_due - now;
    for (std::size_t c = 0; c < state.size(); ++c) {
      fds[c].fd = state[c].client->fd();
      fds[c].events = static_cast<short>(POLLIN | (state[c].has_unwritten() ? POLLOUT : 0));
      fds[c].revents = 0;
    }
    wait_ns = std::max<std::int64_t>(wait_ns, 0);
    const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                           static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready <= 0) continue;

    // 3. Drain every readable connection.
    for (std::size_t c = 0; c < state.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      for (;;) {
        svc::Response response;
        bool got = false;
        std::string error;
        if (!state[c].client->poll_response(&response, &got, &error)) {
          state[c].broken = true;
          break;
        }
        if (!got) break;
        on_response(response, now_ns());
      }
    }
  }

  // A frame that never made it onto a broken connection is still a request
  // the schedule issued: it counts as sent and unanswered.
  for (const ConnState& s : state) result.sent += s.next;
  result.unanswered = result.sent - std::min(result.sent, answered);
  result.latency_us.insert(result.latency_us.end(), result.unanswered, kFailedLatencyUs);
  const std::int64_t first_due_abs = t0 + static_cast<std::int64_t>(first_due);
  result.window_s = static_cast<double>(last_response - first_due_abs) / 1e9;
  result.gen_cpu_ns = thread_cpu_ns() - cpu0;
  result.gen_syscalls = io_syscalls(current_tid()) - sys0;
  return result;
}

}  // namespace perfbench
