// svc_rt: the service as a user sees it. One generator thread offers
// open-loop Poisson traffic over loopback TCP to an in-process svc::Server
// (default batching and admission) in front of an rt backend, at a fixed low
// rate, a fixed high rate, and up a fixed rate ladder.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "lin/checker.h"
#include "loadgen.h"
#include "obs/registry.h"
#include "run/backend.h"
#include "run/workload.h"
#include "svc/client.h"
#include "svc/server.h"
#include "topo/validate.h"
#include "tracing_backend.h"
#include "workloads.h"

namespace perfbench {

namespace run = cnet::run;
namespace svc = cnet::svc;

namespace {

// The workload's pins.
constexpr const char* kSpec = "rt:bitonic:32?threads=64";
constexpr std::uint32_t kLoops = 2;
constexpr std::uint32_t kConns = 4;
/// The low- and high-rate phases, and the ladder, which climbs from
/// kHighRate by kLadderRatio per rung up to kLadderTop, twice the highest
/// capacity seen. On a quiet host the service's capacity is about 2.6 M/s
/// (4 vCPUs), but in noisy stretches of a shared host it was 0.7–2.2 M/s
/// within minutes, so the full climb (svc.capacity_kops, a per-layer
/// reading) spreads far past any useful bound. max_rate_kops counts only
/// rungs up to kCapRate, the highest rate passed in those noisy stretches:
/// it sees a loss of capacity below the cap, and a gain only shows in
/// svc.capacity_kops. The high rate, 1/4 of the top rung, is the highest
/// at which host stalls were not seen to shed requests, which no measured
/// phase may do; the low rate is half of it.
constexpr double kLowRate = 150'000;
constexpr double kHighRate = 300'000;
constexpr double kLadderRatio = 1.08;
constexpr double kLadderTop = 6'000'000;
constexpr double kCapRate = 1'000'000;
/// A ladder step passes when the median over its windows of each window's
/// p99 is within kLimitUs, at most kShedAllowance of its requests were shed,
/// the backlog is at most kLimitUs worth of requests, and the generator's
/// windowed p99 lag is within kLagLimitUs. The limit and the allowance sit
/// above what one host stall of a few milliseconds does at any rate: the
/// stalled loop finds more than its pending cap (4096) on waking and sheds
/// the excess, about 1% of a step's requests.
constexpr double kLimitUs = 10'000;
constexpr double kShedAllowance = 0.02;
constexpr double kLagLimitUs = 1000;
constexpr int kSlices = 5;             ///< low/high alternations
constexpr double kLowShare = 0.2;      ///< shares of the run
constexpr double kHighShare = 0.2;
constexpr double kStepShare = 0.012;   ///< one ladder step
constexpr double kLadderShare = 0.45;  ///< the whole ladder, at most
/// Set-ups besides the kept one, built and torn down after each slice, so
/// the set-up median spans the run's host time, not its first milliseconds.
constexpr int kSpareSetupsPerSlice = 4;
constexpr std::uint32_t kSpanPeriod = 64;  ///< one hot call in this many is a span
/// Latency quantiles are taken per window of kWindow requests; the p99s
/// report the median window, the p50s the kQuietQuantile of windows (see
/// README: the host's vCPU preemption moves most windows).
constexpr std::size_t kWindow = 500;
constexpr double kQuietQuantile = 0.05;

using Conns = std::vector<std::unique_ptr<svc::Client>>;

/// The backend, the optional tracing decorator in front of it, the server
/// and its client connections — torn down in reverse order.
struct Service {
  std::unique_ptr<run::CountingBackend> backend;
  std::unique_ptr<TracingBackend> tracer;
  std::unique_ptr<svc::Server> server;
  Conns conns;

  run::CountingBackend& target() { return tracer ? *tracer : *backend; }

  ~Service() {
    for (auto& conn : conns) {
      if (conn) conn->close();
    }
    if (server) server->stop();
  }
};

bool connect_one(const svc::Server& server, std::unique_ptr<svc::Client>* out) {
  auto client = std::make_unique<svc::Client>();
  std::string error;
  if (!client->connect("127.0.0.1", server.port(), &error)) {
    std::fprintf(stderr, "perfbench: connect failed: %s\n", error.c_str());
    return false;
  }
  *out = std::move(client);
  return true;
}

/// One set-up: backend construction (and the tracer in front of it),
/// Server::start and kConns connects, timed into `samples`. The new loop
/// threads go to `loop_tids`. Null on failure, which is recorded.
std::unique_ptr<Service> set_up(const std::string& spec, SpanBuffer* spans,
                                std::vector<int>* loop_tids, std::vector<double>* samples,
                                Results* results) {
  auto s = std::make_unique<Service>();
  const std::int64_t t0 = now_ns();
  {
    ScopedSpan span(spans, "setup.backend");
    std::string error;
    s->backend = run::make_backend(spec, &error);
    if (!s->backend) {
      results->fail("svc: bad backend spec: " + error);
      return nullptr;
    }
  }
  if (spans != nullptr) {
    s->tracer = std::make_unique<TracingBackend>(*s->backend, *spans, kSpanPeriod);
  }
  {
    ScopedSpan span(spans, "setup.server");
    svc::ServerOptions server_options;
    server_options.loops = kLoops;
    s->server = std::make_unique<svc::Server>(s->target(), server_options);
    const std::vector<int> tids_before = task_ids();
    std::string error;
    if (!s->server->start(&error)) {
      results->fail("svc: server start failed: " + error);
      return nullptr;
    }
    for (int tid : task_ids()) {
      if (!std::binary_search(tids_before.begin(), tids_before.end(), tid)) {
        loop_tids->push_back(tid);
      }
    }
    s->conns.resize(kConns);
    for (auto& conn : s->conns) {
      if (!connect_one(*s->server, &conn)) {
        results->fail("svc: connect failed");
        return nullptr;
      }
    }
  }
  samples->push_back(static_cast<double>(now_ns() - t0) / 1e9);
  return s;
}

/// Which event loop serves `conn`: one blocking round trip, then the loop
/// thread whose read/write syscall count moved. -1 when it cannot be told.
int probe_loop(svc::Client& conn, const std::vector<int>& loop_tids, std::uint64_t request_id,
               std::vector<std::uint64_t>* values) {
  std::vector<std::int64_t> before;
  for (int tid : loop_tids) before.push_back(io_syscalls(tid));
  svc::Response response;
  std::string error;
  if (!conn.count(request_id, &response, &error)) return -1;
  if (response.status == svc::Status::kOk) values->push_back(response.value);
  int loop = -1;
  for (std::size_t i = 0; i < loop_tids.size(); ++i) {
    if (before[i] < 0 || io_syscalls(loop_tids[i]) == before[i]) continue;
    if (loop >= 0) return -1;  // two loops moved: ambiguous
    loop = static_cast<int>(i);
  }
  return loop;
}

/// SO_REUSEPORT spreads connections over the loops by flow hash, so 4
/// connections land 2-2 on 2 loops only 3 times in 8. An uneven split would
/// make the figures depend on the hash, so connections are re-made until
/// every loop holds the same number.
bool balance(Service& s, const std::vector<int>& loop_tids, std::vector<std::uint64_t>* values) {
  const std::size_t per_loop = s.conns.size() / loop_tids.size();
  std::uint64_t probe_id = 1;
  for (int attempt = 0; attempt < 64; ++attempt) {
    std::vector<std::size_t> load(loop_tids.size(), 0);
    std::vector<int> owner(s.conns.size(), -1);
    for (std::size_t c = 0; c < s.conns.size(); ++c) {
      owner[c] = probe_loop(*s.conns[c], loop_tids, probe_id++, values);
      if (owner[c] >= 0) ++load[static_cast<std::size_t>(owner[c])];
    }
    bool even = true;
    for (std::size_t c = 0; c < s.conns.size(); ++c) {
      if (owner[c] >= 0 && load[static_cast<std::size_t>(owner[c])] <= per_loop) continue;
      even = false;
      if (owner[c] >= 0) --load[static_cast<std::size_t>(owner[c])];
      s.conns[c]->close();
      if (!connect_one(*s.server, &s.conns[c])) return false;
    }
    if (even) return true;
  }
  return false;
}

/// Every value the kept backend handed out, one bit each, so the checks
/// cost the same however far the ladder climbs: every kOk value must be
/// distinct and, with the values the drain reclaimed, form the gapless range
/// 0..n-1, and the per-output counts must have the step property.
class ValueSet {
 public:
  explicit ValueSet(std::uint32_t width) : per_output_(width, 0) {}

  void add(std::uint64_t v) {
    if (v >= kLimit) {
      ++bad_;
      return;
    }
    if (v / 64 >= bits_.size()) bits_.resize(v / 64 + 1 + bits_.size() / 2, 0);
    const std::uint64_t bit = std::uint64_t{1} << (v % 64);
    if ((bits_[v / 64] & bit) != 0) {
      ++bad_;
      return;
    }
    bits_[v / 64] |= bit;
    ++count_;
    max_ = std::max(max_, v);
    ++per_output_[v % per_output_.size()];
  }

  /// Records what failed; returns the number of offending values
  /// (duplicates, wild values and holes).
  std::uint64_t check(Results* results) const {
    const std::uint64_t holes = count_ == 0 ? 0 : max_ + 1 - count_;
    if (bad_ + holes != 0) {
      results->fail("svc: " + std::to_string(bad_) + " duplicate or wild values and " +
                    std::to_string(holes) + " holes among " + std::to_string(count_) +
                    " values (kOk values + reclaimed must form 0..n-1)");
    }
    if (!cnet::topo::has_step_property(per_output_)) results->fail("svc: step property violated");
    return bad_ + holes;
  }

 private:
  static constexpr std::uint64_t kLimit = std::uint64_t{1} << 36;
  std::vector<std::uint64_t> bits_;
  std::vector<std::uint64_t> per_output_;
  std::uint64_t count_ = 0;
  std::uint64_t bad_ = 0;
  std::uint64_t max_ = 0;
};

/// Folds one slice of a phase into the phase's running result.
void absorb(PhaseResult* into, PhaseResult&& from) {
  into->sent += from.sent;
  into->ok += from.ok;
  into->timeout += from.timeout;
  into->shed += from.shed;
  into->error += from.error;
  into->unanswered += from.unanswered;
  into->writes += from.writes;
  into->window_s += from.window_s;
  into->gen_cpu_ns += from.gen_cpu_ns;
  into->gen_syscalls += from.gen_syscalls;
  into->latency_us.insert(into->latency_us.end(), from.latency_us.begin(), from.latency_us.end());
  into->lag_us.insert(into->lag_us.end(), from.lag_us.begin(), from.lag_us.end());
  into->history.insert(into->history.end(), from.history.begin(), from.history.end());
}

}  // namespace

Results run_svc(const RunOptions& options) {
  Results results;
  const bool traced = options.spans != nullptr;
  SpanBuffer* spans = options.spans;
  const double T = options.seconds;
  std::string spec = kSpec;
  if (traced) spec += "&metrics";
  const std::vector<std::uint64_t> phase_seeds = run::issuer_seeds(options.seed, 64);
  std::size_t next_seed = 0;

  // -- set-up: backend + Server::start + connects. Spreading the
  // connections over the loops is the benchmark's own doing, so it is not
  // part of the set-up time. -----------------------------------------------
  std::vector<double> setup_samples;
  std::vector<int> loop_tids;
  const std::unique_ptr<Service> service =
      set_up(spec, spans, &loop_tids, &setup_samples, &results);
  if (!service) return results;
  Service& s = *service;
  run::CountingBackend& target = s.target();
  std::vector<std::uint64_t> probe_values;  // kOk values of the balancing probes
  if (loop_tids.size() != kLoops || !balance(s, loop_tids, &probe_values)) {
    std::fprintf(stderr, "perfbench: could not spread connections evenly over loops\n");
  }
  const auto spare_setups = [&] {
    for (int i = 0; i < kSpareSetupsPerSlice; ++i) {
      std::vector<int> spare_tids;
      if (!set_up(spec, spans, &spare_tids, &setup_samples, &results)) return;
    }
  };

  ValueSet values(target.network().output_width());
  for (std::uint64_t v : probe_values) values.add(v);
  std::uint64_t attempted = probe_values.size();
  std::uint64_t failed = 0;
  std::int64_t gen_cpu = 0;
  std::int64_t gen_io = 0;
  const auto phase = [&](double rate, double seconds, bool history) {
    const Schedule schedule =
        make_schedule(rate, seconds, phase_seeds[next_seed++ % phase_seeds.size()], kConns);
    PhaseResult r = run_phase(s.conns, schedule, 2.0, history, spans, kSpanPeriod);
    for (std::uint64_t v : r.values) values.add(v);
    r.values = {};
    attempted += r.sent;
    gen_cpu += r.gen_cpu_ns;
    gen_io += r.gen_syscalls;
    return r;
  };

  // -- measured phases ----------------------------------------------------
  const svc::Server::Stats stats0 = s.server->stats();
  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t io0 = io_syscalls();
  const std::int64_t wall0 = now_ns();

  // The low- and high-rate phases are cut into slices that alternate, so a
  // noisy stretch of the host's time falls on both rates alike.
  failed += phase(kLowRate, 0.3, false).failed();  // warm-up
  PhaseResult low;
  PhaseResult high;
  for (int i = 0; i < kSlices; ++i) {
    absorb(&low, phase(kLowRate, T * kLowShare / kSlices, traced));
    absorb(&high, phase(kHighRate, T * kHighShare / kSlices, traced));
    spare_setups();
  }
  failed += low.failed() + high.failed();
  // Peak RSS before the ladder: the ladder's buffers grow with the rate it
  // reaches, so a later reading would move with the host's noise.
  const double rss_mb = peak_rss_mb();

  // The ladder: ascending fixed rates until a step misses twice in a row
  // (a missed step is retried once). A step passes on the limits above and
  // when nothing was lost, so the best passing step never measures the
  // generator. Its p99 is the median window's, so that a stall moves the
  // windows it hits, not the capacity.
  double best_rate = 0.0;    // the whole climb
  double capped_rate = 0.0;  // rungs up to kCapRate
  const double step_s = T * kStepShare;
  const double ladder_end_s = T * kLadderShare;
  const std::int64_t ladder0 = now_ns();
  const auto step = [&](double rate) {
    const PhaseResult r = phase(rate, step_s, false);
    failed += r.error + r.unanswered;
    const double p99 = windowed_quantile(r.latency_us, 0.99, kWindow);
    const double lag_p99 = windowed_quantile(r.lag_us, 0.99, kWindow);
    const bool backlog_ok =
        static_cast<double>(r.backlog_at_end) <= std::max(64.0, rate * kLimitUs / 1e6);
    const bool shed_ok = static_cast<double>(r.shed + r.timeout) <=
                         kShedAllowance * static_cast<double>(r.sent);
    const bool pass = p99 <= kLimitUs && shed_ok && r.error + r.unanswered == 0 && backlog_ok &&
                      lag_p99 <= kLagLimitUs;
    std::fprintf(stderr,
                 "perfbench: ladder %.0f/s served %.0f/s p99 %.1f us lag_p99 %.1f us "
                 "backlog %llu shed %llu -> %s\n",
                 rate, r.served_per_s(), p99, lag_p99,
                 static_cast<unsigned long long>(r.backlog_at_end),
                 static_cast<unsigned long long>(r.shed), pass ? "pass" : "miss");
    if (pass) best_rate = std::max(best_rate, r.served_per_s());
    if (pass && rate <= kCapRate) capped_rate = std::max(capped_rate, r.served_per_s());
    return pass;
  };
  const auto time_left = [&] {
    return static_cast<double>(now_ns() - ladder0) / 1e9 + step_s <= ladder_end_s;
  };
  for (double rate = kHighRate; rate <= kLadderTop; rate *= kLadderRatio) {
    if (!time_left()) break;
    if (!step(rate) && (!time_left() || !step(rate))) break;
  }
  if (capped_rate == 0.0) {
    std::fprintf(stderr, "perfbench: no ladder step met the limits; reporting the low rate\n");
    capped_rate = low.served_per_s();
    best_rate = std::max(best_rate, capped_rate);
  }
  const std::int64_t wall_ns = now_ns() - wall0;
  const std::int64_t serve_cpu_ns = process_cpu_ns() - cpu0 - gen_cpu;
  const std::int64_t serve_io = io_syscalls() - io0 - gen_io;
  const svc::Server::Stats stats1 = s.server->stats();

  // -- tear down and check ------------------------------------------------
  for (auto& conn : s.conns) conn->close();
  s.server->stop();
  const run::CountingBackend::DrainResult drained = target.drain(2'000'000'000);
  if (!drained.quiescent) results.fail("svc: backend did not quiesce after stop");
  for (std::uint64_t v : drained.reclaimed) values.add(v);
  failed += values.check(&results);
  const svc::Server::Stats final_stats = s.server->stats();
  if (final_stats.protocol_errors != 0) results.fail("svc: server saw protocol errors");

  results.attempted = attempted;
  results.failed = failed;
  results.set("setup_s", median(setup_samples), "s");
  results.set("rss_mb", rss_mb, "MiB");
  results.set("ok_frac", 1.0 - per(static_cast<double>(failed), static_cast<double>(attempted)),
              "ratio");
  results.set("max_rate_kops", capped_rate / 1e3, "kcount/s");
  results.set("svc.capacity_kops", best_rate / 1e3, "kcount/s");
  results.set("lat_p50_us.low", windowed_quantile(low.latency_us, 0.50, kWindow, kQuietQuantile), "us");
  results.set("lat_p99_us.low", windowed_quantile(low.latency_us, 0.99, kWindow), "us");
  results.set("lat_p50_us.high", windowed_quantile(high.latency_us, 0.50, kWindow, kQuietQuantile), "us");
  results.set("lat_p99_us.high", windowed_quantile(high.latency_us, 0.99, kWindow), "us");
  if (!traced) return results;

  // -- per-layer readings (traced run) ------------------------------------
  const double requests = static_cast<double>(stats1.requests - stats0.requests);
  const double served = static_cast<double>(stats1.responses_ok - stats0.responses_ok);
  const auto d = [](auto v) { return static_cast<double>(v); };
  results.layer("svc.req_per_wake", per(requests, d(stats1.wakes - stats0.wakes)), "req/wake");
  results.layer("svc.req_per_batch", per(requests, d(stats1.batches - stats0.batches)),
                "req/call");
  // /proc/self/io is unreadable on some kernels; the reading is then 0.
  results.layer("svc.syscalls_per_req",
                serve_io >= 0 && gen_io >= 0 ? per(d(serve_io), requests) : 0.0, "syscalls/req");
  results.layer("svc.cpu_us_per_req", per(d(serve_cpu_ns) / 1e3, served), "us/req");
  results.layer("svc.shed_frac", per(d(stats1.responses_shed - stats0.responses_shed), requests),
                "ratio");
  results.layer("svc.largest_batch", d(stats1.largest_batch), "req");
  results.layer("gen.lag_p99_us", windowed_quantile(high.lag_us, 0.99, kWindow), "us");
  results.layer("gen.frames_per_write", per(d(high.sent), d(high.writes)), "frames/write");

  const auto rt_count = s.tracer->totals(TracingBackend::Call::kCount);
  const auto rt_batch = s.tracer->totals(TracingBackend::Call::kCountBatch);
  const std::uint64_t rt_calls = rt_count.calls + rt_batch.calls;
  std::vector<double> call_ns = spans->durations("rt.count");
  const std::vector<double> batch_ns = spans->durations("rt.count_batch");
  call_ns.insert(call_ns.end(), batch_ns.begin(), batch_ns.end());
  results.layer("rt.calls", d(rt_calls), "calls");
  results.layer("rt.ops_per_call", per(d(rt_count.values + rt_batch.values), d(rt_calls)),
                "values/call");
  results.layer("rt.call_ns_p50", quantile(call_ns, 0.50), "ns");
  results.layer("rt.call_ns_p99", quantile(call_ns, 0.99), "ns");
  results.layer("rt.busy_frac", per(d(rt_count.busy_ns + rt_batch.busy_ns), d(wall_ns) * kLoops),
                "ratio");
  cnet::obs::MetricsRegistry registry;
  target.register_metrics(registry);
  for (const auto& histogram : registry.snapshot().histograms) {
    if (histogram.name == "rt.hop_latency") {
      results.layer("rt.hop_ns_p99", histogram.histogram.quantile(0.99), "ns");
    }
  }
  results.layer("rt.c2c1_est", target.c2c1_estimate(), "ratio");

  cnet::lin::History history = low.history;
  history.insert(history.end(), high.history.begin(), high.history.end());
  cnet::lin::CheckResult analysis;
  {
    ScopedSpan span(spans, "lin.check");
    analysis = cnet::lin::check(history);
  }
  results.layer("lin.nonlin_frac", analysis.fraction(), "ratio");
  results.layer("lin.check_ns_per_op", per(sum(spans->durations("lin.check")), d(history.size())),
                "ns/op");
  results.layer("setup.backend_ms", median(spans->durations("setup.backend")) / 1e6, "ms");
  results.layer("setup.server_ms", median(spans->durations("setup.server")) / 1e6, "ms");
  return results;
}

}  // namespace perfbench
