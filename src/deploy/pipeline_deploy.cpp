// The pipelined process-tile deployment (counter_deploy.h,
// run_pipeline_deployment): ingress tiles publish batched token *requests*
// into credit-based shm links (link::Ring), one counter tile drains them
// through the workspace-resident compiled plan, one record tile commits
// per-stream histories. Requests stay in flight across stages — the
// isolation tax is paid per *burst*, not per operation.
//
// Crash model (all state in the workspace, like counter_deploy):
//   - ingress i persists its published-request count in pipe.cursors and
//     bumps it only *after* the frag is in the ring: a kill between the
//     two republishes the same req_seq (at-least-once), which record
//     detects against its per-stream watermark and drops as a dup.
//   - the counter is stateless beyond its ring cursors, which live in the
//     rings themselves (consumed watermarks in credit lines, pub_seq via
//     resync_producer). A kill can orphan one drained batch (claimed from
//     the plan, never sent) and one replayed batch (dup dropped at
//     record) — hence the kills x 2 x batch loss bound.
//   - record writes a request's OpRecords, release-stores the stream's
//     committed cursor, bumps its request watermark, and only then
//     advances the ring: a kill anywhere in that sequence makes the
//     restart redo idempotent work (the frag is still in the ring —
//     record is a reliable consumer — and rewrites identical records).
//
// The kSocketPair transport reruns the same 3-stage fork topology with
// per-operation SOCK_SEQPACKET handoffs instead of links (clean runs
// only): same workspace, plan, and checking code, so benchmarks price the
// transport — batched shared-memory frags vs a kernel round trip per op —
// as the only variable.
#include "deploy/counter_deploy.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <new>
#include <span>
#include <thread>
#include <vector>

#include "deploy/deploy_internal.h"
#include "deploy/supervisor.h"
#include "deploy/topology.h"
#include "link/ring.h"
#include "rt/routing_plan.h"
#include "run/workload.h"
#include "shm/workspace.h"
#include "topo/validate.h"

namespace cnet::deploy {
namespace {

using detail::ControlBlock;
using detail::OpRecord;
using detail::counter_options;
using detail::kBoot;
using detail::kCtlObj;
using detail::kDone;
using detail::kMaxTiles;
using detail::kNoHold;
using detail::kPlanObj;
using detail::now_ns;

constexpr char kReqCursorObj[] = "pipe.cursors";
constexpr char kRecStateObj[] = "pipe.recstate";

std::string stream_hist(std::uint32_t stream) {
  return "stream" + std::to_string(stream) + ".hist";
}
std::string req_link_name(std::uint32_t stream) { return "req" + std::to_string(stream); }
constexpr char kResLink[] = "res";

/// One token-request frag, ingress -> counter.
struct ReqFrag {
  std::uint64_t req_seq = 0;   ///< per-stream request index
  std::uint64_t start_ns = 0;  ///< when ingress published (operation start)
  std::uint32_t count = 0;     ///< tokens requested (== batch except the tail)
  std::uint32_t stream = 0;    ///< ingress index
};
static_assert(sizeof(ReqFrag) == 24);

/// One drained batch, counter -> record; `count` values follow the header.
struct ResFrag {
  std::uint64_t req_seq = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;  ///< when the counter finished next_batch
  std::uint32_t count = 0;
  std::uint32_t stream = 0;
};
static_assert(sizeof(ResFrag) == 32);

/// Per-ingress published-request watermark (ingress-owned line).
struct alignas(64) IngressCursor {
  std::atomic<std::uint64_t> reqs_pub{0};
};

/// Per-stream record-side state (record-owned line; ingress reads
/// `committed` for the kill-watermark hold, the supervisor reads all of it
/// for progress and the final merge).
struct alignas(64) RecState {
  std::atomic<std::uint64_t> committed{0};      ///< fully recorded ops
  std::atomic<std::uint64_t> reqs_recorded{0};  ///< record's dedup watermark
  std::atomic<std::uint64_t> dups{0};           ///< at-least-once replays dropped
  std::atomic<std::uint64_t> gaps{0};           ///< req_seq skips (invariant breach)
};
static_assert(sizeof(IngressCursor) == 64 && sizeof(RecState) == 64);

/// Deterministic shape of one pipelined run, recomputed identically in
/// every process: per-stream op quotas and the request schedule over them.
struct PipeShape {
  std::uint32_t streams = 0;
  std::uint32_t batch = 0;
  std::vector<std::uint64_t> quota;   ///< ops per stream
  std::vector<std::uint64_t> n_reqs;  ///< requests per stream
  std::uint64_t total_reqs = 0;

  static PipeShape make(std::uint64_t total_ops, std::uint32_t streams,
                        std::uint32_t batch) {
    PipeShape shape;
    shape.streams = streams;
    shape.batch = batch;
    shape.quota = run::issuer_quotas(total_ops, streams);
    shape.n_reqs.resize(streams);
    for (std::uint32_t s = 0; s < streams; ++s) {
      shape.n_reqs[s] = (shape.quota[s] + batch - 1) / batch;
      shape.total_reqs += shape.n_reqs[s];
    }
    return shape;
  }
  std::uint32_t count_of(std::uint32_t stream, std::uint64_t req) const {
    const std::uint64_t done = req * batch;
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(batch, quota[stream] - done));
  }
};

/// Tile numbering: 0 = counter, 1..streams = ingress, streams + 1 = record.
constexpr std::uint32_t counter_tile() { return 0; }
std::uint32_t ingress_tile(std::uint32_t stream) { return 1 + stream; }
std::uint32_t record_tile(std::uint32_t streams) { return 1 + streams; }

/// The pipelined analogue of counter_deploy's hold rendezvous: ingress
/// refuses to *publish* past the kill watermark (measured in recorded ops,
/// the pipeline's committed truth) until the owed SIGKILL has landed. The
/// in-flight slack between published and recorded is bounded by the link
/// depths, so the overshoot past the watermark is bounded too.
bool wait_for_hold(ControlBlock* ctl, const RecState* rec, std::uint32_t streams) {
  while (true) {
    const std::uint64_t hold = ctl->hold.load(std::memory_order_acquire);
    if (hold == kNoHold) return true;
    std::uint64_t committed = 0;
    for (std::uint32_t s = 0; s < streams; ++s) {
      committed += rec[s].committed.load(std::memory_order_acquire);
    }
    if (committed < hold) return true;
    if (ctl->stop.load(std::memory_order_acquire) != 0) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

struct TileEnv {
  shm::Workspace ws;
  ControlBlock* ctl = nullptr;
  IngressCursor* cursors = nullptr;
  RecState* rec = nullptr;
};

/// Re-attach the workspace and resolve the objects every pipeline tile
/// needs. Nonzero = tile exit code: 10 attach failed, 11 object missing.
int open_tile_env(int ws_fd, TileEnv* env) {
  std::string error;
  if (!shm::Workspace::attach(ws_fd, &env->ws, &error)) return 10;
  env->ctl = static_cast<ControlBlock*>(env->ws.find(kCtlObj));
  env->cursors = static_cast<IngressCursor*>(env->ws.find(kReqCursorObj));
  env->rec = static_cast<RecState*>(env->ws.find(kRecStateObj));
  if (env->ctl == nullptr || env->cursors == nullptr || env->rec == nullptr) return 11;
  return 0;
}

/// Exit code 12: a link object failed Ring::attach (corrupt geometry).
int attach_link(shm::Workspace& ws, const std::string& link_name, link::Ring* out) {
  std::uint64_t footprint = 0;
  void* mem = ws.find("link." + link_name, &footprint);
  if (mem == nullptr) return 11;
  std::string error;
  if (!link::Ring::attach(mem, footprint, out, &error)) return 12;
  return 0;
}

bool boot_barrier(ControlBlock* ctl, std::uint32_t tile) {
  ctl->tiles[tile].state.store(detail::kReady, std::memory_order_release);
  while (ctl->go.load(std::memory_order_acquire) == 0) {
    if (ctl->stop.load(std::memory_order_acquire) != 0) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

// -- link-transport tile bodies ---------------------------------------

int ingress_main(const PipeShape& shape, std::uint32_t stream, int ws_fd) {
  TileEnv env;
  if (const int rc = open_tile_env(ws_fd, &env)) return rc;
  link::Ring ring;
  if (const int rc = attach_link(env.ws, req_link_name(stream), &ring)) return rc;
  ring.resync_producer();
  if (!boot_barrier(env.ctl, ingress_tile(stream))) return 0;

  IngressCursor& cursor = env.cursors[stream];
  std::uint64_t r = cursor.reqs_pub.load(std::memory_order_acquire);
  while (r < shape.n_reqs[stream]) {
    if (env.ctl->stop.load(std::memory_order_acquire) != 0) return 0;
    if (!wait_for_hold(env.ctl, env.rec, shape.streams)) return 0;
    ReqFrag req;
    req.req_seq = r;
    req.start_ns = now_ns();
    req.count = shape.count_of(stream, r);
    req.stream = stream;
    if (!ring.send(r, &req, sizeof(req), 0, &env.ctl->stop)) return 0;
    // Publish-then-count: a kill landing here resends req_seq r, which
    // record drops against its watermark (at-least-once, never lost).
    cursor.reqs_pub.store(r + 1, std::memory_order_release);
    ++r;
  }
  env.ctl->tiles[ingress_tile(stream)].state.store(kDone, std::memory_order_release);
  return 0;
}

int counter_main(const DeployOptions& options, const PipeShape& shape, int ws_fd) {
  TileEnv env;
  if (const int rc = open_tile_env(ws_fd, &env)) return rc;
  std::uint64_t plan_footprint = 0;
  void* plan_base = env.ws.find(kPlanObj, &plan_footprint);
  if (plan_base == nullptr) return 11;
  const topo::Network net = options.spec.build_network();
  rt::RoutingPlan plan(net, counter_options(options.spec),
                       rt::PlanArena{plan_base, plan_footprint, /*attach=*/true});

  std::vector<link::Ring> req_rings(shape.streams);
  std::vector<link::Consumer> req_in(shape.streams);
  for (std::uint32_t s = 0; s < shape.streams; ++s) {
    if (const int rc = attach_link(env.ws, req_link_name(s), &req_rings[s])) return rc;
    req_in[s] = req_rings[s].consumer(0);
  }
  link::Ring res_ring;
  if (const int rc = attach_link(env.ws, kResLink, &res_ring)) return rc;
  res_ring.resync_producer();
  if (!boot_barrier(env.ctl, counter_tile())) return 0;

  std::vector<std::uint8_t> out(sizeof(ResFrag) + std::size_t{shape.batch} * 8);
  std::vector<std::uint64_t> values(shape.batch);
  while (env.ctl->stop.load(std::memory_order_acquire) == 0) {
    bool progress = false;
    for (std::uint32_t s = 0; s < shape.streams; ++s) {
      link::Frag meta;
      ReqFrag req;
      const auto poll = req_in[s].read(&meta, &req, sizeof(req));
      if (poll != link::Consumer::Poll::kFrag) continue;  // reliable: never overrun
      progress = true;
      const std::uint32_t n = std::min(req.count, shape.batch);
      plan.next_batch(/*thread=*/0, plan.entry_wire(req.stream),
                      std::span<std::uint64_t>(values.data(), n));
      auto* res = reinterpret_cast<ResFrag*>(out.data());
      res->req_seq = req.req_seq;
      res->start_ns = req.start_ns;
      res->end_ns = now_ns();
      res->count = n;
      res->stream = req.stream;
      std::memcpy(out.data() + sizeof(ResFrag), values.data(), std::size_t{n} * 8);
      if (!res_ring.send(req.req_seq, out.data(),
                         static_cast<std::uint32_t>(sizeof(ResFrag) + std::size_t{n} * 8),
                         0, &env.ctl->stop)) {
        return 0;
      }
      // Advance only after the response is in the res ring: a kill before
      // this point replays the request, and the replay's response is
      // deduped at record (the values it claimed are the loss bound).
      req_in[s].advance();
    }
    if (!progress) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  env.ctl->tiles[counter_tile()].state.store(kDone, std::memory_order_release);
  return 0;
}

int record_main(const PipeShape& shape, int ws_fd) {
  TileEnv env;
  if (const int rc = open_tile_env(ws_fd, &env)) return rc;
  std::vector<OpRecord*> hist(shape.streams);
  for (std::uint32_t s = 0; s < shape.streams; ++s) {
    hist[s] = static_cast<OpRecord*>(env.ws.find(stream_hist(s)));
    if (hist[s] == nullptr) return 11;
  }
  link::Ring res_ring;
  if (const int rc = attach_link(env.ws, kResLink, &res_ring)) return rc;
  link::Consumer in = res_ring.consumer(0);
  if (!boot_barrier(env.ctl, record_tile(shape.streams))) return 0;

  const auto total_recorded = [&] {
    std::uint64_t total = 0;
    for (std::uint32_t s = 0; s < shape.streams; ++s) {
      total += env.rec[s].reqs_recorded.load(std::memory_order_relaxed);
    }
    return total;
  };
  std::vector<std::uint8_t> buf(sizeof(ResFrag) + std::size_t{shape.batch} * 8);
  while (total_recorded() < shape.total_reqs) {
    link::Frag meta;
    const auto poll = in.read(&meta, buf.data(), static_cast<std::uint32_t>(buf.size()));
    if (poll != link::Consumer::Poll::kFrag) {
      if (env.ctl->stop.load(std::memory_order_acquire) != 0) return 0;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      continue;
    }
    const auto* res = reinterpret_cast<const ResFrag*>(buf.data());
    const auto* vals = reinterpret_cast<const std::uint64_t*>(buf.data() + sizeof(ResFrag));
    RecState& rs = env.rec[res->stream];
    const std::uint64_t exp = rs.reqs_recorded.load(std::memory_order_relaxed);
    if (res->req_seq < exp) {
      rs.dups.fetch_add(1, std::memory_order_relaxed);
    } else if (res->req_seq > exp) {
      rs.gaps.fetch_add(1, std::memory_order_relaxed);  // reliable links: cannot happen
    } else {
      const std::uint64_t base = res->req_seq * shape.batch;
      for (std::uint32_t j = 0; j < res->count; ++j) {
        OpRecord& rec = hist[res->stream][base + j];
        rec.start_ns = res->start_ns;
        rec.end_ns = res->end_ns;
        rec.value = vals[j];
        rec.actor = res->stream;
      }
      rs.committed.store(base + res->count, std::memory_order_release);
      rs.reqs_recorded.store(exp + 1, std::memory_order_release);
    }
    // Advance last: record is a reliable consumer, so until here the frag
    // is pinned in the ring and a restarted record redoes idempotent work.
    in.advance();
  }
  env.ctl->tiles[record_tile(shape.streams)].state.store(kDone, std::memory_order_release);
  return 0;
}

// -- socketpair-transport tile bodies (the per-op handoff ablation) ----

bool write_msg(int fd, const void* data, std::size_t size) {
  while (true) {
    const ssize_t n = ::send(fd, data, size, 0);
    if (n == static_cast<ssize_t>(size)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

/// SOCK_SEQPACKET read of one whole message; 0 on peer close/error.
ssize_t read_msg(int fd, void* data, std::size_t cap) {
  while (true) {
    const ssize_t n = ::recv(fd, data, cap, 0);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    return 0;
  }
}

int sock_ingress_main(const PipeShape& shape, std::uint32_t stream, int ws_fd, int fd) {
  TileEnv env;
  if (const int rc = open_tile_env(ws_fd, &env)) return rc;
  if (!boot_barrier(env.ctl, ingress_tile(stream))) return 0;
  for (std::uint64_t k = 0; k < shape.quota[stream]; ++k) {
    if (env.ctl->stop.load(std::memory_order_acquire) != 0) return 0;
    ReqFrag req{k, now_ns(), 1, stream};
    if (!write_msg(fd, &req, sizeof(req))) return 13;
  }
  ReqFrag done{0, 0, 0, stream};  // count == 0: this stream is drained
  if (!write_msg(fd, &done, sizeof(done))) return 13;
  env.ctl->tiles[ingress_tile(stream)].state.store(kDone, std::memory_order_release);
  return 0;
}

int sock_counter_main(const DeployOptions& options, const PipeShape& shape, int ws_fd,
                      const std::vector<int>& req_fds, int res_fd) {
  TileEnv env;
  if (const int rc = open_tile_env(ws_fd, &env)) return rc;
  std::uint64_t plan_footprint = 0;
  void* plan_base = env.ws.find(kPlanObj, &plan_footprint);
  if (plan_base == nullptr) return 11;
  const topo::Network net = options.spec.build_network();
  rt::RoutingPlan plan(net, counter_options(options.spec),
                       rt::PlanArena{plan_base, plan_footprint, /*attach=*/true});
  if (!boot_barrier(env.ctl, counter_tile())) return 0;

  std::vector<pollfd> fds(shape.streams);
  for (std::uint32_t s = 0; s < shape.streams; ++s) fds[s] = {req_fds[s], POLLIN, 0};
  std::uint32_t drained = 0;
  std::uint8_t out[sizeof(ResFrag) + 8];
  while (drained < shape.streams) {
    if (env.ctl->stop.load(std::memory_order_acquire) != 0) return 0;
    if (::poll(fds.data(), fds.size(), 100) <= 0) continue;
    for (std::uint32_t s = 0; s < shape.streams; ++s) {
      if ((fds[s].revents & POLLIN) == 0) continue;
      ReqFrag req;
      if (read_msg(fds[s].fd, &req, sizeof(req)) != sizeof(req)) return 13;
      if (req.count == 0) {
        fds[s].fd = -1;  // stream done; stop polling it
        ++drained;
        continue;
      }
      std::uint64_t value = 0;
      plan.next_batch(/*thread=*/0, plan.entry_wire(req.stream),
                      std::span<std::uint64_t>(&value, 1));
      auto* res = reinterpret_cast<ResFrag*>(out);
      *res = ResFrag{req.req_seq, req.start_ns, now_ns(), 1, req.stream};
      std::memcpy(out + sizeof(ResFrag), &value, 8);
      if (!write_msg(res_fd, out, sizeof(out))) return 13;
    }
  }
  ResFrag done{0, 0, 0, 0, 0};  // count == 0: every stream is drained
  if (!write_msg(res_fd, &done, sizeof(done))) return 13;
  env.ctl->tiles[counter_tile()].state.store(kDone, std::memory_order_release);
  return 0;
}

int sock_record_main(const PipeShape& shape, int ws_fd, int fd) {
  TileEnv env;
  if (const int rc = open_tile_env(ws_fd, &env)) return rc;
  std::vector<OpRecord*> hist(shape.streams);
  for (std::uint32_t s = 0; s < shape.streams; ++s) {
    hist[s] = static_cast<OpRecord*>(env.ws.find(stream_hist(s)));
    if (hist[s] == nullptr) return 11;
  }
  if (!boot_barrier(env.ctl, record_tile(shape.streams))) return 0;
  std::uint8_t buf[sizeof(ResFrag) + 8];
  while (true) {
    if (env.ctl->stop.load(std::memory_order_acquire) != 0) return 0;
    const ssize_t n = read_msg(fd, buf, sizeof(buf));
    if (n < static_cast<ssize_t>(sizeof(ResFrag))) return 13;
    const auto* res = reinterpret_cast<const ResFrag*>(buf);
    if (res->count == 0) break;
    RecState& rs = env.rec[res->stream];
    std::uint64_t value = 0;
    std::memcpy(&value, buf + sizeof(ResFrag), 8);
    OpRecord& rec = hist[res->stream][res->req_seq];  // per-op: req_seq == op index
    rec.start_ns = res->start_ns;
    rec.end_ns = res->end_ns;
    rec.value = value;
    rec.actor = res->stream;
    rs.committed.store(res->req_seq + 1, std::memory_order_release);
    rs.reqs_recorded.store(res->req_seq + 1, std::memory_order_release);
  }
  env.ctl->tiles[record_tile(shape.streams)].state.store(kDone, std::memory_order_release);
  return 0;
}

DeployReport failed(DeployReport report, const std::string& why) {
  report.ok = false;
  report.error = why;
  return report;
}

}  // namespace

DeployReport run_pipeline_deployment(const DeployOptions& options) {
  DeployReport report;
  report.pipelined = true;
  const bool use_links = options.transport == DeployOptions::PipeTransport::kLink;
  report.per_op_ablation = !use_links;
  const std::uint32_t streams = options.tiles != 0        ? options.tiles
                                : options.spec.tiles != 0 ? options.spec.tiles
                                                          : 2;
  report.tiles = streams;
  report.threads_per_tile = 1;

  std::string error;
  if (!validate_deploy_spec(options.spec, streams, 1, &error)) return failed(report, error);
  if (options.threads_per_tile != 1) {
    return failed(report,
                  "deploy: pipeline tiles are single-stage loops; threads_per_tile must "
                  "be 1 (got " +
                      std::to_string(options.threads_per_tile) + ")");
  }
  if (streams > kMaxTiles - 2) {
    return failed(report, "deploy: pipeline needs counter+record slots; tiles must be <= " +
                              std::to_string(kMaxTiles - 2));
  }
  if (std::uint64_t{streams} + 2 > options.spec.max_threads) {
    return failed(report, "deploy: pipeline uses tiles+2 thread slices (" +
                              std::to_string(streams + 2) +
                              ") which exceeds the spec's thread bound " +
                              std::to_string(options.spec.max_threads) +
                              " (raise threads=)");
  }
  if (options.batch == 0) return failed(report, "deploy: batch must be >= 1");
  if (options.total_ops < streams) {
    return failed(report, "deploy: total_ops must cover at least one op per stream");
  }
  if (!use_links && options.spec.fault.die_every != 0) {
    return failed(report,
                  "deploy: the socketpair transport is a clean-run ablation; die: "
                  "requires the link transport");
  }
  link::RingOptions ring_check;
  ring_check.depth = options.link_depth;
  ring_check.burst = options.link_burst;
  if (use_links && !link::Ring::validate(ring_check, &error)) return failed(report, error);

  const std::uint32_t batch = use_links ? options.batch : 1;  // socketpair is per-op
  const PipeShape shape = PipeShape::make(options.total_ops, streams, batch);
  const std::uint32_t n_tiles = streams + 2;
  const std::string ws_name = options.spec.ws.empty() ? "cnet-pipe" : options.spec.ws;

  const topo::Network net = options.spec.build_network();
  const rt::CounterOptions copts = counter_options(options.spec);
  const std::size_t plan_footprint = rt::RoutingPlan::state_footprint(net, copts);
  const std::uint32_t mtu_res =
      static_cast<std::uint32_t>(sizeof(ResFrag) + std::size_t{shape.batch} * 8);

  // Declare the deployment through the builder so link geometry, object
  // footprints, and writer discipline are validated before anything forks.
  Builder builder;
  builder.workspace(ws_name);
  builder.object(kPlanObj, ws_name, rt::RoutingPlan::state_align(),
                 std::max<std::uint64_t>(plan_footprint, 1), /*multi_writer=*/true);
  builder.object(kCtlObj, ws_name, alignof(ControlBlock), sizeof(ControlBlock),
                 /*multi_writer=*/true);
  builder.object(kReqCursorObj, ws_name, alignof(IngressCursor),
                 std::uint64_t{streams} * sizeof(IngressCursor), /*multi_writer=*/true);
  builder.object(kRecStateObj, ws_name, alignof(RecState),
                 std::uint64_t{streams} * sizeof(RecState));
  for (std::uint32_t s = 0; s < streams; ++s) {
    builder.object(stream_hist(s), ws_name, alignof(OpRecord),
                   std::max<std::uint64_t>(shape.quota[s], 1) * sizeof(OpRecord));
  }
  builder.tile("counter", counter_tile(), 1)
      .uses(kPlanObj, MapMode::kReadWrite)
      .uses(kCtlObj, MapMode::kReadWrite)
      .uses(kReqCursorObj, MapMode::kReadOnly);
  for (std::uint32_t s = 0; s < streams; ++s) {
    builder.tile("ingress" + std::to_string(s), ingress_tile(s), 1)
        .uses(kCtlObj, MapMode::kReadWrite)
        .uses(kReqCursorObj, MapMode::kReadWrite)
        .uses(kRecStateObj, MapMode::kReadOnly);
  }
  builder.tile("record", record_tile(streams), 1)
      .uses(kCtlObj, MapMode::kReadWrite)
      .uses(kRecStateObj, MapMode::kReadWrite);
  for (std::uint32_t s = 0; s < streams; ++s) {
    builder.uses(stream_hist(s), MapMode::kReadWrite);
  }
  if (use_links) {
    for (std::uint32_t s = 0; s < streams; ++s) {
      builder.link(req_link_name(s), ws_name, "ingress" + std::to_string(s),
                   options.link_depth, options.link_burst, sizeof(ReqFrag));
      builder.uses_link("ingress" + std::to_string(s), req_link_name(s), LinkDir::kOut);
      builder.uses_link("counter", req_link_name(s), LinkDir::kIn);
    }
    builder.link(kResLink, ws_name, "counter", options.link_depth, options.link_burst,
                 mtu_res);
    builder.uses_link("counter", kResLink, LinkDir::kOut);
    builder.uses_link("record", kResLink, LinkDir::kIn);
  }
  Topology topology;
  if (!builder.finish(&topology, &error)) return failed(report, error);
  std::map<std::string, shm::Workspace> workspaces;
  if (!materialize(topology, &workspaces, &error)) return failed(report, error);
  shm::Workspace& ws = workspaces.at(ws_name);

  // Supervisor-side construction; tiles only attach.
  std::uint64_t found_footprint = 0;
  void* plan_base = ws.find(kPlanObj, &found_footprint);
  rt::RoutingPlan plan(net, copts, rt::PlanArena{plan_base, found_footprint, false});
  auto* ctl = new (ws.find(kCtlObj)) ControlBlock();
  auto* cursors = static_cast<IngressCursor*>(ws.find(kReqCursorObj));
  auto* rec = static_cast<RecState*>(ws.find(kRecStateObj));
  for (std::uint32_t s = 0; s < streams; ++s) {
    new (&cursors[s]) IngressCursor();
    new (&rec[s]) RecState();
  }

  // Socketpair transport: pre-fork SEQPACKET pairs, [0] for the sender.
  std::vector<int> req_sp_tx(streams, -1), req_sp_rx(streams, -1);
  int res_sp_tx = -1, res_sp_rx = -1;
  const auto close_all = [&] {
    for (int& fd : req_sp_tx) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    for (int& fd : req_sp_rx) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    if (res_sp_tx >= 0) ::close(res_sp_tx);
    if (res_sp_rx >= 0) ::close(res_sp_rx);
    res_sp_tx = res_sp_rx = -1;
  };
  if (!use_links) {
    int sp[2];
    for (std::uint32_t s = 0; s < streams; ++s) {
      if (::socketpair(AF_UNIX, SOCK_SEQPACKET, 0, sp) != 0) {
        close_all();
        return failed(report, std::string("deploy: socketpair: ") + std::strerror(errno));
      }
      req_sp_tx[s] = sp[0];
      req_sp_rx[s] = sp[1];
    }
    if (::socketpair(AF_UNIX, SOCK_SEQPACKET, 0, sp) != 0) {
      close_all();
      return failed(report, std::string("deploy: socketpair: ") + std::strerror(errno));
    }
    res_sp_tx = sp[0];
    res_sp_rx = sp[1];
  }

  const int ws_fd = ws.fd();
  const DeployOptions child_options = options;
  Supervisor supervisor(n_tiles, [&child_options, &shape, &req_sp_rx, &req_sp_tx, res_sp_tx,
                                  res_sp_rx, use_links, streams, ws_fd](std::uint32_t tile) {
    if (use_links) {
      if (tile == counter_tile()) return counter_main(child_options, shape, ws_fd);
      if (tile == record_tile(streams)) return record_main(shape, ws_fd);
      return ingress_main(shape, tile - 1, ws_fd);
    }
    if (tile == counter_tile()) {
      return sock_counter_main(child_options, shape, ws_fd, req_sp_rx, res_sp_tx);
    }
    if (tile == record_tile(streams)) return sock_record_main(shape, ws_fd, res_sp_rx);
    return sock_ingress_main(shape, tile - 1, ws_fd, req_sp_tx[tile - 1]);
  });

  const auto fatal = [&](const std::string& why) {
    ctl->stop.store(1, std::memory_order_release);
    close_all();
    return failed(std::move(report), why);
  };

  for (std::uint32_t i = 0; i < n_tiles; ++i) {
    if (!supervisor.spawn(i, &error)) return fatal(error);
  }

  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(options.timeout_s * 1e9);
  for (std::uint32_t ready = 0; ready < n_tiles;) {
    ready = 0;
    for (std::uint32_t i = 0; i < n_tiles; ++i) {
      if (ctl->tiles[i].state.load(std::memory_order_acquire) != kBoot) ++ready;
    }
    if (ready == n_tiles) break;
    if (!supervisor.poll().empty()) return fatal("deploy: a tile died during boot");
    if (now_ns() > deadline) return fatal("deploy: boot timed out");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  const std::uint64_t die_every = use_links ? options.spec.fault.die_every : 0;
  std::uint64_t next_kill = die_every;
  const auto arm_hold = [&](std::uint64_t kills_so_far) {
    const bool armed = die_every != 0 && kills_so_far < options.max_restarts &&
                       next_kill < options.total_ops;
    ctl->hold.store(armed ? next_kill : kNoHold, std::memory_order_release);
  };
  arm_hold(0);
  ctl->go.store(1, std::memory_order_release);

  const auto committed_ops = [&] {
    std::uint64_t total = 0;
    for (std::uint32_t s = 0; s < streams; ++s) {
      total += rec[s].committed.load(std::memory_order_acquire);
    }
    return total;
  };
  const auto recorded_reqs = [&] {
    std::uint64_t total = 0;
    for (std::uint32_t s = 0; s < streams; ++s) {
      total += rec[s].reqs_recorded.load(std::memory_order_acquire);
    }
    return total;
  };

  // Monitor: reap deaths, restart casualties against the persistent
  // workspace and rings, and deliver the die: schedule as real SIGKILLs —
  // the same kill-at-reap discipline as counter_deploy. The counter and
  // record stay up until the run completes, so alongside the unfinished
  // ingress tiles they are standing victims for the rotor.
  std::uint64_t kills = 0, restarts = 0;
  std::uint32_t victim_rotor = 0;
  bool kill_pending = false;
  std::uint32_t pending_victim = 0;
  bool stop_sent = false;
  std::vector<bool> finished(n_tiles, false);
  while (true) {
    for (const Supervisor::Death& death : supervisor.poll()) {
      if (kill_pending && death.tile == pending_victim) {
        kill_pending = false;
        if (death.signaled) {
          ++kills;
          next_kill += die_every;
          arm_hold(kills);  // release the held ingress loops toward the next mark
        }
      }
      if (!death.signaled && death.code == 0) {
        finished[death.tile] = true;
        continue;
      }
      if (!use_links) {
        return fatal("deploy: a pipeline tile died under the socketpair transport (tile " +
                     std::to_string(death.tile) + ", " +
                     (death.signaled ? "signal " : "exit ") + std::to_string(death.code) +
                     "); per-fd stream state does not survive restarts");
      }
      if (restarts >= options.max_restarts) {
        return fatal("deploy: restart budget (" + std::to_string(options.max_restarts) +
                     ") exhausted; last death: tile " + std::to_string(death.tile) +
                     (death.signaled ? " signal " : " exit ") + std::to_string(death.code));
      }
      ++restarts;
      if (!supervisor.spawn(death.tile, &error)) return fatal(error);
    }
    if (!stop_sent && recorded_reqs() >= shape.total_reqs) {
      // Everything is durably recorded; release the counter (which only
      // exits on stop) and any held ingress loops.
      ctl->stop.store(1, std::memory_order_release);
      stop_sent = true;
    }
    if (std::all_of(finished.begin(), finished.end(), [](bool f) { return f; })) break;

    if (die_every != 0 && !kill_pending && kills < options.max_restarts) {
      const std::uint64_t committed = committed_ops();
      if (committed >= next_kill && committed < options.total_ops) {
        for (std::uint32_t tried = 0; tried < n_tiles; ++tried) {
          const std::uint32_t victim = victim_rotor++ % n_tiles;
          if (finished[victim] || !supervisor.alive(victim)) continue;
          if (victim >= 1 && victim <= streams) {
            // An ingress that already published everything may be exiting;
            // a SIGKILL could race its clean exit and evaporate. The
            // counter and record never exit before stop/completion, so
            // they are always safe victims.
            const std::uint32_t s = victim - 1;
            if (cursors[s].reqs_pub.load(std::memory_order_acquire) >= shape.n_reqs[s]) {
              continue;
            }
          }
          if (supervisor.kill_tile(victim)) {
            kill_pending = true;
            pending_victim = victim;
          }
          break;
        }
      }
    }
    if (now_ns() > deadline) return fatal("deploy: run timed out");
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  close_all();

  report.kills = kills;
  report.restarts = restarts;
  report.issued = plan.issued();
  std::uint64_t gaps = 0;
  for (std::uint32_t s = 0; s < streams; ++s) {
    report.dup_requests += rec[s].dups.load(std::memory_order_acquire);
    gaps += rec[s].gaps.load(std::memory_order_acquire);
  }

  // Merge each stream's history below its committed watermark.
  for (std::uint32_t s = 0; s < streams; ++s) {
    const auto* hist = static_cast<const OpRecord*>(ws.find(stream_hist(s)));
    const std::uint64_t committed = rec[s].committed.load(std::memory_order_acquire);
    for (std::uint64_t k = 0; k < committed; ++k) {
      lin::Operation op;
      op.start = static_cast<double>(hist[k].start_ns);
      op.end = static_cast<double>(hist[k].end_ns);
      op.value = hist[k].value;
      op.actor = hist[k].actor;
      report.history.push_back(op);
    }
  }
  report.ops_recorded = report.history.size();
  report.lost_values = report.issued - report.ops_recorded;

  double min_start = 0.0, max_end = 0.0;
  for (std::size_t i = 0; i < report.history.size(); ++i) {
    const lin::Operation& op = report.history[i];
    if (i == 0 || op.start < min_start) min_start = op.start;
    if (i == 0 || op.end > max_end) max_end = op.end;
  }
  report.makespan_ns = max_end - min_start;
  if (report.makespan_ns > 0) {
    report.throughput_ops_s =
        static_cast<double>(report.ops_recorded) / (report.makespan_ns * 1e-9);
  }

  if (gaps != 0) {
    return failed(std::move(report),
                  "deploy: record observed " + std::to_string(gaps) +
                      " request gaps - a reliable link dropped or reordered a frag");
  }

  // Checks, mirroring counter_deploy: the step property from the plan's
  // own output counters, then exact-range (clean) or loss-bounded
  // uniqueness (kills). The pipeline's in-flight loss per kill is 2 x
  // batch — a drained-but-unsent batch plus a replayed request's values —
  // and tokens vaporized mid-network skew exits by at most batch per kill.
  const std::uint32_t w = net.output_width();
  std::vector<std::uint64_t> per_output(w);
  for (std::uint32_t p = 0; p < w; ++p) per_output[p] = plan.output_count(p);
  if (kills == 0) {
    report.step_ok = topo::has_step_property(per_output);
  } else {
    const std::uint64_t step_slack = kills * shape.batch;
    const auto [mn, mx] = std::minmax_element(per_output.begin(), per_output.end());
    report.step_ok = *mx - *mn <= 1 + step_slack;
  }
  report.analysis = lin::check(report.history);

  if (kills == 0) {
    report.guarantee = DeployReport::Guarantee::kLinearizable;
    report.counting_ok = lin::values_form_range(report.history, &report.counting_message);
    if (report.counting_ok && report.lost_values != 0) {
      report.counting_ok = false;
      report.counting_message = "plan issued " + std::to_string(report.issued) +
                                " tokens but only " + std::to_string(report.ops_recorded) +
                                " were recorded, with no kills to explain the gap";
    }
    if (report.counting_ok) report.counting_message = "values form an exact range";
  } else {
    report.guarantee = DeployReport::Guarantee::kCountingOnlyLossy;
    std::vector<std::uint64_t> values;
    values.reserve(report.history.size());
    for (const lin::Operation& op : report.history) values.push_back(op.value);
    std::sort(values.begin(), values.end());
    const bool unique = std::adjacent_find(values.begin(), values.end()) == values.end();
    bool claimed = true;
    for (const std::uint64_t v : values) {
      const std::uint32_t port = static_cast<std::uint32_t>(v % w);
      if (v / w >= per_output[port]) {
        claimed = false;
        break;
      }
    }
    const std::uint64_t loss_bound = kills * 2 * shape.batch;
    report.counting_ok = unique && claimed && report.lost_values <= loss_bound &&
                         report.ops_recorded == options.total_ops;
    if (report.counting_ok) {
      report.counting_message =
          "unique claimed values; " + std::to_string(report.lost_values) +
          " lost in flight (bound " + std::to_string(loss_bound) + ", " +
          std::to_string(report.dup_requests) + " dup requests dropped)";
    } else if (!unique) {
      report.counting_message = "duplicate value in the merged history";
    } else if (!claimed) {
      report.counting_message = "history holds a value the plan never issued";
    } else if (report.ops_recorded != options.total_ops) {
      report.counting_message = "recorded " + std::to_string(report.ops_recorded) + " of " +
                                std::to_string(options.total_ops) + " ops";
    } else {
      report.counting_message = std::to_string(report.lost_values) +
                                " values lost exceeds the in-flight bound " +
                                std::to_string(loss_bound);
    }
  }

  report.ok = report.counting_ok && report.step_ok;
  return report;
}

}  // namespace cnet::deploy
