// mp runtime + service behaviour, parameterized over both engines: the
// lock-free fast path (MPSC mailboxes, sharded run queues, futex cells) and
// the mutex+condvar oracle must be observationally identical — same
// per-actor FIFO, same message counts, same counting-property values. The
// lock-free-only suites pin the steady-state allocation guarantees (pool
// slabs and response cells stop growing once warm).
#include "mp/network_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mp/actor_runtime.h"
#include "mp/response_cell.h"
#include "obs/backend_metrics.h"
#include "topo/builders.h"

namespace cnet::mp {
namespace {

std::string engine_name(const ::testing::TestParamInfo<Engine>& info) {
  return info.param == Engine::kLockFree ? "lockfree" : "locked";
}

class MpActorRuntime : public ::testing::TestWithParam<Engine> {};

TEST_P(MpActorRuntime, DeliversInOrderPerActor) {
  ActorRuntime runtime(ActorRuntime::Options{.workers = 2, .engine = GetParam()});
  std::vector<std::uint64_t> seen;
  const ActorId actor = runtime.add_actor([&seen](ActorId, const Message& message) {
    seen.push_back(message.payload);  // serialized per actor: no lock needed
  });
  std::mutex done_mutex;
  std::condition_variable done_cv;
  bool done = false;
  const ActorId finisher = runtime.add_actor([&](ActorId, const Message&) {
    const std::scoped_lock lock(done_mutex);
    done = true;
    done_cv.notify_one();
  });
  runtime.start();
  for (std::uint64_t i = 0; i <= 1000; ++i) runtime.send(actor, Message{i, nullptr});
  // Sends from one thread to one actor are FIFO; we only need all of them
  // processed before asserting, so poll the counter then ring the finisher.
  while (runtime.messages_processed() < 1001) std::this_thread::yield();
  runtime.send(finisher, Message{});
  {
    std::unique_lock lock(done_mutex);
    done_cv.wait(lock, [&done] { return done; });
  }
  ASSERT_EQ(seen.size(), 1001u);
  for (std::uint64_t i = 0; i <= 1000; ++i) EXPECT_EQ(seen[i], i);
}

TEST_P(MpActorRuntime, CountsProcessedMessages) {
  ActorRuntime runtime(ActorRuntime::Options{.workers = 1, .engine = GetParam()});
  const ActorId sink = runtime.add_actor([](ActorId, const Message&) {});
  runtime.start();
  for (int i = 0; i < 50; ++i) runtime.send(sink, Message{});
  while (runtime.messages_processed() < 50) std::this_thread::yield();
  EXPECT_EQ(runtime.messages_processed(), 50u);
}

TEST_P(MpActorRuntime, ManyProducersOneConsumerKeepPerProducerOrder) {
  ActorRuntime runtime(ActorRuntime::Options{.workers = 2, .engine = GetParam()});
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 3000;
  // payload = producer * kPerProducer + sequence; the single actor must see
  // each producer's sequence ascending even though arrivals interleave.
  std::vector<std::uint64_t> next_expected(kProducers, 0);
  std::uint64_t violations = 0;
  const ActorId actor = runtime.add_actor([&](ActorId, const Message& message) {
    const std::uint64_t producer = message.payload / kPerProducer;
    const std::uint64_t seq = message.payload % kPerProducer;
    if (seq != next_expected[producer]) ++violations;
    next_expected[producer] = seq + 1;
  });
  runtime.start();
  {
    std::vector<std::jthread> producers;
    for (std::uint64_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&runtime, actor, p] {
        for (std::uint64_t i = 0; i < kPerProducer; ++i) {
          runtime.send(actor, Message{p * kPerProducer + i, nullptr});
        }
      });
    }
  }
  while (runtime.messages_processed() < kProducers * kPerProducer) std::this_thread::yield();
  EXPECT_EQ(violations, 0u);
  for (std::uint64_t p = 0; p < kProducers; ++p) EXPECT_EQ(next_expected[p], kPerProducer);
}

INSTANTIATE_TEST_SUITE_P(Engines, MpActorRuntime,
                         ::testing::Values(Engine::kLockFree, Engine::kLocked), engine_name);

class MpNetworkService : public ::testing::TestWithParam<Engine> {};

TEST_P(MpNetworkService, SequentialCountsMatchReference) {
  const topo::Network net = topo::make_bitonic(8);
  NetworkService service(net, {.workers = 2, .engine = GetParam()});
  topo::SequentialRouter reference(net);
  for (int i = 0; i < 200; ++i) {
    const auto input = static_cast<std::uint32_t>(i % 8);
    EXPECT_EQ(service.count(input), reference.next_value(input));
  }
}

TEST_P(MpNetworkService, MessageCountMatchesTopology) {
  // Every operation generates exactly depth+1 messages in a uniform network
  // (one per balancer hop plus the counter delivery) — for the bitonic all
  // paths have equal length = depth.
  const topo::Network net = topo::make_bitonic(4);
  NetworkService service(net, {.workers = 1, .engine = GetParam()});
  const int ops = 100;
  for (int i = 0; i < ops; ++i) service.count(static_cast<std::uint32_t>(i % 4));
  // The processed counter is incremented after the handler returns, which
  // races the client wakeup from inside the final handler: poll briefly.
  const auto expected = static_cast<std::uint64_t>(ops) * (net.depth() + 1);
  while (service.messages_processed() < expected) std::this_thread::yield();
  EXPECT_EQ(service.messages_processed(), expected);
}

TEST_P(MpNetworkService, DelayedCountsStillCountCorrectly) {
  // count_delayed carries the paper's W inside the token message; the busy
  // wait must not perturb the values (only the timing).
  const topo::Network net = topo::make_bitonic(4);
  NetworkService service(net, {.workers = 2, .engine = GetParam()});
  topo::SequentialRouter reference(net);
  for (int i = 0; i < 50; ++i) {
    const auto input = static_cast<std::uint32_t>(i % 4);
    EXPECT_EQ(service.count_delayed(input, /*wait_ns=*/500), reference.next_value(input));
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, MpNetworkService,
                         ::testing::Values(Engine::kLockFree, Engine::kLocked), engine_name);

/// Param = topology * 2 + engine: the uniqueness sweep covers every
/// (bitonic, periodic, tree) x (lockfree, locked) cell.
class MpTopologies : public ::testing::TestWithParam<int> {};

TEST_P(MpTopologies, ConcurrentClientsGetUniqueValues) {
  const int topology = GetParam() / 2;
  const Engine engine = GetParam() % 2 == 0 ? Engine::kLockFree : Engine::kLocked;
  const topo::Network net = topology == 0   ? topo::make_bitonic(8)
                            : topology == 1 ? topo::make_periodic(8)
                                            : topo::make_counting_tree(8);
  NetworkService service(net, {.workers = 3, .engine = engine});
  const unsigned clients = 4;
  const int per_client = 2000;
  std::vector<std::vector<std::uint64_t>> values(clients);
  {
    std::vector<std::jthread> threads;
    for (unsigned c = 0; c < clients; ++c) {
      threads.emplace_back([&service, &mine = values[c], &net, c] {
        for (int i = 0; i < per_client; ++i) {
          mine.push_back(service.count(c % net.input_width()));
        }
      });
    }
  }
  std::vector<std::uint64_t> all;
  for (auto& v : values) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<std::size_t>(clients) * per_client);
  for (std::uint64_t i = 0; i < all.size(); ++i) ASSERT_EQ(all[i], i);
}

INSTANTIATE_TEST_SUITE_P(Cells, MpTopologies, ::testing::Range(0, 6));

TEST(MpSteadyState, PoolSlabsStopGrowingOnceWarm) {
  const topo::Network net = topo::make_bitonic(8);
  constexpr std::uint32_t kWorkers = 2;
  NetworkService service(net, {.workers = kWorkers, .engine = Engine::kLockFree});
  constexpr unsigned kClients = 4;
  constexpr int kBatchOps = 500;  // per client
  constexpr int kMaxWarmBatches = 200;
  // Warm-up runs in batches until every thread has claimed its pool cache
  // (the pool provisions each claimed cache's working set) and one whole
  // batch has added no slab; a fixed warm-up length cannot promise the
  // first. The client threads stay alive across the snapshots (their pool
  // caches are thread-local); main joins the barrier to read the stats
  // while all operations are quiescent.
  std::barrier sync(kClients + 1);
  std::atomic<bool> warm{false};
  MessagePool::Stats before;
  int warm_batches = 0;
  {
    std::vector<std::jthread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
      clients.emplace_back([&service, &sync, &warm, c] {
        do {
          for (int i = 0; i < kBatchOps; ++i) service.count(c % 8);
          sync.arrive_and_wait();  // batch done, none in flight
          sync.arrive_and_wait();  // main has read the stats
        } while (!warm.load());
        for (int i = 0; i < 2000; ++i) service.count(c % 8);  // steady state
      });
    }
    std::uint64_t slabs = 0;
    do {
      sync.arrive_and_wait();
      before = service.pool_stats();
      ++warm_batches;
      const bool settled = before.caches >= kClients + kWorkers && before.slabs == slabs;
      slabs = before.slabs;
      warm.store(settled || warm_batches == kMaxWarmBatches);
      sync.arrive_and_wait();
    } while (!warm.load());
  }
  const MessagePool::Stats after = service.pool_stats();
  ASSERT_LT(warm_batches, kMaxWarmBatches) << "the pool did not settle during warm-up";
  EXPECT_GT(before.slabs, 0u);
  EXPECT_EQ(after.slabs, before.slabs) << "hot path allocated at steady state";
  EXPECT_EQ(after.nodes, before.nodes);
  // No refill floor: a client whose tokens run inline acquires and releases
  // in its own thread cache, so the shared list may never be touched — the
  // cross-thread circulation path is pinned by MpMessagePool tests instead.
  EXPECT_GE(after.refills, before.refills);
}

TEST(MpSteadyState, LockedEngineReportsNoPoolTraffic) {
  const topo::Network net = topo::make_bitonic(4);
  NetworkService service(net, {.workers = 1, .engine = Engine::kLocked});
  for (int i = 0; i < 100; ++i) service.count(static_cast<std::uint32_t>(i % 4));
  const MessagePool::Stats stats = service.pool_stats();
  EXPECT_EQ(stats.slabs, 0u);
  EXPECT_EQ(stats.nodes, 0u);
}

TEST(MpSteadyState, ResponseCellsAreRecycledPerThread) {
  const topo::Network net = topo::make_bitonic(4);
  NetworkService service(net, {.workers = 2, .engine = Engine::kLockFree});
  service.count(0);  // this thread's first operation may create its one cell
  const std::uint64_t before = ResponseCellCache::cells_created();
  for (int i = 0; i < 1000; ++i) service.count(static_cast<std::uint32_t>(i % 4));
  EXPECT_EQ(ResponseCellCache::cells_created(), before)
      << "count() constructed response cells at steady state";
}

TEST(MpSteadyState, ResponseCellsSurviveThreadChurn) {
  // Short-lived client threads are the risky regime for the futex protocol:
  // a waiter can leave await_futex via the spin loop and its thread can exit
  // while the completer's notify_one is still in flight. Cells must outlive
  // the exiting thread (the TLS cache donates them to the process arena),
  // and later threads must adopt those cells instead of constructing fresh
  // ones. ASan/LSan in CI vets the lifetime half; the creation count here
  // pins the adoption half.
  const topo::Network net = topo::make_bitonic(4);
  NetworkService service(net, {.workers = 2, .engine = Engine::kLockFree});
  std::jthread([&service] { service.count(0); }).join();  // donor warm-up
  const std::uint64_t before = ResponseCellCache::cells_created();
  const ResponseCellCache::ArenaStats arena_before = ResponseCellCache::arena_stats();
  for (int round = 0; round < 50; ++round) {
    std::jthread([&service, round] {
      for (int i = 0; i < 20; ++i) service.count(static_cast<std::uint32_t>((round + i) % 4));
    }).join();  // thread exit donates its cell back to the arena
  }
  EXPECT_EQ(ResponseCellCache::cells_created(), before)
      << "exiting clients leaked cells instead of donating them for adoption";
  // The arena's lifecycle counters show the actual circulation: every round
  // adopted the donor's cell and donated it back on exit.
  const ResponseCellCache::ArenaStats arena_after = ResponseCellCache::arena_stats();
  EXPECT_GE(arena_after.adoptions, arena_before.adoptions + 50);
  EXPECT_GE(arena_after.thread_donations, arena_before.thread_donations + 50);
  EXPECT_GT(arena_after.free_cells, 0u);
}

#if CNET_OBS
class MpObsIntegration : public ::testing::TestWithParam<Engine> {};

TEST_P(MpObsIntegration, MetricsMatchMessageFlow) {
  const topo::Network net = topo::make_bitonic(4);
  obs::MpMetrics metrics;
  NetworkService service(net, {.workers = 2, .engine = GetParam(), .metrics = &metrics});
  constexpr std::uint64_t kOps = 200;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    service.count(static_cast<std::uint32_t>(i % net.input_width()));
  }
  const auto expected = kOps * (net.depth() + 1);
  while (service.messages_processed() < expected) std::this_thread::yield();

  EXPECT_EQ(metrics.tokens.value(), kOps);
  EXPECT_EQ(metrics.count_latency_ns.total(), kOps);
  // Uniform network: each operation is depth balancer hops plus one counter
  // delivery, and the per-actor breakdown sums to the same totals.
  EXPECT_EQ(metrics.node_messages.value(), kOps * net.depth());
  EXPECT_EQ(metrics.counter_messages.value(), kOps);
  const auto node_count = static_cast<std::uint32_t>(net.node_count());
  std::uint64_t node_total = 0;
  std::uint64_t counter_total = 0;
  const std::vector<std::uint64_t> per_actor = metrics.actor_messages.values();
  ASSERT_EQ(per_actor.size(), node_count + net.output_width());
  for (std::uint32_t a = 0; a < per_actor.size(); ++a) {
    (a < node_count ? node_total : counter_total) += per_actor[a];
  }
  EXPECT_EQ(node_total, kOps * net.depth());
  EXPECT_EQ(counter_total, kOps);
  // Every enqueue observed a mailbox depth (clients + forwarded tokens).
  // Under the lock-free engine the depth values are approximate (relaxed
  // sharded counter) but the sample count is exact: one per send.
  EXPECT_EQ(metrics.queue_depth.total(), kOps * (net.depth() + 1));
}

INSTANTIATE_TEST_SUITE_P(Engines, MpObsIntegration,
                         ::testing::Values(Engine::kLockFree, Engine::kLocked), engine_name);
#endif  // CNET_OBS

}  // namespace
}  // namespace cnet::mp
