#include "rt/network_counter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "obs/backend_metrics.h"
#include "rt/diffracting_tree.h"
#include "topo/builders.h"

namespace cnet::rt {
namespace {

std::vector<std::uint64_t> hammer(NetworkCounter& counter, unsigned n_threads,
                                  int per_thread) {
  std::vector<std::vector<std::uint64_t>> values(n_threads);
  {
    std::vector<std::jthread> threads;
    for (unsigned t = 0; t < n_threads; ++t) {
      threads.emplace_back([&, t] {
        values[t].reserve(per_thread);
        for (int i = 0; i < per_thread; ++i) values[t].push_back(counter.next(t));
      });
    }
  }
  std::vector<std::uint64_t> all;
  for (auto& v : values) all.insert(all.end(), v.begin(), v.end());
  return all;
}

void expect_range(std::vector<std::uint64_t> values) {
  std::sort(values.begin(), values.end());
  for (std::uint64_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(values[i], i) << "at rank " << i;
  }
}

TEST(NetworkCounter, SingleThreadSequential) {
  NetworkCounter counter(topo::make_bitonic(8));
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(counter.next(0, 0), i);
  EXPECT_EQ(counter.issued(), 100u);
}

TEST(NetworkCounter, SingleThreadAcrossInputs) {
  NetworkCounter counter(topo::make_bitonic(8));
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(counter.next(0, static_cast<std::uint32_t>(i % 8)), i);
  }
}

class CounterConfigs : public ::testing::TestWithParam<int> {};

TEST_P(CounterConfigs, ConcurrentValuesFormRange) {
  const int config = GetParam();
  CounterOptions options;
  topo::Network net = topo::make_bitonic(16);
  switch (config) {
    case 0:
      options.mode = BalancerMode::kFetchAdd;
      break;
    case 1:
      options.mode = BalancerMode::kMcsLocked;
      break;
    case 2:
      net = topo::make_periodic(8);
      break;
    case 3:
      net = topo::make_counting_tree(16);
      options.diffraction = true;
      break;
    case 4:
      net = topo::make_padded(topo::make_bitonic(8), 10);
      break;
    default:
      FAIL();
  }
  NetworkCounter counter(std::move(net), options);
  const unsigned n_threads = std::min(8u, std::max(2u, std::thread::hardware_concurrency()));
  const auto values = hammer(counter, n_threads, 10000);
  expect_range(values);
  EXPECT_EQ(counter.issued(), values.size());
}

INSTANTIATE_TEST_SUITE_P(Configs, CounterConfigs, ::testing::Range(0, 5));

TEST(NetworkCounter, TreeSingleInputConvenience) {
  NetworkCounter counter(topo::make_counting_tree(8));
  // A tree has one input: every issuer enters there.
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(counter.next(3), i);
}

TEST(NetworkCounter, IssuersEnterAtTheTopologyEntryOrder) {
  // On Bitonic[32] the first four issuers each own a Bitonic[8]: they enter
  // wires 0, 16, 8, 24 (four distinct layer-1 balancers), not 0..3, which
  // would pair them on two.
  const topo::Network net = topo::make_bitonic(32);
  const std::uint32_t expected[] = {0, 16, 8, 24};
  CounterOptions options;
  options.max_threads = 8;
#if CNET_OBS
  obs::CounterMetrics metrics;
  options.metrics = &metrics;
#endif
  NetworkCounter counter(net, options);
  std::vector<topo::NodeId> first_balancers;
  for (std::uint32_t t = 0; t < 4; ++t) {
    EXPECT_EQ(counter.entry_wire(t), expected[t]);
    const topo::NodeId first = net.inputs()[expected[t]].node;
    first_balancers.push_back(first);
#if CNET_OBS
    const std::uint64_t before = metrics.balancer_visits.value(first);
    counter.next(t);
    EXPECT_EQ(metrics.balancer_visits.value(first), before + 1) << "issuer " << t;
#endif
  }
  std::sort(first_balancers.begin(), first_balancers.end());
  EXPECT_EQ(std::unique(first_balancers.begin(), first_balancers.end()), first_balancers.end());
  // Issuer ids past the precomputed slots follow the same rule.
  for (std::uint32_t t : {8u, 31u, 33u, 5000u, 0xffffffffu}) {
    EXPECT_EQ(counter.entry_wire(t), net.entry_wire(t)) << "issuer " << t;
  }
}

TEST(DiffractingTree, SequentialValues) {
  DiffractingTree tree(16);
  EXPECT_EQ(tree.width(), 16u);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(tree.next(0), i);
}

TEST(DiffractingTree, ConcurrentRange) {
  DiffractingTree tree(32);
  const unsigned n_threads = std::min(16u, std::max(2u, std::thread::hardware_concurrency()));
  std::vector<std::vector<std::uint64_t>> values(n_threads);
  {
    std::vector<std::jthread> threads;
    for (unsigned t = 0; t < n_threads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < 20000; ++i) values[t].push_back(tree.next(t));
      });
    }
  }
  std::vector<std::uint64_t> all;
  for (auto& v : values) all.insert(all.end(), v.begin(), v.end());
  expect_range(all);
}

TEST(NetworkCounter, PerThreadValuesStrictlyIncrease) {
  // Each thread's own observations must increase: its ops are sequential,
  // and a counting network without extreme timing skew hands a later
  // operation of the same thread a larger value... but that is exactly
  // linearizability, which is NOT guaranteed. What IS guaranteed: values
  // are globally unique. This test pins the weaker contract.
  NetworkCounter counter(topo::make_bitonic(8));
  const auto values = hammer(counter, 4, 5000);
  expect_range(values);
}

TEST(NetworkCounter, ExplicitPrismConfiguration) {
  CounterOptions options;
  options.diffraction = true;
  options.prism_width = 2;
  options.prism_spin = 8;
  NetworkCounter counter(topo::make_counting_tree(8), options);
  const auto values = hammer(counter, 4, 5000);
  expect_range(values);
}

TEST(NetworkCounterDeath, BadInput) {
  NetworkCounter counter(topo::make_bitonic(8));
  EXPECT_DEATH(counter.next(0, 8), "");
}

TEST(NetworkCounterDeath, ThreadIdBeyondMax) {
  CounterOptions options;
  options.max_threads = 4;
  NetworkCounter counter(topo::make_bitonic(8), options);
  EXPECT_DEATH(counter.next(4, 0), "");
  EXPECT_DEATH(counter.next(4), "");
}

}  // namespace
}  // namespace cnet::rt
