// Entry-wire orders (topo::Network::entry_order): every builder yields a
// deterministic permutation, and on the structured families the order keeps
// the first k issuers' paths apart at least as deep as a brute-force greedy
// search over the network's cones does.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "topo/builders.h"

namespace cnet::topo {
namespace {

std::vector<std::uint32_t> identity(std::uint32_t width) {
  std::vector<std::uint32_t> order(width);
  std::iota(order.begin(), order.end(), 0u);
  return order;
}

bool is_permutation_of_inputs(const Network& net) {
  const std::vector<std::uint32_t>& order = net.entry_order();
  if (order.size() != net.input_width()) return false;
  std::vector<bool> seen(order.size(), false);
  for (const std::uint32_t wire : order) {
    if (wire >= order.size() || seen[wire]) return false;
    seen[wire] = true;
  }
  return true;
}

/// Brute-force cones: cone_[n] is the set of input wires (a bitmask; inputs
/// <= 64) from which node n is reachable.
class Cones {
 public:
  explicit Cones(const Network& net) : net_(net), cone_(net.node_count(), 0) {
    EXPECT_LE(net.input_width(), 64u);
    for (const auto& layer : net.layers()) {
      for (const NodeId id : layer) {
        for (const InLink& link : net.node(id).in) {
          cone_[id] |= link.node == kNoNode ? bit(link.port) : cone_[link.node];
        }
      }
    }
  }

  /// First layer holding a node reachable from two of `wires`; depth + 1
  /// when their paths never share a node.
  std::uint32_t meet_layer(std::uint64_t wires) const {
    std::uint32_t first = net_.depth() + 1;
    for (NodeId id = 0; id < net_.node_count(); ++id) {
      if (std::popcount(cone_[id] & wires) >= 2) first = std::min(first, net_.node(id).layer);
    }
    return first;
  }

  /// meet_layer of each prefix of `order`: entry k - 1 is for its first k
  /// wires.
  std::vector<std::uint32_t> prefix_meets(const std::vector<std::uint32_t>& order) const {
    std::vector<std::uint32_t> meets;
    std::uint64_t wires = 0;
    for (const std::uint32_t wire : order) {
      wires |= bit(wire);
      meets.push_back(meet_layer(wires));
    }
    return meets;
  }

  /// The oracle: repeatedly add the wire that keeps the chosen set's meet
  /// layer deepest, the lowest-numbered one on ties.
  std::vector<std::uint32_t> greedy_order() const {
    std::vector<std::uint32_t> order;
    std::uint64_t chosen = 0;
    for (std::uint32_t k = 0; k < net_.input_width(); ++k) {
      std::uint32_t best_wire = 0;
      std::uint32_t best_meet = 0;
      for (std::uint32_t w = 0; w < net_.input_width(); ++w) {
        if ((chosen & bit(w)) != 0) continue;
        const std::uint32_t meet = meet_layer(chosen | bit(w));
        if (meet > best_meet) {
          best_meet = meet;
          best_wire = w;
        }
      }
      order.push_back(best_wire);
      chosen |= bit(best_wire);
    }
    return order;
  }

 private:
  static std::uint64_t bit(std::uint32_t wire) { return std::uint64_t{1} << wire; }

  const Network& net_;
  std::vector<std::uint64_t> cone_;
};

/// Depth of Bitonic[m]: log m (log m + 1) / 2.
std::uint32_t bitonic_depth(std::uint32_t m) {
  const std::uint32_t lg = log2_exact(m);
  return lg * (lg + 1) / 2;
}

struct Family {
  std::string name;
  std::function<Network(std::uint32_t)> make;
};

/// Every builder, at a power-of-two width.
std::vector<Family> all_builders() {
  return {
      {"balancer", [](std::uint32_t w) { return make_balancer(w); }},
      {"bitonic", [](std::uint32_t w) { return make_bitonic(w); }},
      {"merger", [](std::uint32_t w) { return make_merger(w); }},
      {"periodic", [](std::uint32_t w) { return make_periodic(w); }},
      {"block", [](std::uint32_t w) { return make_block(w); }},
      {"tree", [](std::uint32_t w) { return make_counting_tree(w); }},
      {"kary_tree", [](std::uint32_t w) { return make_kary_tree(w, 1); }},
      {"padded_bitonic", [](std::uint32_t w) { return make_padded(make_bitonic(w), 3); }},
      {"padded_periodic", [](std::uint32_t w) { return make_padded(make_periodic(w), 2); }},
      {"serial", [](std::uint32_t w) { return make_serial(make_bitonic(w), make_block(w)); }},
      {"parallel",
       [](std::uint32_t w) {
         return w == 2 ? make_parallel(make_balancer(1), make_balancer(1))
                       : make_parallel(make_bitonic(w / 2), make_periodic(w / 2));
       }},
  };
}

/// The families the order is claimed to be good on.
std::vector<Family> structured_builders() {
  return {
      {"bitonic", [](std::uint32_t w) { return make_bitonic(w); }},
      {"periodic", [](std::uint32_t w) { return make_periodic(w); }},
      {"tree", [](std::uint32_t w) { return make_counting_tree(w); }},
      {"padded_bitonic", [](std::uint32_t w) { return make_padded(make_bitonic(w), 4); }},
      {"padded_periodic", [](std::uint32_t w) { return make_padded(make_periodic(w), 2); }},
  };
}

TEST(EntryOrder, EveryBuilderGivesADeterministicPermutation) {
  for (const Family& family : all_builders()) {
    for (std::uint32_t w = 2; w <= 64; w *= 2) {
      const Network net = family.make(w);
      SCOPED_TRACE(family.name + " width " + std::to_string(w));
      EXPECT_TRUE(is_permutation_of_inputs(net));
      // A restarted deployment tile rebuilds the network and must hand its
      // issuers the same wires.
      EXPECT_EQ(family.make(w).entry_order(), net.entry_order());
      for (std::uint32_t issuer = 0; issuer < 3 * net.input_width(); ++issuer) {
        ASSERT_EQ(net.entry_wire(issuer), net.entry_order()[issuer % net.input_width()]);
      }
    }
  }
}

TEST(EntryOrder, KaryTreesHaveOneEntry) {
  for (std::uint32_t fan = 2; fan <= 8; ++fan) {
    const Network net = make_kary_tree(fan, 2);
    EXPECT_EQ(net.entry_order(), std::vector<std::uint32_t>{0});
    EXPECT_EQ(net.entry_wire(7), 0u);
  }
}

TEST(EntryOrder, BitonicIsBitReversed) {
  EXPECT_EQ(make_bitonic(8).entry_order(), (std::vector<std::uint32_t>{0, 4, 2, 6, 1, 5, 3, 7}));
  EXPECT_EQ(make_bitonic(2).entry_order(), (std::vector<std::uint32_t>{0, 1}));
  const Network b32 = make_bitonic(32);
  EXPECT_EQ(b32.entry_wire(0), 0u);
  EXPECT_EQ(b32.entry_wire(1), 16u);
  EXPECT_EQ(b32.entry_wire(2), 8u);
  EXPECT_EQ(b32.entry_wire(3), 24u);
  EXPECT_EQ(b32.entry_wire(33), 16u);
}

TEST(EntryOrder, UnstructuredFamiliesKeepIdentity) {
  for (std::uint32_t w = 2; w <= 64; w *= 2) {
    SCOPED_TRACE("width " + std::to_string(w));
    EXPECT_EQ(make_periodic(w).entry_order(), identity(w));
    EXPECT_EQ(make_block(w).entry_order(), identity(w));
    EXPECT_EQ(make_merger(w).entry_order(), identity(w));
    EXPECT_EQ(make_balancer(w).entry_order(), identity(w));
    EXPECT_EQ(make_counting_tree(w).entry_order(), identity(1));
  }
}

TEST(EntryOrder, CompositionsInheritTheirParts) {
  for (std::uint32_t w = 2; w <= 64; w *= 2) {
    SCOPED_TRACE("width " + std::to_string(w));
    const Network bitonic = make_bitonic(w);
    for (const std::uint32_t prefix : {0u, 1u, 5u}) {
      EXPECT_EQ(make_padded(bitonic, prefix).entry_order(), bitonic.entry_order());
      EXPECT_EQ(make_padded(make_periodic(w), prefix).entry_order(), identity(w));
    }
    EXPECT_EQ(make_serial(bitonic, make_periodic(w)).entry_order(), bitonic.entry_order());
    EXPECT_EQ(make_serial(make_periodic(w), bitonic).entry_order(), identity(w));
    if (w >= 4) {
      // Bitonic[w] = Bitonic[w/2] || Bitonic[w/2] -> Merger[w]: interleaving
      // the halves' orders is the bit-reversed order of the whole.
      const Network half = make_bitonic(w / 2);
      EXPECT_EQ(make_parallel(half, half).entry_order(), bitonic.entry_order());
    }
  }
  // Unequal parts: alternate while both have wires, then the rest in order.
  EXPECT_EQ(make_parallel(make_bitonic(4), make_balancer(2)).entry_order(),
            (std::vector<std::uint32_t>{0, 4, 2, 5, 1, 3}));
}

TEST(EntryOrder, BuilderRejectsANonPermutation) {
  const auto build_with = [](std::vector<std::uint32_t> order) {
    NetworkBuilder b(2, 2);
    const NodeId id = b.add_node(2, 2);
    b.attach_input(0, id, 0);
    b.attach_input(1, id, 1);
    b.attach_output(id, 0, 0);
    b.attach_output(id, 1, 1);
    b.set_entry_order(std::move(order));
    return b.build();
  };
  EXPECT_EQ(build_with({1, 0}).entry_order(), (std::vector<std::uint32_t>{1, 0}));
  EXPECT_DEATH(build_with({1, 1}), "not a permutation");
  EXPECT_DEATH(build_with({0, 2}), "not a permutation");
  EXPECT_DEATH(build_with({0}), "wrong width");
}

TEST(EntryOrder, PrefixesMeetNoShallowerThanTheGreedyConeOracle) {
  for (const Family& family : structured_builders()) {
    for (std::uint32_t w = 2; w <= 64; w *= 2) {
      const Network net = family.make(w);
      SCOPED_TRACE(family.name + " width " + std::to_string(w));
      const Cones cones(net);
      const std::vector<std::uint32_t> ours = cones.prefix_meets(net.entry_order());
      const std::vector<std::uint32_t> oracle = cones.prefix_meets(cones.greedy_order());
      ASSERT_EQ(ours.size(), oracle.size());
      for (std::size_t k = 0; k < ours.size(); ++k) {
        EXPECT_GE(ours[k], oracle[k]) << "first " << k + 1 << " issuers";
      }
    }
  }
}

TEST(EntryOrder, BitonicPowerOfTwoPrefixesOwnDisjointSubnetworks) {
  // The first k = 2^j issuers each own one Bitonic[w/k]; their paths first
  // meet in the merger layer right after it, 1 + d(w/k). (k = 1: never,
  // which reads as depth + 1 = 1 + d(w).)
  for (std::uint32_t w = 2; w <= 64; w *= 2) {
    const Network net = make_bitonic(w);
    const Cones cones(net);
    const std::vector<std::uint32_t> meets = cones.prefix_meets(net.entry_order());
    for (std::uint32_t k = 1; k <= w; k *= 2) {
      EXPECT_EQ(meets[k - 1], 1 + bitonic_depth(w / k)) << "width " << w << " k " << k;
    }
  }
}

TEST(EntryOrder, GreedyOracleFindsTheIdentityOnPeriodic) {
  // Periodic[w]'s first layer pairs wire i with w-1-i, so the cones of the
  // lowest-numbered wires stay apart as long as any: the oracle, which
  // breaks ties toward low wires, picks the identity the builder keeps.
  for (std::uint32_t w = 2; w <= 64; w *= 2) {
    EXPECT_EQ(Cones(make_periodic(w)).greedy_order(), identity(w)) << "width " << w;
  }
}

}  // namespace
}  // namespace cnet::topo
