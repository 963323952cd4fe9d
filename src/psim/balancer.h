// Simulated balancer implementations for the §5 experiments.
//
//  * McsToggleBalancer  — the bitonic-network balancer: a critical section
//    (MCS queue lock) around a traversal counter; the t-th token leaves on
//    output t mod fan_out. For 2x2 balancers this is exactly the toggle-bit
//    balancer of [4].
//  * DiffractingBalancer — the prism balancer of Shavit/Zemach [21] and the
//    elimination-style pairing of Shavit/Touitou [20]: a token first tries
//    to collide with a partner on a randomly chosen prism slot; a collided
//    pair leaves on opposite outputs without touching the toggle, otherwise
//    the token times out and falls through to the MCS-protected toggle.
//
// Both record the toggle wait Tog — the time from arrival at the balancer
// until the toggle transition — which the paper uses to estimate the
// effective c2/c1 ratio ((Tog + W) / Tog, Figure 7).
#pragma once

#include <cstdint>
#include <vector>

#include "psim/coro.h"
#include "psim/engine.h"
#include "psim/mcs_lock.h"
#include "psim/memory.h"
#include "util/rng.h"

namespace cnet::psim {

// Balancers are concrete classes with no common virtual interface: the
// machine stores each kind by value and dispatches a hop on the node's kind,
// so the per-hop path makes no virtual call. BalancerStats lives in
// mcs_lock.h, beside the critical section that fills it.

class McsToggleBalancer {
 public:
  McsToggleBalancer(Engine& engine, Memory& mem, std::uint32_t max_procs,
                    std::uint32_t fan_out);

  /// Routes one token of processor `proc` through the balancer; returns the
  /// output port. Simulated time passes inside. The returned coroutine is
  /// the lock's critical section itself: one frame per hop.
  Coro<std::uint32_t> traverse(std::uint32_t proc, Rng& rng);

  const BalancerStats& stats() const { return stats_; }

 private:
  Engine* engine_;
  McsLock lock_;
  std::uint32_t fan_out_;
  std::uint32_t count_addr_;  ///< tokens traversed; port = count % fan_out
  BalancerStats stats_;
};

struct PrismParams {
  /// Number of prism slots. 0 means "auto": the machine scales the prism to
  /// the concurrency and halves it per tree layer, as in the multi-prism
  /// construction of [20] (root prism ~ n/2 slots, min 2).
  std::uint32_t width = 0;
  Cycle spin = 700;           ///< cycles a waiter camps on its slot
  /// Expired camping windows tolerated before falling to the toggle
  /// (collision-race losses retry for free).
  std::uint32_t attempts = 1;
};

class DiffractingBalancer {
 public:
  /// 1-in/2-out prism balancer (the only shape diffracting trees use).
  DiffractingBalancer(Engine& engine, Memory& mem, std::uint32_t max_procs,
                      const PrismParams& params);

  /// As McsToggleBalancer::traverse; a token that finds no partner falls
  /// through to the lock's toggle section.
  Coro<std::uint32_t> traverse(std::uint32_t proc, Rng& rng);

  const BalancerStats& stats() const { return stats_; }

 private:
  Engine* engine_;
  Memory* mem_;
  McsLock lock_;
  PrismParams params_;
  std::uint32_t toggle_addr_;  ///< toggle-path tokens; port = count % 2
  std::vector<std::uint32_t> prism_;  ///< slot addresses
  BalancerStats stats_;
};

}  // namespace cnet::psim
