// Mellor-Crummey & Scott queue lock over simulated shared memory [18].
//
// This is the lock the paper uses to protect every balancer in the bitonic
// network ("Every balancer is implemented as a critical section protected by
// an MCS queue-lock"). Its FIFO handoff is what makes the toggle wait Tog a
// clean queueing-delay measurement in Figure 7.
//
// Queue nodes live in simulated memory, one per (lock, processor): a
// processor holds at most one pending acquisition per lock at a time, which
// is all the balancer traversal code needs. Spinning is local (each waiter
// spins on its own `locked` word), as in the original algorithm.
//
// The protocol is written once, in pass(). toggle() runs a balancer's whole
// critical section — acquire, counter update, release — in that single
// coroutine frame, which is what every balancer hop costs; acquire() and
// release() expose the two halves for critical sections of any other shape.
#pragma once

#include <cstdint>
#include <vector>

#include "psim/coro.h"
#include "psim/engine.h"
#include "psim/memory.h"
#include "util/stats.h"

namespace cnet::psim {

struct BalancerStats {
  Summary tog_wait;               ///< per toggling token: arrival -> toggled
  std::uint64_t toggles = 0;      ///< tokens that went through the toggle
  std::uint64_t diffractions = 0; ///< tokens that left via a prism collision
};

class McsLock {
 public:
  /// `max_procs` bounds the processor ids that may acquire the lock.
  McsLock(Memory& mem, std::uint32_t max_procs);

  /// A balancer's critical section as one coroutine: acquire, load the
  /// traversal counter at `counter` and store it plus one, add the wait
  /// since `arrival` to stats.tog_wait (and count the toggle), release.
  /// Returns the loaded count modulo `fan_out`: the token's exit port.
  Coro<std::uint32_t> toggle(std::uint32_t proc, std::uint32_t counter, std::uint32_t fan_out,
                             Cycle arrival, BalancerStats& stats) {
    return pass(proc, true, Section{counter, fan_out, arrival, &stats}, true);
  }

  /// Blocks (in simulated time) until `proc` holds the lock.
  Coro<void> acquire(std::uint32_t proc);

  /// Releases the lock; `proc` must be the current holder.
  Coro<void> release(std::uint32_t proc);

 private:
  /// toggle()'s counter update; stats == nullptr means none.
  struct Section {
    std::uint32_t counter = 0;
    std::uint32_t fan_out = 1;
    Cycle arrival = 0;
    BalancerStats* stats = nullptr;
  };

  /// The MCS protocol: the acquire half if `enter`, then `section`, then the
  /// release half if `leave`. Returns the section's port (0 without one).
  Coro<std::uint32_t> pass(std::uint32_t proc, bool enter, Section section, bool leave);

  // Queue-node ids in the tail word are proc + 1; 0 means "no waiter".
  Memory* mem_;
  std::uint32_t tail_;
  struct QNode {
    std::uint32_t next;    ///< address: successor's id or 0
    std::uint32_t locked;  ///< address: 1 while the owner must keep waiting
  };
  std::vector<QNode> qnodes_;
};

}  // namespace cnet::psim
