#include "psim/mcs_lock.h"

#include "util/assert.h"

namespace cnet::psim {

McsLock::McsLock(Memory& mem, std::uint32_t max_procs) : mem_(&mem) {
  tail_ = mem.alloc(0);
  qnodes_.reserve(max_procs);
  for (std::uint32_t p = 0; p < max_procs; ++p) {
    qnodes_.push_back(QNode{mem.alloc(0), mem.alloc(0)});
  }
}

Coro<void> McsLock::acquire(std::uint32_t proc) {
  co_await pass(proc, true, Section{}, false);
}

Coro<void> McsLock::release(std::uint32_t proc) {
  co_await pass(proc, false, Section{}, true);
}

Coro<std::uint32_t> McsLock::pass(std::uint32_t proc, bool enter, Section section, bool leave) {
  CNET_CHECK(proc < qnodes_.size());
  const QNode& me = qnodes_[proc];
  const std::uint64_t my_id = proc + 1;

  if (enter) {
    co_await mem_->store(me.next, 0);
    const std::uint64_t pred = co_await mem_->swap(tail_, my_id);
    if (pred != 0) {
      // Mark ourselves waiting *before* linking behind the predecessor, so
      // its release cannot read `next` and clear a flag we have not set yet.
      co_await mem_->store(me.locked, 1);
      co_await mem_->store(qnodes_[pred - 1].next, my_id);
      // Local spin: each probe is one simulated memory access on our own word.
      while (co_await mem_->load(me.locked) != 0) {
      }
    }
  }

  std::uint32_t port = 0;
  if (section.stats != nullptr) {
    // Read and advance the traversal counter (for a 2x2 balancer its low
    // bit is the toggle bit of [4]).
    const std::uint64_t count = co_await mem_->load(section.counter);
    co_await mem_->store(section.counter, count + 1);
    section.stats->tog_wait.add(static_cast<double>(mem_->engine().now() - section.arrival));
    ++section.stats->toggles;
    port = static_cast<std::uint32_t>(count % section.fan_out);
  }

  if (leave) {
    std::uint64_t next = co_await mem_->load(me.next);
    if (next == 0) {
      // No known successor: try to swing the tail back to empty.
      const std::uint64_t old = co_await mem_->cas(tail_, my_id, 0);
      if (old == my_id) co_return port;
      // A successor is in the middle of linking in; wait for it to appear.
      do {
        next = co_await mem_->load(me.next);
      } while (next == 0);
    }
    co_await mem_->store(qnodes_[next - 1].locked, 0);
  }
  co_return port;
}

}  // namespace cnet::psim
