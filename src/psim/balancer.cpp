#include "psim/balancer.h"

#include "util/assert.h"

namespace cnet::psim {
namespace {

// Prism slot states: 0 = empty, otherwise proc+1, possibly with kPaired set
// by the partner that collided with the waiter.
constexpr std::uint64_t kPaired = 1ull << 32;

}  // namespace

McsToggleBalancer::McsToggleBalancer(Engine& engine, Memory& mem, std::uint32_t max_procs,
                                     std::uint32_t fan_out)
    : engine_(&engine), lock_(mem, max_procs), fan_out_(fan_out) {
  CNET_CHECK(fan_out >= 1);
  count_addr_ = mem.alloc(0);
}

Coro<std::uint32_t> McsToggleBalancer::traverse(std::uint32_t proc, Rng&) {
  return lock_.toggle(proc, count_addr_, fan_out_, engine_->now(), stats_);
}

DiffractingBalancer::DiffractingBalancer(Engine& engine, Memory& mem, std::uint32_t max_procs,
                                         const PrismParams& params)
    : engine_(&engine), mem_(&mem), lock_(mem, max_procs), params_(params) {
  CNET_CHECK(params.width >= 1);
  toggle_addr_ = mem.alloc(0);
  prism_.reserve(params.width);
  for (std::uint32_t i = 0; i < params.width; ++i) prism_.push_back(mem.alloc(0));
}

Coro<std::uint32_t> DiffractingBalancer::traverse(std::uint32_t proc, Rng& rng) {
  const Cycle arrival = engine_->now();
  const std::uint64_t my_id = proc + 1;

  // Collision-race losses retry the prism for free; only expired camping
  // windows consume the attempt budget (the adaptive-retry policy of [20]).
  for (std::uint32_t camps = 0; camps < params_.attempts;) {
    const std::uint32_t slot = prism_[rng.below(prism_.size())];
    std::uint64_t seen = co_await mem_->load(slot);

    if (seen == 0) {
      // Try to become the waiter on this slot.
      if (co_await mem_->cas(slot, 0, my_id) != 0) continue;
      const Cycle deadline = engine_->now() + params_.spin;
      while (engine_->now() < deadline) {
        if (co_await mem_->load(slot) == (my_id | kPaired)) {
          // A partner diffracted off us; hand the slot back and go up.
          co_await mem_->store(slot, 0);
          ++stats_.diffractions;
          co_return 0;
        }
      }
      // Timed out: retract. Failure means a partner paired concurrently —
      // the only transition away from my_id is to my_id|kPaired.
      if (co_await mem_->cas(slot, my_id, 0) != my_id) {
        while (co_await mem_->load(slot) != (my_id | kPaired)) {
        }
        co_await mem_->store(slot, 0);
        ++stats_.diffractions;
        co_return 0;
      }
      ++camps;   // an expired camping window consumes attempt budget
      continue;
    }

    if ((seen & kPaired) == 0) {
      // A waiter is camped on the slot: try to collide with it.
      if (co_await mem_->cas(slot, seen, seen | kPaired) == seen) {
        ++stats_.diffractions;
        co_return 1;
      }
    }
  }
  co_return co_await lock_.toggle(proc, toggle_addr_, 2, arrival, stats_);
}

}  // namespace cnet::psim
