// Simulated shared memory with per-word serialization and fixed access
// latency — the distributed-shared-memory substitute for the Alewife machine
// of the paper's §5 experiments.
//
// Model: every access (load, store, or atomic read-modify-write) to a word
// is serviced when the word is free, occupies the word for `occupancy`
// cycles (modelling directory/line serialization under contention), and
// delivers its response to the issuing processor after `latency` cycles from
// service start. Accesses to distinct words proceed independently.
//
// Atomicity: the engine is single-threaded and the per-word busy-until
// chain serializes same-word accesses in issue order, so applying each
// operation's effect at issue time is equivalent to applying it at service
// time; read-modify-writes are therefore atomic by construction.
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "psim/engine.h"
#include "util/assert.h"

namespace cnet::psim {

struct MemParams {
  // Defaults calibrated against the Alewife numbers of the paper's Figure 7
  // (see EXPERIMENTS.md): a remote shared-memory access costs ~40 cycles and
  // the line stays busy ~24 cycles under contention.
  Cycle latency = 40;    ///< cycles from service start to processor resume
  Cycle occupancy = 24;  ///< cycles the word stays busy per access

  // Optional interconnect / memory-module contention (off by default; used
  // by the ablation_interconnect bench): when banks > 0, an access also
  // occupies bank (addr mod banks) for bank_occupancy cycles, so global
  // traffic inflates everyone's effective latency — the Alewife effect that
  // makes the paper's bitonic Tog grow ~2.5x from n = 4 to 256.
  std::uint32_t banks = 0;
  Cycle bank_occupancy = 2;
};

class Memory {
 public:
  Memory(Engine& engine, MemParams params) : engine_(&engine), params_(params) {
    CNET_CHECK(params.latency >= 1);
    CNET_CHECK(params.occupancy >= 1);
    if (params.banks > 0) {
      CNET_CHECK(params.bank_occupancy >= 1);
      banks_.assign(params.banks, 0);
    }
  }

  /// Allocates a fresh shared word; returns its address.
  std::uint32_t alloc(std::uint64_t init = 0) {
    words_.push_back(Word{init, 0});
    return static_cast<std::uint32_t>(words_.size() - 1);
  }

  /// Host-level inspection (no simulated cost) — for metrics and tests only.
  std::uint64_t peek(std::uint32_t addr) const { return words_[addr].value; }

  std::uint64_t accesses() const { return accesses_; }

  /// The engine whose clock this memory runs on.
  Engine& engine() const { return *engine_; }

  /// Awaitable memory response.
  struct Access {
    Engine* engine;
    Cycle done_at;
    std::uint64_t result;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const { engine->schedule(h, done_at); }
    std::uint64_t await_resume() const noexcept { return result; }
  };

  /// Returns the word's value.
  Access load(std::uint32_t addr) {
    return access(addr, [](std::uint64_t v) { return v; });
  }

  /// Writes `v`; returns `v`.
  Access store(std::uint32_t addr, std::uint64_t v) {
    return access(addr, [v](std::uint64_t&) { return v; }, v);
  }

  /// Atomically adds `d`; returns the *previous* value.
  Access fetch_add(std::uint32_t addr, std::uint64_t d) {
    return rmw(addr, [d](std::uint64_t old) { return old + d; });
  }

  /// Atomically writes `v`; returns the previous value.
  Access swap(std::uint32_t addr, std::uint64_t v) {
    return rmw(addr, [v](std::uint64_t) { return v; });
  }

  /// Compare-and-swap; returns the previous value (success iff it equals
  /// `expected`).
  Access cas(std::uint32_t addr, std::uint64_t expected, std::uint64_t desired) {
    return rmw(addr, [expected, desired](std::uint64_t old) {
      return old == expected ? desired : old;
    });
  }

 private:
  struct Word {
    std::uint64_t value;
    Cycle busy_until;
  };

  Cycle admit(std::uint32_t addr) {
    CNET_CHECK(addr < words_.size());
    ++accesses_;
    Word& word = words_[addr];
    Cycle service_start = std::max(engine_->now(), word.busy_until);
    if (!banks_.empty()) {
      Cycle& bank = banks_[addr % banks_.size()];
      service_start = std::max(service_start, bank);
      bank = service_start + params_.bank_occupancy;
    }
    word.busy_until = service_start + params_.occupancy;
    return service_start + params_.latency;
  }

  template <typename ReadFn>
  Access access(std::uint32_t addr, ReadFn read) {
    const Cycle done = admit(addr);
    return Access{engine_, done, read(words_[addr].value)};
  }

  template <typename WriteFn>
  Access access(std::uint32_t addr, WriteFn, std::uint64_t v) {
    const Cycle done = admit(addr);
    words_[addr].value = v;
    return Access{engine_, done, v};
  }

  template <typename Fn>
  Access rmw(std::uint32_t addr, Fn fn) {
    const Cycle done = admit(addr);
    const std::uint64_t old = words_[addr].value;
    words_[addr].value = fn(old);
    return Access{engine_, done, old};
  }

  Engine* engine_;
  MemParams params_;
  std::vector<Word> words_;
  std::vector<Cycle> banks_;  ///< per-bank busy-until; empty when disabled
  std::uint64_t accesses_ = 0;
};

}  // namespace cnet::psim
