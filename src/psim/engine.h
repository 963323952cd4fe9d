// Cycle-level discrete-event engine: the heart of the Proteus-substitute
// multiprocessor simulator (see DESIGN.md §2 for the substitution argument).
//
// The engine is single-threaded and fully deterministic: events fire in
// (cycle, sequence) order, so two runs with the same parameters and seed
// produce identical histories. Simulated processors are Coro<> coroutines
// that suspend on Engine::sleep and on Memory accesses.
//
// Implementation: a hierarchical bucketed timing wheel (calendar queue)
// instead of a binary heap. Level l has 256 slots of 256^l cycles each, so
// the four levels cover any delay below 2^32 cycles; farther events park in
// an overflow list that is re-bucketed when the wheels drain. Insertion
// places an event at the level of the most significant slot-digit in which
// its cycle differs from `now` — each level-0 slot therefore holds events of
// exactly one cycle — and per-level occupancy bitmaps locate the next busy
// slot with a couple of word scans. schedule() and the per-event firing work
// are O(1) amortized (each event cascades through at most kLevels buckets),
// versus the heap's O(log pending) per event: with 256 simulated processors
// parked on 100k-cycle waits (the Figure 5/6/7 cells), that log factor was
// most of the engine's time.
//
// Ordering contract, preserved bit-for-bit from the heap implementation
// (psim::HeapEngine, kept in heap_engine.h as ground truth): events fire in
// strictly increasing (cycle, seq), where seq is schedule() call order. A
// level-0 slot is sorted by seq before firing because direct insertion and
// cascades from outer levels can interleave out of seq order; events a
// handler schedules for the *current* cycle land in the live slot and fire
// after the already-sorted batch — exactly the heap's behavior, since their
// seq is larger than everything already drained.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <coroutine>
#include <cstdint>
#include <vector>

#include "util/assert.h"

namespace cnet::psim {

using Cycle = std::uint64_t;

/// Deterministic single-threaded discrete-event scheduler over coroutine
/// handles (see the file comment for the timing-wheel design). psim code
/// observes it through now()/sleep()/schedule(); the observability layer
/// reads events_processed() after a run and never mutates engine state.
class Engine {
 public:
  /// The cycle currently being simulated (monotone during run()).
  Cycle now() const { return now_; }

  /// Resume `h` at absolute cycle `at`.
  void schedule(std::coroutine_handle<> h, Cycle at) {
    CNET_CHECK_MSG(at >= now_, "cannot schedule into the simulated past");
    insert(Event{at, next_seq_++, h});
    ++pending_;
  }

  /// Run until no events remain (all processors finished or parked).
  void run() {
    while (pending_ != 0) {
      bool advanced = false;
      for (unsigned level = 0; level < kLevels; ++level) {
        const auto idx = static_cast<unsigned>((now_ >> (kSlotBits * level)) & kSlotMask);
        const int slot = first_occupied(level, idx);
        if (slot < 0) continue;
        if (level == 0) {
          fire(static_cast<unsigned>(slot));
        } else {
          cascade(level, static_cast<unsigned>(slot));
        }
        advanced = true;
        break;
      }
      if (!advanced) refill_from_overflow();
    }
  }

  /// Total events ever scheduled (== fired once run() returns); exported as
  /// the psim.events metric and a cheap proxy for simulation effort.
  std::uint64_t events_processed() const { return next_seq_; }

  /// Awaitable: suspend the current processor for `dt` cycles. sleep(0)
  /// continues immediately without touching the event queue.
  auto sleep(Cycle dt) {
    struct Awaiter {
      Engine& engine;
      Cycle dt;
      bool await_ready() const noexcept { return dt == 0; }
      void await_suspend(std::coroutine_handle<> h) const {
        engine.schedule(h, engine.now_ + dt);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, dt};
  }

 private:
  static constexpr unsigned kSlotBits = 8;
  static constexpr unsigned kSlots = 1u << kSlotBits;
  static constexpr unsigned kSlotMask = kSlots - 1;
  static constexpr unsigned kLevels = 4;
  static constexpr unsigned kHorizonBits = kSlotBits * kLevels;
  static constexpr unsigned kBitmapWords = kSlots / 64;

  struct Event {
    Cycle at;
    std::uint64_t seq;
    std::coroutine_handle<> handle;
  };

  /// Buckets `ev` by the most significant slot-digit where ev.at differs
  /// from now_. at == now_ degenerates to level 0, current slot: an event
  /// scheduled for the cycle being fired joins the live slot.
  void insert(const Event& ev) {
    const Cycle diff = ev.at ^ now_;
    if ((diff >> kHorizonBits) != 0) {
      overflow_.push_back(ev);
      return;
    }
    unsigned level = 0;
    while ((diff >> (kSlotBits * (level + 1))) != 0) ++level;
    const auto slot = static_cast<unsigned>((ev.at >> (kSlotBits * level)) & kSlotMask);
    wheel_[level][slot].push_back(ev);
    bitmap_[level][slot >> 6] |= 1ull << (slot & 63);
  }

  /// First occupied slot index >= from at `level`, or -1. Events never hide
  /// below `from`: an unfired event's cycle exceeds now_, so its digit at
  /// its bucketing level exceeds now_'s digit there.
  int first_occupied(unsigned level, unsigned from) const {
    unsigned word = from >> 6;
    std::uint64_t bits = bitmap_[level][word] & (~0ull << (from & 63));
    while (true) {
      if (bits != 0) return static_cast<int>((word << 6) + std::countr_zero(bits));
      if (++word == kBitmapWords) return -1;
      bits = bitmap_[level][word];
    }
  }

  /// Fires every event in level-0 slot `s` (all share one cycle) in seq
  /// order, including events the handlers append for the same cycle.
  void fire(unsigned s) {
    now_ = (now_ & ~Cycle{kSlotMask}) | Cycle{s};
    auto& slot = wheel_[0][s];
    while (!slot.empty()) {
      batch_.clear();
      batch_.swap(slot);
      bitmap_[0][s >> 6] &= ~(1ull << (s & 63));
      if (batch_.size() > 1) {
        std::sort(batch_.begin(), batch_.end(),
                  [](const Event& a, const Event& b) { return a.seq < b.seq; });
      }
      for (const Event& ev : batch_) {
        --pending_;
        ev.handle.resume();
      }
    }
  }

  /// Advances now_ to the start of level-`level` slot `s`'s window (<= every
  /// event inside) and re-buckets its events into finer levels.
  void cascade(unsigned level, unsigned s) {
    spill_.clear();
    spill_.swap(wheel_[level][s]);
    bitmap_[level][s >> 6] &= ~(1ull << (s & 63));
    const unsigned shift = kSlotBits * level;
    now_ = (now_ & ~((Cycle{1} << (shift + kSlotBits)) - 1)) | (Cycle{s} << shift);
    for (const Event& ev : spill_) insert(ev);
  }

  /// Wheels are empty but events wait beyond the horizon: jump now_ to the
  /// earliest one's wheel window and re-bucket whatever fits.
  void refill_from_overflow() {
    CNET_CHECK_MSG(!overflow_.empty(), "pending events but empty wheel and overflow");
    Cycle min_at = overflow_.front().at;
    for (const Event& ev : overflow_) min_at = std::min(min_at, ev.at);
    const Cycle horizon_mask = (Cycle{1} << kHorizonBits) - 1;
    now_ = std::max(now_, min_at & ~horizon_mask);
    spill_.clear();
    spill_.swap(overflow_);
    for (const Event& ev : spill_) insert(ev);  // re-parks what still won't fit
  }

  Cycle now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t pending_ = 0;
  std::array<std::array<std::vector<Event>, kSlots>, kLevels> wheel_{};
  std::array<std::array<std::uint64_t, kBitmapWords>, kLevels> bitmap_{};
  std::vector<Event> overflow_;
  std::vector<Event> batch_;  ///< fire() scratch
  std::vector<Event> spill_;  ///< cascade()/refill scratch
};

}  // namespace cnet::psim
