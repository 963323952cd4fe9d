#include "rt/ticket_buffer.h"

#include "util/assert.h"

namespace cnet::rt {

TicketBuffer::TicketBuffer(Options options)
    : options_(options),
      enqueue_tickets_(topo::make_bitonic(options.network_width),
                       [&] {
                         CounterOptions counter;
                         counter.max_threads = options.max_threads;
                         return counter;
                       }()),
      dequeue_tickets_(topo::make_bitonic(options.network_width),
                       [&] {
                         CounterOptions counter;
                         counter.max_threads = options.max_threads;
                         return counter;
                       }()) {
  CNET_CHECK_MSG(topo::is_pow2(options.capacity) && options.capacity >= 2,
                 "capacity must be a power of two >= 2");
  slots_ = std::make_unique<Padded<Slot>[]>(options.capacity);
  // Vyukov-style sequencing: slot i accepts enqueue ticket t when
  // sequence == t (initially t == i for the first lap).
  for (std::uint32_t i = 0; i < options.capacity; ++i) {
    slots_[i]->sequence.store(i, std::memory_order_relaxed);
  }
}

void TicketBuffer::enqueue(std::uint32_t thread_id, Item item) {
  const std::uint64_t ticket = enqueue_tickets_.next(thread_id);
  Slot& slot = *slots_[ticket % options_.capacity];
  SpinWaiter waiter;
  while (slot.sequence.load(std::memory_order_acquire) != ticket) {
    waiter.wait();  // buffer full: the previous lap's occupant has not left
  }
  slot.item = item;
  slot.sequence.store(ticket + 1, std::memory_order_release);
}

TicketBuffer::Item TicketBuffer::dequeue(std::uint32_t thread_id) {
  const std::uint64_t ticket = dequeue_tickets_.next(thread_id);
  Slot& slot = *slots_[ticket % options_.capacity];
  SpinWaiter waiter;
  while (slot.sequence.load(std::memory_order_acquire) != ticket + 1) {
    waiter.wait();  // the matching enqueue has not landed yet
  }
  const Item item = slot.item;
  slot.sequence.store(ticket + options_.capacity, std::memory_order_release);
  return item;
}

}  // namespace cnet::rt
