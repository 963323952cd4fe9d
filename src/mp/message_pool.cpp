#include "mp/message_pool.h"

#include <atomic>

#include "util/assert.h"

namespace cnet::mp {
namespace {

/// Process-unique pool generations: lets a TLS cache entry tell a live pool
/// from a dead one whose address was reused.
std::atomic<std::uint64_t> g_pool_generation{0};

/// Cache slots per thread. A thread rarely touches more than one or two
/// pools at once (each lock-free ActorRuntime owns one); on overflow the
/// evicted entry's nodes are dropped — their slab storage is reclaimed when
/// the owning pool dies, so a drop wastes reuse, never memory.
constexpr std::uint32_t kCacheSlots = 4;

}  // namespace

struct MessagePool::Cache {
  const MessagePool* pool = nullptr;
  std::uint64_t generation = 0;
  MpscNode* head = nullptr;
  std::uint32_t size = 0;
};

namespace {

thread_local std::uint32_t tls_evict_cursor = 0;

}  // namespace

MessagePool::Cache* MessagePool::tls_slots() {
  thread_local Cache caches[kCacheSlots]{};
  return caches;
}

MessagePool::MessagePool()
    : generation_(g_pool_generation.fetch_add(1, std::memory_order_relaxed) + 1) {}

MessagePool::~MessagePool() = default;  // slabs_ frees every node ever made

void MessagePool::reserve(std::uint32_t caches) {
  const std::scoped_lock lock(mutex_);
  caches_ += caches;
}

MessagePool::Cache& MessagePool::cache_for_this_thread(bool reserved) {
  Cache* caches = tls_slots();
  for (std::uint32_t i = 0; i < kCacheSlots; ++i) {
    Cache& cache = caches[i];
    if (cache.pool == this && cache.generation == generation_) return cache;
  }
  // No live entry for this pool: claim a stale slot, else evict round-robin.
  // Either way the displaced nodes belong to a pool we cannot prove alive,
  // so they are dropped, not flushed (see the header).
  Cache* victim = nullptr;
  for (std::uint32_t i = 0; i < kCacheSlots; ++i) {
    if (caches[i].pool == nullptr) {
      victim = &caches[i];
      break;
    }
  }
  if (victim == nullptr) {
    victim = &caches[tls_evict_cursor++ % kCacheSlots];
  }
  victim->pool = this;
  victim->generation = generation_;
  victim->head = nullptr;
  victim->size = 0;
  if (!reserved) {
    const std::scoped_lock lock(mutex_);
    ++caches_;
    provision();
  }
  return *victim;
}

void MessagePool::provision() {
  // Every other cache may hold up to kCacheMax - 1 nodes; one more slab
  // covers the newest cache's first refill and the nodes in flight.
  const std::uint64_t want = (caches_ - 1) * kCacheMax + kSlabNodes;
  while (static_cast<std::uint64_t>(slabs_.size()) * kSlabNodes < want) {
    add_slab(shared_head_);
    shared_size_ += kSlabNodes;
  }
}

void MessagePool::add_slab(MpscNode*& head) {
  auto slab = std::make_unique<MpscNode[]>(kSlabNodes);
  for (std::uint32_t i = 0; i < kSlabNodes; ++i) {
    slab[i].next.store(head, std::memory_order_relaxed);
    head = &slab[i];
  }
  slabs_.push_back(std::move(slab));
}

MpscNode* MessagePool::acquire() {
  Cache& cache = cache_for_this_thread();
  if (cache.head == nullptr) refill(cache);
  MpscNode* node = cache.head;
  cache.head = node->next.load(std::memory_order_relaxed);
  --cache.size;
  return node;
}

void MessagePool::release(MpscNode* node) {
  Cache& cache = cache_for_this_thread();
  node->next.store(cache.head, std::memory_order_relaxed);
  cache.head = node;
  if (++cache.size >= kCacheMax) donate(cache);
}

void MessagePool::refill(Cache& cache) {
  const std::scoped_lock lock(mutex_);
  if (shared_head_ != nullptr) {
    ++refills_;
    std::uint32_t taken = 0;
    while (shared_head_ != nullptr && taken < kExchangeBatch) {
      MpscNode* node = shared_head_;
      shared_head_ = node->next.load(std::memory_order_relaxed);
      --shared_size_;
      node->next.store(cache.head, std::memory_order_relaxed);
      cache.head = node;
      ++taken;
    }
    cache.size += taken;
    return;
  }
  // Shared list dry: grow by one slab, handed whole to this cache.
  add_slab(cache.head);
  cache.size += kSlabNodes;
}

void MessagePool::donate(Cache& cache) {
  CNET_CHECK(cache.size >= kExchangeBatch);
  // Detach kExchangeBatch nodes from the cache head, then splice the chain
  // onto the shared list under the lock.
  MpscNode* chain_head = cache.head;
  MpscNode* chain_tail = cache.head;
  for (std::uint32_t i = 1; i < kExchangeBatch; ++i) {
    chain_tail = chain_tail->next.load(std::memory_order_relaxed);
  }
  cache.head = chain_tail->next.load(std::memory_order_relaxed);
  cache.size -= kExchangeBatch;

  const std::scoped_lock lock(mutex_);
  chain_tail->next.store(shared_head_, std::memory_order_relaxed);
  shared_head_ = chain_head;
  shared_size_ += kExchangeBatch;
  ++donations_;
}

MessagePool::Stats MessagePool::stats() const {
  const std::scoped_lock lock(mutex_);
  Stats stats;
  stats.slabs = slabs_.size();
  stats.nodes = static_cast<std::uint64_t>(slabs_.size()) * kSlabNodes;
  stats.refills = refills_;
  stats.donations = donations_;
  stats.caches = caches_;
  return stats;
}

}  // namespace cnet::mp
