// MessagePool: slab-backed, thread-cached allocator for MpscNode mailbox
// entries — the reason a steady-state actor send never touches malloc.
//
// Shape (the firedancer idiom of preallocated frame pools, adapted to an
// unknown client-thread population):
//
//   * storage is allocated in slabs of kSlabNodes nodes, owned by the pool
//     and freed only by its destructor — nodes are never returned to the
//     system individually, so a node pointer is valid for the pool's whole
//     lifetime;
//   * each (thread, pool) pair gets a small private freelist cache;
//     acquire/release are plain pointer pushes/pops on it — no atomics, no
//     locks, no allocation;
//   * caches re-balance through a mutex-guarded shared freelist in batches
//     of kExchangeBatch nodes. The mp traffic pattern is asymmetric (client
//     threads allocate one node per count() and never free; workers free
//     depth+1 and allocate depth per operation), so clients refill from the
//     shared list and workers donate their surplus back — each thread takes
//     the lock once per kExchangeBatch operations, off the per-message path.
//
// Steady state is allocation-free: once the slab population covers the peak
// in-flight message count plus the cache working set, stats().slabs stops
// moving (asserted by tests/mp_mpsc_queue_test.cpp and the bench). The cache
// working set is provisioned up front rather than discovered: a thread cache
// never holds more than kCacheMax - 1 nodes, so whenever a cache is claimed
// the pool grows until it covers a full cache for every other claimed cache
// plus one slab. From then on a slab is allocated only when nodes in flight
// exceed that slab of slack, so how warm the pool is no longer depends on
// whether every cache happened to be full at the same moment (an event that
// could take tens of thousands of operations to occur). Threads known in
// advance (an ActorRuntime's workers) are counted by reserve() and claim
// their caches with attach(); the next ordinary claim provisions for them,
// so nothing is allocated on those threads or at start-up.
//
// Thread caches survive the pool they belong to (they live in TLS); each
// cache entry is keyed by (pool address, pool generation) where generations
// are process-unique, so an entry whose pool died — or whose address was
// reused by a younger pool — is detected and its dangling node pointers are
// dropped without being dereferenced. A thread that exits drops its cache
// the same way; its claim stays counted, so the provisioning still covers
// the nodes lost with it.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "mp/mpsc_queue.h"

namespace cnet::mp {

class MessagePool {
 public:
  /// Nodes per slab allocation (the only malloc the pool ever does).
  static constexpr std::uint32_t kSlabNodes = 128;
  /// Nodes moved per shared-list exchange (refill or donation).
  static constexpr std::uint32_t kExchangeBatch = 64;
  /// A thread cache donates down to kCacheMax - kExchangeBatch once it
  /// grows past kCacheMax nodes.
  static constexpr std::uint32_t kCacheMax = 160;

  MessagePool();
  ~MessagePool();

  MessagePool(const MessagePool&) = delete;
  MessagePool& operator=(const MessagePool&) = delete;

  /// One mailbox node, freshly reusable. Lock-free and allocation-free
  /// except when the calling thread's cache is empty (then one mutex-guarded
  /// batch refill, and a slab allocation only if the shared list is dry).
  MpscNode* acquire();

  /// Returns a node to the calling thread's cache; donates a batch to the
  /// shared list when the cache overflows.
  void release(MpscNode* node);

  /// Counts `caches` thread caches that will be claimed with attach(); the
  /// next claim by any other thread provisions their working set.
  void reserve(std::uint32_t caches);

  /// Claims the calling thread's cache against an earlier reserve(); call it
  /// before the thread's first acquire or release.
  void attach() { cache_for_this_thread(true); }

  /// Allocation counters for the steady-state tests and bench: once warm,
  /// `slabs`/`nodes` must stop growing while `refills`/`donations` keep
  /// pace with traffic.
  struct Stats {
    std::uint64_t slabs = 0;      ///< slab mallocs (kSlabNodes nodes each)
    std::uint64_t nodes = 0;      ///< total nodes ever created
    std::uint64_t refills = 0;    ///< batch takes from the shared list
    std::uint64_t donations = 0;  ///< batch gives to the shared list
    std::uint64_t caches = 0;     ///< thread caches claimed or reserved
  };
  Stats stats() const;

 private:
  struct Cache;  // the TLS entry type, private to the .cpp

  /// This thread's cache slots (fixed-size array; see kCacheSlots in the
  /// .cpp). A static member so the thread_local can name the private type.
  static Cache* tls_slots();

  /// This thread's cache, claimed on first use; a claim is counted and
  /// provisioned unless it was `reserved`.
  Cache& cache_for_this_thread(bool reserved = false);
  /// Grows the pool to cover caches_ full caches; mutex_ held.
  void provision();
  /// Allocates one slab and chains its nodes onto `head`; mutex_ held.
  void add_slab(MpscNode*& head);
  void refill(Cache& cache);
  void donate(Cache& cache);

  const std::uint64_t generation_;  ///< process-unique pool identity

  mutable std::mutex mutex_;
  MpscNode* shared_head_ = nullptr;  ///< freelist chained through node->next
  std::uint64_t shared_size_ = 0;
  std::vector<std::unique_ptr<MpscNode[]>> slabs_;
  std::uint64_t caches_ = 0;  ///< thread caches claimed or reserved
  std::uint64_t refills_ = 0;
  std::uint64_t donations_ = 0;
};

}  // namespace cnet::mp
