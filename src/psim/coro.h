// Coroutine task type for simulated processors.
//
// A psim::Coro<T> is a lazily-started coroutine that suspends whenever the
// simulated processor must wait for the machine (a memory response, a cycle
// delay). Nested calls compose via symmetric transfer: `co_await child`
// starts the child inline, and when the child finishes it resumes the
// parent directly. Only leaf awaitables (Engine::sleep, Memory accesses)
// interact with the event queue, so an entire processor call stack suspends
// and resumes as one unit — exactly like a thread blocked in a simulator.
//
// Frames come from a per-thread freelist pool (detail::FramePool) instead of
// the global heap: a balancer hop creates and destroys a frame per token, so
// recycling them keeps malloc/free off the simulator's hot path. Under
// AddressSanitizer a pooled frame is poisoned while it sits on the freelist,
// so touching a destroyed coroutine's frame is still reported.
#pragma once

#include <array>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define CNET_PSIM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CNET_PSIM_ASAN 1
#endif
#endif
#ifdef CNET_PSIM_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace cnet::psim {

template <typename T>
class Coro;

namespace detail {

/// Per-thread freelists of coroutine frames, one per 64-byte size class up
/// to 1 KiB; larger frames go straight to the global heap. Each pooled frame
/// is its own global allocation, so a frame freed on another thread than
/// the one that made it simply joins that thread's list. A thread's cached
/// frames are returned to the heap when the thread exits. The pool is
/// per-thread because independent simulations run on several threads at once
/// (one single-threaded engine each) and must not share a lock.
class FramePool {
 public:
  static void* allocate(std::size_t size) {
    const std::size_t c = size_class(size);
    if (c >= kClasses) return ::operator new(size);
    if (FramePool* pool = local(); pool != nullptr && pool->free_[c] != nullptr) {
      Block* block = pool->free_[c];
      unpoison(block, c);
      pool->free_[c] = block->next;
      return block;
    }
    return ::operator new(class_bytes(c));
  }

  static void deallocate(void* frame, std::size_t size) noexcept {
    const std::size_t c = size_class(size);
    if (c >= kClasses) {
      ::operator delete(frame, size);
      return;
    }
    FramePool* pool = local();
    if (pool == nullptr) {  // this thread's pool is already torn down
      ::operator delete(frame, class_bytes(c));
      return;
    }
    auto* block = static_cast<Block*>(frame);
    block->next = pool->free_[c];
    pool->free_[c] = block;
    poison(block, c);
  }

  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

 private:
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kClasses = 16;

  struct Block {
    Block* next;
  };

  explicit FramePool(bool* gone) : gone_(gone) {}
  ~FramePool() {
    for (std::size_t c = 0; c < kClasses; ++c) {
      while (Block* block = free_[c]) {
        unpoison(block, c);
        free_[c] = block->next;
        ::operator delete(block, class_bytes(c));
      }
    }
    *gone_ = true;
  }

  static std::size_t size_class(std::size_t size) { return (size - 1) / kGranule; }
  static std::size_t class_bytes(std::size_t c) { return (c + 1) * kGranule; }

  /// This thread's pool, or null once thread teardown destroyed it (a frame
  /// freed by a later thread_local destructor then goes to the heap).
  static FramePool* local() {
    // Trivially destructible, so it stays readable during thread teardown.
    static thread_local bool gone = false;
    if (gone) return nullptr;
    static thread_local FramePool pool(&gone);
    return &pool;
  }

#ifdef CNET_PSIM_ASAN
  static void poison(Block* block, std::size_t c) {
    ASAN_POISON_MEMORY_REGION(block, class_bytes(c));
  }
  static void unpoison(Block* block, std::size_t c) {
    ASAN_UNPOISON_MEMORY_REGION(block, class_bytes(c));
  }
#else
  static void poison(Block*, std::size_t) {}
  static void unpoison(Block*, std::size_t) {}
#endif

  std::array<Block*, kClasses> free_{};
  bool* gone_;
};

/// Base of every promise: routes frame allocation through FramePool. The
/// sized delete is what lets a frame find its size class again.
struct PooledFrame {
  static void* operator new(std::size_t size) { return FramePool::allocate(size); }
  static void operator delete(void* frame, std::size_t size) noexcept {
    FramePool::deallocate(frame, size);
  }
};

struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }
  template <typename Promise>
  std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) const noexcept {
    // Resume whoever co_awaited us; root tasks return to the engine loop.
    auto continuation = h.promise().continuation;
    return continuation ? continuation : std::noop_coroutine();
  }
  void await_resume() const noexcept {}
};

template <typename T>
struct Promise : PooledFrame {
  std::coroutine_handle<> continuation;
  T value{};

  Coro<T> get_return_object();
  std::suspend_always initial_suspend() const noexcept { return {}; }
  FinalAwaiter final_suspend() const noexcept { return {}; }
  void return_value(T v) { value = std::move(v); }
  [[noreturn]] void unhandled_exception() { std::terminate(); }
};

template <>
struct Promise<void> : PooledFrame {
  std::coroutine_handle<> continuation;

  Coro<void> get_return_object();
  std::suspend_always initial_suspend() const noexcept { return {}; }
  FinalAwaiter final_suspend() const noexcept { return {}; }
  void return_void() const noexcept {}
  [[noreturn]] void unhandled_exception() { std::terminate(); }
};

}  // namespace detail

/// Owning handle to a lazily-started simulated-processor coroutine.
template <typename T = void>
class [[nodiscard]] Coro {
 public:
  using promise_type = detail::Promise<T>;

  Coro() = default;
  explicit Coro(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Coro(Coro&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Coro& operator=(Coro&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Coro(const Coro&) = delete;
  Coro& operator=(const Coro&) = delete;
  ~Coro() { destroy(); }

  /// Begin executing a root task; it runs until its first suspension. Child
  /// coroutines are started by co_await, not by start().
  void start() { handle_.resume(); }
  bool done() const { return !handle_ || handle_.done(); }

  // Awaiter interface: co_await starts the child and suspends the parent
  // until the child's final_suspend resumes it.
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
    handle_.promise().continuation = parent;
    return handle_;  // symmetric transfer into the child
  }
  T await_resume() {
    if constexpr (!std::is_void_v<T>) {
      return std::move(handle_.promise().value);
    }
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

namespace detail {

template <typename T>
Coro<T> Promise<T>::get_return_object() {
  return Coro<T>{std::coroutine_handle<Promise<T>>::from_promise(*this)};
}

inline Coro<void> Promise<void>::get_return_object() {
  return Coro<void>{std::coroutine_handle<Promise<void>>::from_promise(*this)};
}

}  // namespace detail

}  // namespace cnet::psim
