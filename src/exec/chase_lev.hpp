// Chase-Lev lock-free work-stealing deque (Chase & Lev, SPAA'05), with
// the C11-portable memory orderings of Lê et al., "Correct and Efficient
// Work-Stealing for Weak Memory Models" (PPoPP'13).
//
// Single owner, many thieves:
//   - push()/pop() may only be called by the owning worker thread and
//     touch the *bottom* end of the deque (LIFO: cache-warm subtasks).
//   - steal() may be called by any thread and takes from the *top* end
//     (FIFO: the oldest, usually largest remaining work).
//
// The deque stores raw task pointers; ownership of a popped/stolen
// pointer transfers to the caller. The ring buffer is growable: when the
// owner pushes into a full ring it allocates a ring of twice the
// capacity, copies the live window, and publishes it with a release
// store. Thieves racing on the old ring are safe because retired rings
// are kept alive until the deque is destroyed (the owner is the only
// thread that ever frees them, and only from the destructor).
//
// Why the owner-pop vs steal race is safe (the §14 argument in
// DESIGN.md): the owner reserves the bottom slot *before* reading top
// (b-1 store, then a seq_cst fence, then the top load); a thief reads
// top, fences, then reads bottom. Both orderings go through the same
// seq_cst total order, so for the last remaining element either the
// thief observes the decremented bottom (and backs off) or the owner
// observes the incremented top — and when both see one element left,
// the single seq_cst CAS on top decides the winner. An element is
// therefore returned exactly once.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace presp::exec {

template <typename T>
class ChaseLevDeque {
 public:
  /// `capacity` is rounded up to a power of two (minimum 2).
  explicit ChaseLevDeque(std::size_t capacity = 64) {
    std::size_t cap = 2;
    while (cap < capacity) cap *= 2;
    rings_.push_back(std::make_unique<Ring>(cap));
    ring_.store(rings_.back().get(), std::memory_order_relaxed);
  }

  ChaseLevDeque(const ChaseLevDeque&) = delete;
  ChaseLevDeque& operator=(const ChaseLevDeque&) = delete;

  /// Owner only. Never fails; grows the ring when full.
  void push(T* task) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Ring* ring = ring_.load(std::memory_order_relaxed);
    if (b - t > static_cast<std::int64_t>(ring->mask)) ring = grow(ring, t, b);
    ring->put(b, task);
    // Release store rather than release fence + relaxed store: the same
    // hand-off, and one ThreadSanitizer can see (it does not model
    // standalone fences).
    bottom_.store(b + 1, std::memory_order_release);
  }

  /// Owner only. Returns nullptr when the deque is empty (or the last
  /// element was lost to a concurrent thief).
  T* pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Ring* ring = ring_.load(std::memory_order_relaxed);
    // Every owner store to bottom_ is a release, so a thief's acquire
    // load synchronizes with whichever store it reads, not only push's.
    bottom_.store(b, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_relaxed);
    if (t > b) {  // already empty: undo the reservation
      bottom_.store(b + 1, std::memory_order_release);
      return nullptr;
    }
    T* task = ring->get(b);
    if (t == b) {
      // Last element: race thieves with a single CAS on top.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed))
        task = nullptr;  // a thief won
      bottom_.store(b + 1, std::memory_order_release);
    }
    return task;
  }

  /// Any thread. Returns nullptr when empty or when the CAS lost a race
  /// (callers treat both as "nothing stolen this attempt").
  T* steal() {
    std::int64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return nullptr;
    Ring* ring = ring_.load(std::memory_order_acquire);
    T* task = ring->get(t);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed))
      return nullptr;
    return task;
  }

  /// Approximate (racy) size; good enough for "is there anything worth
  /// stealing" probes and stats.
  std::int64_t size_approx() const {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? b - t : 0;
  }

  /// Owner-side view of the current ring capacity (tests use this to
  /// drive growth across the boundary).
  std::size_t capacity() const {
    return ring_.load(std::memory_order_relaxed)->mask + 1;
  }

 private:
  struct Ring {
    explicit Ring(std::size_t cap)
        : mask(cap - 1), cells(new std::atomic<T*>[cap]) {}
    std::size_t mask;
    std::unique_ptr<std::atomic<T*>[]> cells;

    T* get(std::int64_t i) const {
      return cells[static_cast<std::size_t>(i) & mask].load(
          std::memory_order_relaxed);
    }
    void put(std::int64_t i, T* task) {
      cells[static_cast<std::size_t>(i) & mask].store(
          task, std::memory_order_relaxed);
    }
  };

  Ring* grow(Ring* old, std::int64_t top, std::int64_t bottom) {
    auto bigger = std::make_unique<Ring>(2 * (old->mask + 1));
    for (std::int64_t i = top; i < bottom; ++i) bigger->put(i, old->get(i));
    Ring* published = bigger.get();
    rings_.push_back(std::move(bigger));
    // Thieves may still be reading `old`; it stays alive in rings_ until
    // the destructor runs (owner-only mutation, so no lock needed).
    ring_.store(published, std::memory_order_release);
    return published;
  }

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Ring*> ring_{nullptr};
  /// All rings ever allocated, oldest first; owner-only access.
  std::vector<std::unique_ptr<Ring>> rings_;
};

}  // namespace presp::exec
