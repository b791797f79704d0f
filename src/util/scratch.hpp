// Reusable scratch-buffer workspace (DESIGN.md "Performance architecture").
//
// Hot paths — streaming forwards, training inner loops, STFT frames — used
// to allocate fresh std::vectors per call/window.  This pool replaces those
// with per-THREAD free lists of size-bucketed blocks: the first pass through
// a pipeline allocates (warm-up), every later pass reuses the same blocks,
// so the steady state performs zero heap allocations on the pool-routed
// paths.  Proven by the ml.workspace.* counters:
//
//   ml.workspace.heap_allocs  blocks actually taken from the heap (always
//                             counted — a flat value over a steady-state
//                             window IS the zero-allocation proof)
//   ml.workspace.acquires /   per-acquire traffic and pool hit rate, gated
//   ml.workspace.pool_hits    on obs::enabled() like other hot-loop probes
//
// Thread safety & determinism: each free list is thread_local, so acquire/
// release never locks or races.  Blocks may migrate between threads (a
// Tensor built inside a parallel region is often destroyed by the caller);
// that only moves raw memory between free lists and is race-free because
// every parallel region joins (pool run() barrier) before its outputs are
// consumed.  The pool hands out UNINITIALIZED memory and never touches
// contents, so it cannot perturb any seeded computation; callers must fully
// overwrite what they read.  Under ASan the bucket slack past each request
// and every block on a free list are poisoned, so an out-of-bounds access
// into either is reported.  Per-bucket retention is capped; thread exit
// frees everything (LSan-clean).
#pragma once

#include <cstddef>
#include <new>
#include <span>
#include <type_traits>

namespace sb::util {

namespace detail {

// 64-byte-aligned block of at least `bytes`, from the calling thread's free
// list when one fits, else the heap.  bytes == 0 returns nullptr.
void* pool_acquire(std::size_t bytes);
// Returns the block to the calling thread's free list (or frees it when the
// bucket is full).  `bytes` must be the acquire-time request size.
void pool_release(void* p, std::size_t bytes) noexcept;

}  // namespace detail

// RAII scratch span for kernel temporaries (im2col patch matrices, gradient
// partials, STFT frames).  Contents start UNINITIALIZED — the caller must
// write every element it reads (memory sanitizers will catch violations).
template <typename T>
class Scratch {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "Scratch memory is handed out raw; only trivial types fit");

 public:
  explicit Scratch(std::size_t n)
      : n_(n), p_(static_cast<T*>(detail::pool_acquire(n * sizeof(T)))) {}
  ~Scratch() { detail::pool_release(p_, n_ * sizeof(T)); }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  T* data() { return p_; }
  const T* data() const { return p_; }
  std::size_t size() const { return n_; }
  std::span<T> span() { return {p_, n_}; }
  std::span<const T> span() const { return {p_, n_}; }
  T& operator[](std::size_t i) { return p_[i]; }
  const T& operator[](std::size_t i) const { return p_[i]; }

 private:
  std::size_t n_;
  T* p_;
};

// Standard allocator over the workspace pool; plugs the pool under container
// storage (ml::Tensor data and shape vectors, dsp::Spectrogram magnitudes
// and BiquadCascade sections route through this).  Stateless — all
// instances are interchangeable, so cross-thread destruction is fine.
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(detail::pool_acquire(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    detail::pool_release(p, n * sizeof(T));
  }

  // Default-initializes, so a sized construction or a resize leaves trivial
  // elements unwritten (Scratch's contract: the container's user writes
  // every element it reads).  Constructions with arguments (copies, fills,
  // push_back) go through std::construct_at as usual.
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }

  friend bool operator==(const PoolAllocator&, const PoolAllocator&) {
    return true;
  }
};

}  // namespace sb::util
