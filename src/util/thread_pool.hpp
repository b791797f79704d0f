// Deterministic data-parallel execution.
//
// A fixed-size process-wide worker pool (sized from SB_THREADS, default
// hardware_concurrency) runs statically chunked loops.  The determinism
// contract every caller must preserve:
//
//   * parallel_for / parallel_for_ranges — iterations write to DISJOINT
//     outputs.  Chunk boundaries then cannot affect results, so any thread
//     count (including 1) produces bit-identical output.
//   * parallel_sum / chunk-indexed reductions — chunk boundaries are a pure
//     function of the problem size and a caller-FIXED grain (never of the
//     thread count), and partial results are combined serially in ascending
//     chunk order.  Results are therefore bit-identical at any thread count.
//
// SB_THREADS=1 (or set_threads(1)) takes the exact serial code path: loops
// run inline on the calling thread and the pool is never touched.  Nested
// parallel regions (a parallel loop body calling another parallel helper)
// also run inline, so composing parallel kernels cannot deadlock.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

namespace sb::util {

// Parses a thread count (the SB_THREADS value): a whole positive decimal
// integer such as "4".  Anything else — "4x", "abc", "", "0", "-2", "2.5",
// or a value past size_t — is nullopt.
std::optional<std::size_t> parse_thread_count(std::string_view text);

class ThreadPool {
 public:
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Process-wide pool.  Workers are spawned lazily on first parallel use.
  static ThreadPool& instance();

  // Effective thread count: set_threads() override if present, else the
  // SB_THREADS environment variable, else hardware_concurrency.  An
  // SB_THREADS that parse_thread_count rejects is logged as a warning and
  // falls back to hardware_concurrency.  The count sets how loops are
  // chunked; the OS threads that run the chunks are capped at
  // hardware_concurrency (the caller plus at most hardware_concurrency - 1
  // workers), however large the count.
  static std::size_t threads();

  // Overrides the effective thread count (0 restores the default).  Intended
  // for tests (determinism regression trains at 1 and N threads in one
  // process).  Must not be called while parallel work is in flight.
  static void set_threads(std::size_t n);

  // True on a thread currently executing inside a parallel region; helpers
  // use this to run nested loops inline.
  static bool in_parallel_region();

  // Runs fn(chunk) for chunk in [0, num_chunks), distributing chunks over
  // the workers plus the calling thread.  Blocks until all chunks finish.
  // fn must not throw.  While tracing is enabled the "pool.queue_depth"
  // gauge records the queue length once the chunks are enqueued, and the
  // "pool.queue_wait_seconds" / "pool.task_run_seconds" histograms time
  // every task.
  void run(std::size_t num_chunks, const std::function<void(std::size_t)>& fn);

 private:
  ThreadPool();
  struct Impl;
  Impl* impl_;
};

namespace detail {

inline std::size_t chunk_count(std::size_t n, std::size_t grain) {
  return grain == 0 ? 0 : (n + grain - 1) / grain;
}

// Default grain for disjoint-write loops: enough chunks for load balance.
// Only used where chunking cannot affect results.
inline std::size_t balance_grain(std::size_t n) {
  const std::size_t chunks = ThreadPool::threads() * 4;
  return n < chunks ? 1 : (n + chunks - 1) / chunks;
}

}  // namespace detail

// Runs fn(begin, end) over disjoint subranges covering [0, n).  Iterations
// MUST write to disjoint outputs (or be pure); grain affects scheduling only.
template <typename Fn>
void parallel_for_ranges(std::size_t n, Fn&& fn, std::size_t grain = 0) {
  if (n == 0) return;
  if (grain == 0) grain = detail::balance_grain(n);
  const std::size_t chunks = detail::chunk_count(n, grain);
  if (ThreadPool::threads() <= 1 || chunks <= 1 ||
      ThreadPool::in_parallel_region()) {
    fn(std::size_t{0}, n);
    return;
  }
  ThreadPool::instance().run(chunks, [&](std::size_t c) {
    const std::size_t begin = c * grain;
    const std::size_t end = begin + grain < n ? begin + grain : n;
    fn(begin, end);
  });
}

// Element-wise variant: fn(i) for i in [0, n), disjoint writes required.
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn, std::size_t grain = 0) {
  parallel_for_ranges(
      n,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      },
      grain);
}

// Deterministic parallel reduction: fn(begin, end) returns the partial sum of
// a subrange; partials are combined in ascending chunk order.  `grain` fixes
// the chunk boundaries and MUST NOT depend on the thread count, so the
// floating-point result is identical for any SB_THREADS (including 1, which
// runs the same chunk sequence inline).
template <typename Fn>
double parallel_sum(std::size_t n, std::size_t grain, Fn&& fn) {
  if (n == 0) return 0.0;
  const std::size_t chunks = detail::chunk_count(n, grain);
  auto range = [&](std::size_t c) {
    const std::size_t begin = c * grain;
    const std::size_t end = begin + grain < n ? begin + grain : n;
    return fn(begin, end);
  };
  if (ThreadPool::threads() <= 1 || chunks <= 1 ||
      ThreadPool::in_parallel_region()) {
    double total = 0.0;
    for (std::size_t c = 0; c < chunks; ++c) total += range(c);
    return total;
  }
  std::vector<double> partial(chunks, 0.0);
  ThreadPool::instance().run(chunks,
                             [&](std::size_t c) { partial[c] = range(c); });
  double total = 0.0;
  for (double p : partial) total += p;
  return total;
}

}  // namespace sb::util
