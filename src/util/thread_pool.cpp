#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sb::util {
namespace {

// Read once: hardware_concurrency() asks the OS on every call (about 4 us
// on a 4-core Linux host), and the pool consults it on every parallel
// region.
std::size_t hardware_threads() {
  static const std::size_t n = [] {
    const unsigned hc = std::thread::hardware_concurrency();
    return hc > 0 ? static_cast<std::size_t>(hc) : std::size_t{1};
  }();
  return n;
}

std::size_t default_threads() {
  if (const char* s = std::getenv("SB_THREADS")) {
    if (const auto n = parse_thread_count(s)) return *n;
    obs::logf(obs::LogLevel::kWarn, "pool",
              "ignoring SB_THREADS='%s' (not a whole positive integer); "
              "using %zu threads",
              s, hardware_threads());
  }
  return hardware_threads();
}

std::atomic<std::size_t> g_thread_override{0};
thread_local bool tl_in_parallel = false;

// Pool telemetry.  Only collected while tracing is enabled (obs::enabled()):
// one clock read at enqueue and two per task, plus a short histogram lock —
// acceptable at chunk granularity, and exactly zero cost when disabled.
struct PoolMetrics {
  obs::Counter& tasks = obs::Registry::instance().counter("pool.tasks");
  obs::Gauge& queue_depth = obs::Registry::instance().gauge("pool.queue_depth");
  obs::Histogram& queue_wait =
      obs::Registry::instance().histogram("pool.queue_wait_seconds");
  obs::Histogram& task_run =
      obs::Registry::instance().histogram("pool.task_run_seconds");
};

PoolMetrics& pool_metrics() {
  static PoolMetrics m;
  return m;
}

// Marks [task start, task end) on this thread: nested parallel helpers run
// inline, and obs stage spans inside tasks must not double-accrue.
struct ParallelRegionMark {
  ParallelRegionMark() {
    tl_in_parallel = true;
    obs::set_parallel_worker(true);
  }
  ~ParallelRegionMark() {
    tl_in_parallel = false;
    obs::set_parallel_worker(false);
  }
};

}  // namespace

struct ThreadPool::Impl {
  std::mutex mutex;
  std::condition_variable wake;
  std::deque<std::function<void()>> queue;
  std::vector<std::thread> workers;
  bool stop = false;

  void ensure_workers(std::size_t want) {
    // Workers are capped at hardware_concurrency - 1 (the caller is the
    // remaining lane); the effective thread count only gates how much work
    // is enqueued, so a smaller set_threads() needs no teardown.
    want = std::min(want, hardware_threads());
    while (workers.size() + 1 < want) workers.emplace_back([this] { worker(); });
  }

  void worker() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock{mutex};
        wake.wait(lock, [&] { return stop || !queue.empty(); });
        if (stop && queue.empty()) return;
        task = std::move(queue.front());
        queue.pop_front();
      }
      {
        ParallelRegionMark mark;
        task();
      }
    }
  }
};

std::optional<std::size_t> parse_thread_count(std::string_view text) {
  std::size_t n = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, n);
  if (ec != std::errc{} || ptr != end || n == 0) return std::nullopt;
  return n;
}

ThreadPool::ThreadPool() : impl_(new Impl) {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock{impl_->mutex};
    impl_->stop = true;
  }
  impl_->wake.notify_all();
  for (auto& w : impl_->workers) w.join();
  delete impl_;
}

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

std::size_t ThreadPool::threads() {
  const std::size_t override = g_thread_override.load(std::memory_order_relaxed);
  if (override > 0) return override;
  static const std::size_t env = default_threads();
  return env;
}

void ThreadPool::set_threads(std::size_t n) {
  g_thread_override.store(n, std::memory_order_relaxed);
}

bool ThreadPool::in_parallel_region() { return tl_in_parallel; }

void ThreadPool::run(std::size_t num_chunks,
                     const std::function<void(std::size_t)>& fn) {
  if (num_chunks == 0) return;

  // Shared completion state outlives any straggling worker notify.
  struct JobState {
    std::mutex mutex;
    std::condition_variable done;
    std::size_t remaining;
  };
  auto state = std::make_shared<JobState>();
  state->remaining = num_chunks;

  const bool telemetry = obs::enabled();
  const double enqueue_us = telemetry ? obs::now_us() : 0.0;
  {
    std::lock_guard<std::mutex> lock{impl_->mutex};
    impl_->ensure_workers(threads());
    for (std::size_t c = 0; c < num_chunks; ++c) {
      impl_->queue.push_back([state, &fn, c, telemetry, enqueue_us] {
        if (telemetry) {
          PoolMetrics& m = pool_metrics();
          const double start_us = obs::now_us();
          m.queue_wait.record((start_us - enqueue_us) * 1e-6);
          fn(c);
          m.task_run.record((obs::now_us() - start_us) * 1e-6);
        } else {
          fn(c);
        }
        std::lock_guard<std::mutex> done_lock{state->mutex};
        if (--state->remaining == 0) state->done.notify_all();
      });
    }
    if (telemetry) {
      PoolMetrics& m = pool_metrics();
      m.tasks.add(num_chunks);
      m.queue_depth.set(static_cast<double>(impl_->queue.size()));
    }
  }
  impl_->wake.notify_all();

  // The calling thread participates instead of idling.
  for (;;) {
    std::function<void()> task;
    {
      std::lock_guard<std::mutex> lock{impl_->mutex};
      if (impl_->queue.empty()) break;
      task = std::move(impl_->queue.front());
      impl_->queue.pop_front();
    }
    ParallelRegionMark mark;
    task();
  }

  std::unique_lock<std::mutex> lock{state->mutex};
  state->done.wait(lock, [&] { return state->remaining == 0; });
}

}  // namespace sb::util
