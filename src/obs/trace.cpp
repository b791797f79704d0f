#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <vector>

#include "obs/json.hpp"

namespace sb::obs {
namespace {

std::atomic<int> g_enabled{-1};  // -1 = not yet read from the environment

thread_local bool tl_parallel_worker = false;
thread_local int tl_stage_depth = 0;

std::chrono::steady_clock::time_point trace_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

bool enabled() {
  int e = g_enabled.load(std::memory_order_relaxed);
  if (e < 0) {
    const char* s = std::getenv("SB_TRACE");
    e = (s && *s && std::strcmp(s, "0") != 0) ? 1 : 0;
    g_enabled.store(e, std::memory_order_relaxed);
  }
  return e == 1;
}

void set_enabled(bool on) {
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kCorpus:
      return "corpus";
    case Stage::kSynthesis:
      return "synthesis";
    case Stage::kStft:
      return "stft";
    case Stage::kTrain:
      return "train";
    case Stage::kPredict:
      return "predict";
    case Stage::kDetect:
      return "detect";
    default:
      return "span";
  }
}

void set_parallel_worker(bool on) { tl_parallel_worker = on; }

double now_us() {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   trace_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Trace: per-thread event buffers merged at export time.

namespace {

struct ThreadBuffer;

struct TraceState {
  std::mutex mutex;
  std::vector<ThreadBuffer*> live;
  std::vector<Trace::Event> retired;  // events from exited threads
  Trace::StageTotals stage_totals{};
  std::atomic<std::uint32_t> next_tid{0};
};

TraceState& state() {
  static TraceState* s = new TraceState;  // leaked: threads may outlive statics
  return *s;
}

struct ThreadBuffer {
  std::vector<Trace::Event> events;
  std::uint32_t tid;

  ThreadBuffer() {
    TraceState& s = state();
    tid = s.next_tid.fetch_add(1, std::memory_order_relaxed);
    events.reserve(1024);  // amortize: no allocation per span in steady state
    std::lock_guard<std::mutex> lock{s.mutex};
    s.live.push_back(this);
  }

  ~ThreadBuffer() {
    TraceState& s = state();
    std::lock_guard<std::mutex> lock{s.mutex};
    s.retired.insert(s.retired.end(), events.begin(), events.end());
    std::erase(s.live, this);
  }
};

ThreadBuffer& local_buffer() {
  static thread_local ThreadBuffer buffer;
  return buffer;
}

}  // namespace

Trace& Trace::instance() {
  static Trace trace;
  return trace;
}

void Trace::record(const Event& event) { local_buffer().events.push_back(event); }

void Trace::accrue_stage(Stage stage, double seconds) {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock{s.mutex};
  auto& total = s.stage_totals[static_cast<std::size_t>(stage)];
  total.seconds += seconds;
  ++total.count;
}

Trace::StageTotals Trace::stage_totals() const {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock{s.mutex};
  return s.stage_totals;
}

std::size_t Trace::event_count() const {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock{s.mutex};
  std::size_t n = s.retired.size();
  for (const ThreadBuffer* b : s.live) n += b->events.size();
  return n;
}

std::string Trace::chrome_json() const {
  TraceState& s = state();
  JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  auto emit = [&w](const Event& e) {
    w.begin_object();
    w.kv("name", e.name);
    w.kv("cat", stage_name(e.stage));
    w.kv("ph", "X");
    w.kv("ts", e.ts_us);
    w.kv("dur", e.dur_us);
    w.kv("pid", std::uint64_t{1});
    w.kv("tid", static_cast<std::uint64_t>(e.tid));
    w.end_object();
  };
  {
    std::lock_guard<std::mutex> lock{s.mutex};
    for (const Event& e : s.retired) emit(e);
    for (const ThreadBuffer* b : s.live)
      for (const Event& e : b->events) emit(e);
  }
  w.end_array();
  w.kv("displayTimeUnit", "ms");
  w.end_object();
  return w.str();
}

bool Trace::write_chrome_json(const std::string& path) const {
  std::ofstream os{path};
  if (!os) return false;
  os << chrome_json() << '\n';
  return static_cast<bool>(os);
}

void Trace::clear() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock{s.mutex};
  s.retired.clear();
  for (ThreadBuffer* b : s.live) b->events.clear();
  s.stage_totals = StageTotals{};
}

// ---------------------------------------------------------------------------
// ScopedSpan

ScopedSpan::ScopedSpan(const char* name, Stage stage) {
  if (!enabled()) return;  // disabled fast path: no clock read, no allocation
  name_ = name;
  stage_ = stage;
  if (stage != Stage::kNone && !tl_parallel_worker) {
    stage_root_ = tl_stage_depth == 0;
    ++tl_stage_depth;
  }
  start_us_ = now_us();
}

ScopedSpan::~ScopedSpan() {
  if (!name_) return;
  const double end_us = now_us();
  const double dur_us = end_us - start_us_;
  Trace& trace = Trace::instance();
  trace.record({name_, stage_, local_buffer().tid, start_us_, dur_us});
  if (stage_ != Stage::kNone && !tl_parallel_worker) {
    --tl_stage_depth;
    if (stage_root_) trace.accrue_stage(stage_, dur_us * 1e-6);
  }
}

}  // namespace sb::obs
