// Scoped trace spans with thread-safe aggregation and Chrome
// `trace_event`-format JSON export (load the file in chrome://tracing or
// https://ui.perfetto.dev).
//
// Tracing is OFF by default.  It turns on when the SB_TRACE environment
// variable is set non-zero (or via set_enabled(true)); a disabled ScopedSpan
// is a single relaxed atomic load and two untouched member writes — no clock
// read, no allocation (pinned by obs_test's zero-allocation test and the
// runtime-overhead bench).
//
// Two aggregations are maintained while enabled:
//   * the full event list (thread-local buffers, merged at export) for the
//     Chrome timeline;
//   * per-stage EXCLUSIVE wall-clock totals for the bench reports' stage
//     breakdown.  A span tagged with a Stage accrues into the totals only
//     when it is the outermost stage span on a main-flow thread — spans
//     running inside thread-pool workers, and stage spans nested inside
//     another stage span, record events but do not accrue.  Stage totals are
//     therefore disjoint by construction and can never sum past wall clock.
//
// Determinism: spans only read the clock and append to buffers.  They draw
// no RNG and feed nothing back into any computation, so seeded results are
// bit-identical with tracing on or off, at any SB_THREADS.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace sb::obs {

// Global trace switch (SB_TRACE env var, overridable at runtime).
bool enabled();
void set_enabled(bool on);

// Pipeline-stage attribution for the bench reports' time breakdown.
enum class Stage : std::uint8_t {
  kNone = 0,   // timeline-only span, never accrues into stage totals
  kCorpus,     // closed-loop flight simulation
  kSynthesis,  // acoustic synthesis + dataset windowing
  kStft,       // spectral analysis reached outside the stages above
  kTrain,      // model training
  kPredict,    // signature extraction + model inference
  kDetect,     // IMU/GPS RCA detectors
  kCount_,
};
constexpr std::size_t kNumStages = static_cast<std::size_t>(Stage::kCount_);
const char* stage_name(Stage stage);

// Marks the current thread as a parallel worker for the stage-accrual rule.
// Called by util::ThreadPool around task execution; tests may use it to
// simulate worker context.
void set_parallel_worker(bool on);

class Trace {
 public:
  static Trace& instance();

  struct Event {
    const char* name;  // static-lifetime string (string literal)
    Stage stage;
    std::uint32_t tid;
    double ts_us;   // start, microseconds since the trace epoch
    double dur_us;  // duration, microseconds
  };

  struct StageTotal {
    double seconds = 0.0;
    std::uint64_t count = 0;
  };
  using StageTotals = std::array<StageTotal, kNumStages>;

  // Exclusive per-stage wall-clock totals accumulated so far.
  StageTotals stage_totals() const;

  // Number of events recorded so far (across all threads).
  std::size_t event_count() const;

  // Chrome trace_event JSON ({"traceEvents": [...]}).  Must be called while
  // no instrumented parallel work is in flight.
  std::string chrome_json() const;
  bool write_chrome_json(const std::string& path) const;

  // Drops all recorded events and zeroes the stage totals.  Same quiescence
  // requirement as export.
  void clear();

  // Internal: called by ScopedSpan and thread-buffer lifecycle.
  void record(const Event& event);
  void accrue_stage(Stage stage, double seconds);

 private:
  Trace() = default;
};

// RAII span.  `name` must have static lifetime (pass a string literal); this
// keeps the disabled and enabled paths allocation-free.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, Stage stage = Stage::kNone);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;  // nullptr = span inactive (tracing disabled)
  Stage stage_ = Stage::kNone;
  bool stage_root_ = false;
  double start_us_ = 0.0;
};

// Microseconds since the process-wide trace epoch (steady clock).
double now_us();

}  // namespace sb::obs
