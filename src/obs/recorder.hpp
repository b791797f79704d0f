// Serving flight recorder: a preallocated per-session event ring that keeps
// the LAST N events of a stream (chunk pushes, window completions, batch
// deliveries, sheds, degradation transitions, verdicts) and, on a
// rate-limited trigger (attack verdict, health degradation, shed, SLO
// breach), dumps the recent horizon as a black-box JSONL file
// (`BLACKBOX_<session>.jsonl`) for post-incident root-cause analysis.
//
// Contracts (DESIGN.md "Observability architecture"):
//   - the ring is preallocated at construction and record() never
//     allocates, locks or draws RNG — the zero-allocation serving steady
//     state holds with recording enabled;
//   - recording is observation-only: nothing feeds back into the pipeline,
//     so seeded results are bit-identical with the recorder on or off;
//   - record()/trigger() are single-producer (the session's serving
//     thread); events()/accessors may be called from other threads and see
//     a consistent prefix via the release/acquire head counter;
//   - the process-wide switch (SB_RECORDER) costs one relaxed atomic load
//     when off.
//
// obs is the bottom of the dependency stack: this header must not include
// any other sb header.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sb::obs {

// Process-wide recorder switch, read once from SB_RECORDER (any value other
// than empty/"0" enables).  One relaxed atomic load per call.
bool recorder_enabled();
void set_recorder_enabled(bool on);

// One black-box event.  Fixed-size POD so the ring never allocates; the
// payload fields are kind-specific (documented at the recording sites).
struct RecorderEvent {
  enum class Kind : std::uint8_t {
    kChunk,        // sensor chunk pushed     (v0 = samples in chunk)
    kWindow,       // window staged for inference (v0 = masked channels)
    kDeliver,      // prediction delivered    (v0 = window→verdict seconds)
    kShed,         // window shed by backpressure (v0 = queue backlog)
    kDegrade,      // health degradation      (v0 = degraded windows so far)
    kImuVerdict,   // IMU window decision     (v0 = score, v1 = threshold)
    kGpsVerdict,   // GPS fix decision        (v0 = running mean error)
    kSloBreach,    // latency above the p99 target (v0 = seconds, v1 = target)
    kAdmit,        // fleet admission verdict (v0 = verdict enum, v1 = shard)
    kThinned,      // window skipped by degraded evidence thinning (v0 = seq)
  };
  Kind kind = Kind::kChunk;
  bool flag = false;       // kind-specific (alert / degraded / ...)
  std::uint64_t seq = 0;   // window/chunk/decision sequence number
  double t_us = 0.0;       // host clock (obs::now_us) at record time
  double stream_t = 0.0;   // flight-clock seconds, when applicable
  double v0 = 0.0;
  double v1 = 0.0;
};

const char* to_string(RecorderEvent::Kind kind);

class FlightRecorder {
 public:
  // One black-box policy for every session: the ring keeps the last
  // kCapacity events (a power of two), a dump writes those of the last
  // kHorizonSeconds of host time, dumps are at least kMinTriggerGapSeconds
  // apart unless forced, and a session writes at most kMaxDumps.
  static constexpr std::size_t kCapacity = 2048;
  static constexpr double kHorizonSeconds = 30.0;
  static constexpr double kMinTriggerGapSeconds = 5.0;
  static constexpr std::size_t kMaxDumps = 8;
  static_assert((kCapacity & (kCapacity - 1)) == 0);

  // Dumps go to `out_dir`/BLACKBOX_<session>.jsonl.
  explicit FlightRecorder(std::uint64_t session, std::string out_dir = ".");
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Appends one event, overwriting the oldest when the ring is full
  // (overwrites are accounted in dropped()).  Lock- and allocation-free.
  void record(const RecorderEvent& e);

  // Rate-limited black-box dump: writes the retained events inside the
  // horizon to dump_path() (overwriting any previous dump) unless a dump
  // happened less than kMinTriggerGapSeconds ago or kMaxDumps is
  // exhausted.  `force` bypasses the gap (final attack verdicts), never the
  // dump bound.  Returns true iff a dump was written.
  bool trigger(const char* reason, bool force = false);

  std::uint64_t recorded() const {
    return head_.load(std::memory_order_acquire);
  }
  std::uint64_t dropped() const {
    const std::uint64_t n = recorded();
    return n > kCapacity ? n - kCapacity : 0;
  }
  std::uint64_t dumps() const { return dumps_.load(std::memory_order_relaxed); }
  std::uint64_t session() const { return session_; }
  std::string dump_path() const;

  // Retained events, oldest to newest (allocates; not for the hot path).
  std::vector<RecorderEvent> events() const;

 private:
  bool dump(const char* reason, double now_us);

  std::uint64_t session_;
  std::string out_dir_;
  std::vector<RecorderEvent> ring_;      // preallocated, kCapacity events
  std::atomic<std::uint64_t> head_{0};   // total events ever recorded
  std::atomic<std::uint64_t> dumps_{0};
  double last_dump_us_;                  // producer-thread only
};

}  // namespace sb::obs
