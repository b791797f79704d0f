// Per-flight online RCA state (the streaming counterpart of
// core::RcaEngine::analyze).
//
// A session consumes the flight's three sensor streams incrementally —
// microphone audio (push_audio), IMU samples (push_imu), GPS fixes
// (push_gps) — and exposes decisions as they become final (poll_verdicts).
// Model inference is NOT performed by the session: completed windows are
// staged as prepared signatures (take_ready) and an InferenceScheduler
// micro-batches them across sessions into single model forwards, delivering
// each prediction back in window order (deliver).
//
// The session is transport only: window staging, signature preparation,
// verdict events, the flight recorder and checkpoint framing.  Every
// decision — residual baseline, both GPS variants, the final variant
// selection, health tallies — is core::RcaEngine::Monitor's, the same
// object RcaEngine::analyze feeds, so the two paths differ only in how
// windows reach it (pinned by the StreamingEquivalence integration suite).
// Two consequences of the FINAL IMU verdict picking the GPS variant are
// visible here: IMU decisions surface once the flight-local baseline
// freezes, and poll_verdicts() reports the provisionally selected GPS
// variant's decisions (causal, may switch mid-flight).
//
// Shed windows (backpressure) are delivered as NaN predictions and flow
// through the pipeline's existing degradation paths: the IMU stage drops the
// window's residuals as non-finite and skips it, the GPS stage coasts the
// filter — overload degrades the verdict's evidence, never its ordering.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/rca_engine.hpp"
#include "core/sensory_mapper.hpp"
#include "obs/recorder.hpp"
#include "stream/streaming_extractor.hpp"

namespace sb::stream {

// One decision that became final, stamped with when it did.
struct VerdictEvent {
  enum class Kind { kImuWindow, kGpsFix };
  Kind kind = Kind::kImuWindow;
  // Flight-clock time at which the decision became available (the end of
  // the analysis window whose delivery produced it).  Monotonically
  // non-decreasing across a session's event stream; the evidence time
  // inside the payload may be older (e.g. the IMU baseline backlog).
  double decided_at = 0.0;
  // Stage-1 verdict as of this event (provisional until finish()).
  bool imu_attacked = false;
  // Mode of the GPS decision below (the provisionally selected variant).
  core::GpsDetectorMode gps_mode = core::GpsDetectorMode::kAudioImu;
  core::ImuWindowDecision imu;  // valid when kind == kImuWindow
  core::GpsFixDecision gps;     // valid when kind == kGpsFix
};

// The pushed audio runs at sensors::kMicSampleRate; the window grid (settle,
// stride, window length) always comes from the mapper's dataset config so the
// session analyzes exactly the offline grid.
struct RcaSessionConfig {
  // Degraded-mode evidence thinning: only every evidence_stride-th window
  // (seq % stride == 0) is prepared and inferred; the rest are delivered as
  // NaN "thinned" predictions, which the detectors treat exactly like shed
  // windows (IMU skips, GPS coasts).  1 = full evidence (the offline-
  // equivalent default); a fleet under admission pressure degrades sessions
  // to stride 2+ so overload thins evidence instead of growing latency.
  std::size_t evidence_stride = 1;
  // Optional transforms applied before inference, as in the offline path.
  core::PredictionHooks hooks;
  // Where the session's black box (BLACKBOX_<id>.jsonl) is dumped; the
  // recorder itself is only built when SB_RECORDER is set
  // (obs::recorder_enabled()).
  std::string recorder_dir = ".";
};

class RcaSession {
 public:
  // Detectors must be calibrated; the session holds references only.
  RcaSession(std::uint64_t id, const core::SensoryMapper& mapper,
             const core::ImuRcaDetector& imu_detector,
             const core::GpsRcaDetector& gps_detector,
             const RcaSessionConfig& config = {});

  std::uint64_t id() const { return id_; }

  // Sensor ingestion.  Audio chunks are arbitrary-size slices of one
  // continuous stream; IMU/GPS samples must arrive in time order.
  void push_audio(const acoustics::MultiChannelAudio& chunk);
  void push_imu(std::span<const sim::ImuSample> samples);
  void push_gps(std::span<const sim::GpsSample> samples);

  // A window staged for inference.  push_audio stages the raw audio slice;
  // take_ready() prepares the signature (extraction, hooks, channel
  // diagnosis + masking, standardization) on the CALLER's thread — in a
  // fleet that is the shard's pump worker, so per-thread scratch allocations
  // are made and returned on the same thread and the steady state stays
  // zero-alloc.  Thinned windows (evidence_stride) skip preparation
  // entirely: signature stays empty and `thinned` is set.
  struct ReadyWindow {
    std::uint64_t session = 0;
    std::uint64_t seq = 0;  // window index on the analysis grid
    core::WindowSpan span;
    acoustics::MultiChannelAudio audio;  // raw slice; released after prep
    ml::Tensor signature;     // [1, C, H, W]; empty when thinned
    bool thinned = false;     // skipped by degraded evidence thinning
    double ready_at_us = 0.0; // host clock at staging, for latency metrics
  };

  // Moves out the windows staged since the last call (ascending seq),
  // preparing each non-thinned window's signature.
  std::vector<ReadyWindow> take_ready();

  // Delivers the prediction for the next undelivered window (seq order is
  // the caller's contract; the scheduler guarantees it).  NaN predictions
  // mark shed windows and engage the degradation paths.
  void deliver(const core::TimedPrediction& pred);

  // Decisions finalized since the last poll, in decided_at order.
  std::vector<VerdictEvent> poll_verdicts();

  // End of stream: the monitor's finish() (IMU backlog drained, GPS variant
  // selected by the final IMU verdict) over the session's window tally.
  // With `trace_out`, the full decision trace of the selected path is
  // recorded.  The session accepts no further input afterwards.
  core::RcaReport finish(core::RcaDecisionTrace* trace_out = nullptr);
  bool finished() const { return finished_; }

  std::size_t windows_staged() const { return next_seq_; }
  std::size_t windows_delivered() const { return delivered_; }

  // The session's black-box ring, or nullptr when recording is off.  The
  // scheduler feeds it delivery/shed/SLO events; recording never feeds back
  // into the pipeline, so verdicts are bit-identical either way.
  obs::FlightRecorder* recorder() const { return recorder_.get(); }

  const RcaSessionConfig& config() const { return config_; }

  // Crash-safe checkpoint: serializes the COMPLETE session state (extractor
  // ring, the decision monitor with both GPS variants' KF velocity and
  // variance, sensor buffers, cursors, verdict backlog, health) inside an
  // SBSESS01 integrity frame (util::io::write_frame, as the model format).
  // The session must be quiescent — every staged window taken AND delivered
  // (drain the scheduler first) — or a logic_error is thrown: in-flight
  // windows cannot round-trip.  Returns false on I/O failure.
  bool checkpoint(const std::string& path) const;

  // Rebuilds a session from a checkpoint against the same (or bitwise-equal)
  // trained mapper and calibrated detectors.  Truncated, bit-flipped,
  // wrong-magic or version-skewed files — and checkpoints taken under a
  // different grid, baseline horizon or detector thresholds — are rejected
  // loudly (obs warning + `stream.checkpoint_rejected` counter) and nullptr
  // is returned.  `config.evidence_stride` is restored FROM the checkpoint
  // (the degradation level travels with the session).  Subsequent verdicts
  // are bitwise-identical to the uninterrupted session (pinned by the
  // StreamingEquivalence suite).
  static std::unique_ptr<RcaSession> restore(
      const std::string& path, const core::SensoryMapper& mapper,
      const core::ImuRcaDetector& imu_detector,
      const core::GpsRcaDetector& gps_detector,
      const RcaSessionConfig& config = {});

 private:
  // Turns the monitor's IMU decisions from index `begin` on into events.
  void emit_imu_decisions(std::size_t begin, double decided_at);
  // Signature preparation for one staged window (see ReadyWindow).
  void prepare_window(ReadyWindow& w);
  // Checkpoint payload body (everything inside the SBSESS01 frame); defined
  // in session_checkpoint.cpp.
  void save_payload(std::ostream& os) const;
  bool load_payload(std::istream& is);

  std::uint64_t id_;
  const core::SensoryMapper* mapper_;
  RcaSessionConfig config_;
  std::unique_ptr<obs::FlightRecorder> recorder_;  // null unless SB_RECORDER
  std::uint64_t audio_chunks_ = 0;
  StreamingFeatureExtractor extractor_;
  core::RcaEngine::Monitor monitor_;

  std::vector<ReadyWindow> ready_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t delivered_ = 0;
  double last_t1_ = 0.0;

  std::vector<VerdictEvent> events_;
  faults::HealthReport health_;  // window tally: staged windows, mic masking
  bool finished_ = false;
};

}  // namespace sb::stream
