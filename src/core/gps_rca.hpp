// GPS-stage RCA (paper §III-C2): estimates the UAV's velocity from the
// acoustic side-channel (optionally fused with a trusted IMU), accumulates
// the deviation between GPS-reported velocity and the estimate, and alerts
// when the running mean exceeds the benign-calibrated threshold.
#pragma once

#include <iosfwd>
#include <span>
#include <vector>

#include "core/decision_trace.hpp"
#include "core/flight_lab.hpp"
#include "core/sensory_mapper.hpp"
#include "detect/running_mean.hpp"
#include "detect/threshold.hpp"
#include "estimation/velocity_kf.hpp"

namespace sb::core {

struct GpsRcaConfig {
  est::VelocityKfConfig kf;
  detect::ThresholdConfig threshold;
  // Warm-up time before errors are accumulated (filter convergence).
  double warmup = 5.0;
  // Running-mean horizon in GPS fixes (0 = cumulative).  A windowed mean
  // keeps brief benign transients from dominating the calibration while a
  // sustained spoof still saturates it.
  std::size_t mean_window = 50;  // 10 s at 5 Hz
  // A gap between consecutive usable fixes longer than this is treated as a
  // receiver outage: the KF coasts (its audio anchor needs no GPS), and on
  // reacquisition the error monitor restarts and the integrated position
  // re-anchors to the first new fix, so position drift accumulated while
  // blind is not scored against the thresholds.  At 5 Hz the benign fix
  // spacing is 0.2 s, so 2 s = 10 consecutive missing fixes.
  double coast_reset_gap = 2.0;
};

class GpsRcaDetector {
 public:
  explicit GpsRcaDetector(const GpsRcaConfig& config);

  struct Result {
    bool attacked = false;
    double detect_time = -1.0;
    // Peak of the windowed vector-mean velocity error |mean(v_gps - v_est)|.
    double peak_running_mean = 0.0;
    // Peak of the location deviation |p_gps - p_est| (p_est integrates the
    // audio-anchored velocity estimate; it drifts like a random walk on
    // benign flights but diverges linearly under a drag spoof).
    double peak_pos_dev = 0.0;
  };

  // Full velocity/position trace for plotting (Fig. 7).
  struct Trace {
    std::vector<double> t;          // GPS fix times
    std::vector<Vec3> v_est;        // SoundBoost velocity estimate
    std::vector<Vec3> v_gps;        // GPS-reported velocity
    std::vector<Vec3> pos_est;      // integrated estimate (z-position panel)
    std::vector<double> running_mean;
  };

  // Calibrates the alert threshold from benign flights (max benign running
  // mean after outlier removal).  Returns the threshold.
  double calibrate(std::span<const Result> benign_results, GpsDetectorMode mode);

  // Runs detection on one flight given its audio acceleration predictions
  // (detector calibration and the per-variant benches; the two-stage verdict
  // is RcaEngine's).
  Result analyze(const Flight& flight, std::span<const TimedPrediction> preds,
                 GpsDetectorMode mode) const;

  Trace trace(const Flight& flight, std::span<const TimedPrediction> preds,
              GpsDetectorMode mode) const;

  // Incremental form of analyze(), stepped window by window; analyze() and
  // RcaEngine::Monitor both run on it.  Seeding: on its first window the
  // monitor seeds the filter velocity and integrated position from the
  // first finite fix of the stream it is given — the whole log when a
  // caller pushes it up front, the fixes received so far when streaming;
  // identical whenever any finite fix precedes the first analysis window
  // (always true outside total-GPS-blackout starts, where detection is moot
  // anyway).  No finite fix seeds zero.
  class Monitor {
   public:
    // Calibrated thresholds of `detector` for `mode` (< 0 disables the
    // comparison, as before calibration).  The monitor counts no global
    // `faults.*` metric: RcaEngine::Monitor runs both mode monitors and
    // counts the selected one's tallies at finish.
    Monitor(const GpsRcaDetector& detector, GpsDetectorMode mode);

    // Advances over one prediction window: one KF step, then consumes GPS
    // fixes with t <= p.t1 from `gps` (the fix stream so far; the monitor
    // keeps its own cursor, so pass a growing buffer with a stable prefix).
    // `imu` is consulted in fused mode only.  Post-warmup fixes append
    // their evidence to `decisions_out` when given; with `health`, the
    // degradation tally (non-finite fixes rejected, coast intervals,
    // fused-KF fallbacks) accumulates into it.
    void step_window(const TimedPrediction& p,
                     std::span<const sim::GpsSample> gps,
                     std::span<const sim::ImuSample> imu,
                     std::vector<GpsFixDecision>* decisions_out = nullptr,
                     faults::HealthReport* health = nullptr,
                     Trace* trace_out = nullptr);

    const Result& result() const { return result_; }

    // Fixes of the stream consumed so far: later windows read only the
    // fixes from here on (the first window also seeds from the stream's
    // start).  drop_fixes(n) follows a caller that erased the first n
    // consumed fixes of its stream.
    std::size_t fixes_consumed() const { return gps_idx_; }
    void drop_fixes(std::size_t n) { gps_idx_ -= n; }

    // Bitwise checkpoint of the running estimation state (KF velocity and
    // variance, error monitor ring, fix cursor, timing).  load_state expects
    // a monitor constructed with the SAME mode/thresholds/config and returns
    // false on malformed bytes or a configuration mismatch, leaving the
    // monitor in an unspecified state.
    void save_state(std::ostream& os) const;
    bool load_state(std::istream& is);

   private:
    GpsRcaConfig config_;
    GpsDetectorMode mode_;
    double vel_threshold_;
    double pos_threshold_;
    bool first_window_ = true;
    // Seeded on the first window; q and the predicting acceleration follow
    // mode_.
    est::VelocityKf kf_;
    detect::RunningVecMeanMonitor monitor_;
    Vec3 pos_est_;
    std::size_t gps_idx_ = 0;
    double prev_t_ = 0.0;
    double last_fix_t_ = 0.0;  // NaN until the first usable fix
    Result result_;
  };

  double threshold(GpsDetectorMode mode) const;
  double pos_threshold(GpsDetectorMode mode) const;
  bool calibrated(GpsDetectorMode mode) const;

 private:
  // Shared implementation: walks predictions + GPS fixes against the
  // calibrated thresholds, optionally recording the full trace.
  Result run(const Flight& flight, std::span<const TimedPrediction> preds,
             GpsDetectorMode mode, Trace* trace_out) const;

  GpsRcaConfig config_;
  double vel_thresholds_[2] = {-1.0, -1.0};
  double pos_thresholds_[2] = {-1.0, -1.0};
};

}  // namespace sb::core
