// Two-stage RCA orchestration (paper §III-C): first decide whether the IMU
// is compromised; then run GPS spoofing detection with the Kalman filter
// variant matching that verdict (audio-only when the IMU is untrusted,
// audio+IMU fusion when it is trusted).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <vector>

#include "core/gps_rca.hpp"
#include "core/imu_rca.hpp"
#include "core/sensory_mapper.hpp"

namespace sb::core {

struct RcaReport {
  // Stage 1.
  bool imu_attacked = false;
  double imu_detect_time = -1.0;
  // Stage 2.
  bool gps_attacked = false;
  double gps_detect_time = -1.0;
  GpsDetectorMode gps_mode_used = GpsDetectorMode::kAudioImu;
  // What the pipeline tolerated to reach the verdicts: masked mic channels,
  // dropped residual windows, GPS coast intervals.  A degraded() report is
  // still a completed analysis — the flag tells the operator how much
  // evidence backs it.
  faults::HealthReport health;

  bool any_attack() const { return imu_attacked || gps_attacked; }
};

// Both detector stages, calibrated together by calibrate_detectors.
struct CalibratedDetectors {
  ImuRcaDetector imu{ImuRcaConfig{}};
  GpsRcaDetector gps{GpsRcaConfig{}};
};

// The one calibration procedure of the two-stage RCA: fits both stages on
// benign flights and their predict_flight predictions (`preds[i]` belongs
// to `flights[i]`).  The IMU stage calibrates on every flight's residual
// windows (ImuRcaDetector::residuals), each GPS variant on the flights'
// peak statistics (GpsRcaDetector::analyze).  Predictions, not a mapper,
// so callers may predict each flight with its own lab or synthesize them.
// `imu_config` tunes the IMU stage (e.g. a stricter percentile for
// mixed-mission deployments); the GPS stage uses the default GpsRcaConfig.
CalibratedDetectors calibrate_detectors(
    std::span<const Flight> flights,
    std::span<const std::vector<TimedPrediction>> preds,
    const ImuRcaConfig& imu_config = {});

// SBSESS01 records of the decision structs: each field in the struct's own
// byte layout, padding written as zeros and skipped on read, each bool one
// byte that must read 0 or 1.  So two equal decisions write equal bytes, and
// checkpoints that hold raw memory images of the structs still restore.
inline constexpr std::size_t kImuDecisionBytes = 88;
inline constexpr std::size_t kGpsDecisionBytes = 48;
void write_imu_decision(std::ostream& os, const ImuWindowDecision& d);
bool read_imu_decision(std::istream& is, ImuWindowDecision& d);
void write_gps_decision(std::ostream& os, const GpsFixDecision& d);
bool read_gps_decision(std::istream& is, GpsFixDecision& d);

class RcaEngine {
 public:
  RcaEngine(const SensoryMapper& mapper, const ImuRcaDetector& imu_detector,
            const GpsRcaDetector& gps_detector);

  // Post-incident analysis of one flight recording: predict_flight, then
  // decide().  With `trace_out`, both stages record their per-decision
  // evidence (see decision_trace.hpp).
  RcaReport analyze(const FlightLab& lab, const Flight& flight,
                    const PredictionHooks& hooks = {},
                    RcaDecisionTrace* trace_out = nullptr) const;

  // The verdict from predictions a caller already holds (one prediction set,
  // many verdicts — fault and scenario sweeps): the flight's whole sensor
  // logs and `preds` (predict_flight order) through one Monitor.
  // `window_health` is the acoustic front end's tally (predict_windows').
  RcaReport decide(const Flight& flight, std::span<const TimedPrediction> preds,
                   const faults::HealthReport& window_health = {},
                   RcaDecisionTrace* trace_out = nullptr) const;

  // Per-flight decision state of the two-stage RCA — the one implementation
  // behind analyze()/decide() and stream::RcaSession, which differ only in
  // how windows reach it.  Sensors arrive through push_imu/push_gps (time
  // ordered; a whole log may be pushed up front) and predictions through
  // deliver() in window-grid order, each after the IMU samples and GPS
  // fixes up to its window end.  Stage 1 buffers its decisions until the
  // flight-local residual baseline freezes (ImuRcaDetector::Monitor).
  // Stage 2 runs BOTH GPS variants, because the variant follows the FINAL
  // IMU verdict: finish() keeps the one it selects, and until then the IMU
  // verdict so far selects provisionally.
  class Monitor {
   public:
    // Detectors must be calibrated; the monitor holds references only.
    Monitor(const ImuRcaDetector& imu_detector,
            const GpsRcaDetector& gps_detector);

    void push_imu(std::span<const sim::ImuSample> samples);
    void push_gps(std::span<const sim::GpsSample> samples);

    // What one deliver() finalized: imu_decisions() from `imu_begin` on and
    // gps_decisions(gps_mode) from `gps_begin` on, where `gps_mode` is the
    // variant the IMU verdict so far selects.
    struct Delivery {
      std::size_t imu_begin = 0;
      std::size_t gps_begin = 0;
      GpsDetectorMode gps_mode = GpsDetectorMode::kAudioImu;
    };
    // Judges the next window.  A NaN prediction (shed or thinned serving
    // window) drops the window's residuals as non-finite, so stage 1 skips
    // it, and coasts the GPS filters.
    Delivery deliver(const TimedPrediction& pred);

    // End of flight: drains the IMU backlog, selects the GPS variant by the
    // final IMU verdict and reports on `window_health` plus the stages'
    // tallies (mirroring the selected GPS tally into the `faults.*`
    // counters).  With `trace_out`, the selected path's full evidence.
    RcaReport finish(const faults::HealthReport& window_health,
                     RcaDecisionTrace* trace_out = nullptr);

    bool imu_attacked() const { return imu_.result().attacked; }
    const std::vector<ImuWindowDecision>& imu_decisions() const {
      return imu_decisions_;
    }
    const std::vector<GpsFixDecision>& gps_decisions(GpsDetectorMode mode) const;

    // Bitwise checkpoint of everything above (detector thresholds included
    // as a guard).  load_state expects a monitor built against the SAME
    // detectors; it returns false on malformed bytes or a mismatch, leaving
    // the monitor in an unspecified state.
    void save_state(std::ostream& os) const;
    bool load_state(std::istream& is);

   private:
    ImuRcaDetector::Monitor imu_;
    // [0] = kAudioOnly, [1] = kAudioImu.
    GpsRcaDetector::Monitor gps_[2];
    // The sensor samples still to be read: deliver() drops the prefix every
    // later window is past, so a session's state does not grow with flight
    // age.
    std::vector<sim::ImuSample> imu_buf_;
    std::vector<sim::GpsSample> gps_buf_;
    std::size_t residual_lo_ = 0;  // window_residuals scan cursor
    faults::HealthReport imu_health_;
    faults::HealthReport gps_health_[2];
    std::vector<ImuWindowDecision> imu_decisions_;
    std::vector<GpsFixDecision> gps_decisions_[2];
  };

 private:
  const SensoryMapper* mapper_;
  const ImuRcaDetector* imu_;
  const GpsRcaDetector* gps_;
};

}  // namespace sb::core
