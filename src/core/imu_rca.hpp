// IMU-stage RCA (paper §III-C1): for every 0.5 s signature window, the
// audio acceleration prediction is compared against the ~100 IMU readings
// inside the window.  The residual distribution of a benign window matches
// the normal distribution fitted on benign flights; under an IMU biasing
// attack it shifts (Side-Swing) or widens (accelerometer DoS), and a
// Kolmogorov–Smirnov test flags the window (Fig. 6).
//
// Within-window residuals share the window's single model prediction and are
// therefore correlated, so instead of asymptotic iid p-values the detector
// calibrates an empirical KS-statistic threshold on benign windows.
#pragma once

#include <array>
#include <iosfwd>
#include <span>
#include <vector>

#include "core/decision_trace.hpp"
#include "core/flight_lab.hpp"
#include "core/sensory_mapper.hpp"
#include "detect/ks_test.hpp"
#include "detect/threshold.hpp"

namespace sb::core {

struct ImuRcaConfig {
  int consecutive_required = 3;    // consecutive flagged windows -> attack
  double score_percentile = 98.0;  // benign OOD-score percentile
  double score_margin = 1.10;      // pad on the calibrated threshold
  // Floor on the calibrated threshold.  Healthy calibrations land well
  // above it (a z-score threshold around 3); it only engages when the
  // benign windows were degenerate (near-identical residuals), where an
  // unfloored near-zero threshold would flag every window — an alert storm
  // with no evidence behind it.
  double min_threshold = 1.0;
};

// Windows at the start of a flight whose mean residual is the flight-local
// baseline (ImuRcaDetector::baseline).
inline constexpr std::size_t kReferenceWindows = 10;

// Residuals of one signature window: prediction minus each IMU reading.
struct WindowResiduals {
  double t0 = 0.0;
  double t1 = 0.0;
  std::vector<Vec3> samples;
};

class ImuRcaDetector {
 public:
  explicit ImuRcaDetector(const ImuRcaConfig& config);

  // IMU-rate residual series of one flight given its window predictions
  // (detector calibration, Fig. 6).  Residuals are baselined against the
  // flight's first kReferenceWindows windows: the threat model guarantees
  // attacks begin only after takeoff completes, so the early flight
  // provides a per-flight reference that removes flight-specific model bias
  // before the distribution test.  Non-finite IMU readings (NaN bursts,
  // poisoned streams) are dropped before any statistic touches them.
  static std::vector<WindowResiduals> residuals(const Flight& flight,
                                                std::span<const TimedPrediction> preds);

  // One window's RAW (un-baselined) residuals from a time-ordered IMU sample
  // stream.  `lo` is the remembered scan lower bound, advanced in place so
  // overlapping windows re-scan only their overlap.  Non-finite readings are
  // dropped and tallied into `total`/`nonfinite` when given.  residuals()
  // and the decision monitors build their windows through this one
  // implementation.
  static WindowResiduals window_residuals(const TimedPrediction& pred,
                                          std::span<const sim::ImuSample> imu,
                                          std::size_t& lo,
                                          std::size_t* total = nullptr,
                                          std::size_t* nonfinite = nullptr);

  // The flight-local baseline: mean residual over the first
  // kReferenceWindows RAW windows, accumulated in window then sample order
  // (zero when they hold no samples).  residuals() and Monitor both
  // baseline through it.
  static Vec3 baseline(std::span<const WindowResiduals> raw);

  // Fits the benign residual statistics (Fig. 6's blue curve): per-axis
  // distributions of the window MEAN (Side-Swing shifts it) and of the
  // within-window STANDARD DEVIATION (DoS inflates it), plus the empirical
  // alert threshold on the combined out-of-distribution score.
  void calibrate(std::span<const WindowResiduals> benign_windows);

  struct Result {
    bool attacked = false;
    double detect_time = -1.0;  // first flagged window end, s
    double max_score = 0.0;
    std::size_t windows_tested = 0;
    std::size_t windows_flagged = 0;
    // Windows excluded from testing (too few usable residual samples after
    // non-finite filtering — dropouts, NaN bursts) and why the verdict may
    // rest on thinner evidence than the window count suggests.
    std::size_t windows_skipped = 0;
  };

  // Running per-flight analysis state shared by analyze() and Monitor.
  struct StepState {
    Result result;
    int consecutive = 0;
  };

  // Applies one BASELINED window to the running state — the single decision
  // step behind analyze() and Monitor.  Returns true when a decision was
  // emitted into `decision` (windows skipped for thin evidence emit none and
  // do not reset the consecutive run).
  bool step(const WindowResiduals& window, StepState& state,
            ImuWindowDecision* decision) const;

  // Verdict over already-baselined windows.
  Result analyze(std::span<const WindowResiduals> windows) const;

  // Incremental form of residuals()+analyze(): feed RAW (un-baselined)
  // windows in grid order and collect decisions as they become final.  The
  // pending backlog holds exactly the first kReferenceWindows windows when
  // the baseline freezes (at finish() for short flights), so early windows
  // drain in order once it does — the decision sequence and Result equal
  // analyze() over residuals() bit for bit.
  class Monitor {
   public:
    explicit Monitor(const ImuRcaDetector& detector);

    // Offers the next raw window and appends the decisions it finalized to
    // `out` (none while the baseline is pending, the backlog right after it
    // freezes, then one per tested window).
    void add(WindowResiduals raw, std::vector<ImuWindowDecision>& out);

    // Marks end-of-flight: freezes the baseline if still pending and drains
    // the remaining backlog into `out`.
    void finish(std::vector<ImuWindowDecision>& out);

    const Result& result() const { return state_.result; }
    const ImuRcaDetector& detector() const { return *detector_; }

    // Bitwise checkpoint of the running analysis state (baseline, pending
    // backlog, step state).  The state records kReferenceWindows, and
    // load_state expects a monitor constructed against the SAME detector;
    // it returns false on malformed bytes or a configuration mismatch,
    // leaving the monitor in an unspecified state.
    void save_state(std::ostream& os) const;
    bool load_state(std::istream& is);

   private:
    void freeze_and_drain(std::vector<ImuWindowDecision>& out);

    const ImuRcaDetector* detector_;
    bool frozen_ = false;
    Vec3 baseline_;
    std::vector<WindowResiduals> pending_;
    StepState state_;
  };

  // Out-of-distribution score of one window against the benign calibration:
  // the largest per-axis z-score of (window mean, window spread).
  double window_score(const WindowResiduals& window) const;

  // The individual z-scores window_score maximizes over: per-axis mean shift
  // (Side-Swing's signature) and spread inflation (accelerometer DoS's).
  void window_components(const WindowResiduals& window,
                         std::array<double, 3>& mean_z,
                         std::array<double, 3>& spread_z) const;

  // KS statistic of the window's residuals against the pooled benign normal
  // fit — the quantity Fig. 6 visualizes.
  double window_ks(const WindowResiduals& window) const;

  bool calibrated() const { return calibrated_; }
  double score_threshold() const { return score_threshold_; }
  const detect::NormalFit& benign_fit(int axis) const {
    return pooled_[static_cast<std::size_t>(axis)];
  }

 private:
  ImuRcaConfig config_;
  detect::NormalFit pooled_[3];      // all benign residuals (Fig. 6 curve)
  detect::NormalFit mean_fit_[3];    // benign window means
  detect::NormalFit spread_fit_[3];  // benign window stddevs
  double score_threshold_ = 1e9;
  bool calibrated_ = false;
};

}  // namespace sb::core
