// "Failsafe IMU only" baseline (paper Tab. II, col. 3): the ArduPilot-style
// failsafe motion estimation that dead-reckons velocity from the IMU alone
// through the same KF structure as SoundBoost's audio-only variant, then runs
// the identical running-mean GPS-deviation detection.
#pragma once

#include <span>

#include "core/flight_lab.hpp"
#include "detect/running_mean.hpp"
#include "detect/threshold.hpp"
#include "estimation/velocity_kf.hpp"

namespace sb::baselines {

struct FailsafeKfConfig {
  est::VelocityKfConfig kf;
  detect::ThresholdConfig threshold;
  double stride = 0.25;  // s between IMU-acceleration aggregation windows
  double warmup = 5.0;
  double settle_time = 2.0;
  std::size_t mean_window = 50;  // GPS fixes in the running mean (10 s at 5 Hz)
};

class FailsafeImuDetector {
 public:
  explicit FailsafeImuDetector(const FailsafeKfConfig& config);

  struct Result {
    bool attacked = false;
    double detect_time = -1.0;
    double peak_running_mean = 0.0;
    double peak_pos_dev = 0.0;
  };

  double calibrate(std::span<const Result> benign_results);
  Result analyze(const core::Flight& flight) const;

  double threshold() const { return vel_threshold_; }
  double pos_threshold() const { return pos_threshold_; }

 private:
  FailsafeKfConfig config_;
  double vel_threshold_ = -1.0;
  double pos_threshold_ = -1.0;
};

}  // namespace sb::baselines
