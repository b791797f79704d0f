#include "baselines/failsafe_kf.hpp"

#include <algorithm>
#include <vector>

namespace sb::baselines {

FailsafeImuDetector::FailsafeImuDetector(const FailsafeKfConfig& config)
    : config_(config) {}

double FailsafeImuDetector::calibrate(std::span<const Result> benign_results) {
  std::vector<double> vel_peaks, pos_peaks;
  vel_peaks.reserve(benign_results.size());
  pos_peaks.reserve(benign_results.size());
  for (const auto& r : benign_results) {
    vel_peaks.push_back(r.peak_running_mean);
    pos_peaks.push_back(r.peak_pos_dev);
  }
  vel_threshold_ = detect::calibrate_threshold(vel_peaks, config_.threshold);
  pos_threshold_ = detect::calibrate_threshold(pos_peaks, config_.threshold);
  return vel_threshold_;
}

FailsafeImuDetector::Result FailsafeImuDetector::analyze(
    const core::Flight& flight) const {
  Result result;
  const auto& log = flight.log;
  if (log.gps.empty()) return result;

  // IMU-only KF: the IMU acceleration drives the prediction step AND (as a
  // dead-reckoned velocity) the update step — the audio-only algorithm with
  // the IMU in audio's place.  Accelerometer bias makes the dead-reckoned
  // position drift quadratically, which is exactly why the paper's Failsafe
  // baseline trails the acoustic detectors.
  const est::VelocityKfConfig& kf_cfg = config_.kf;
  est::VelocityKf kf{log.gps.front().vel, kf_cfg.p0};
  Vec3 reckoned_vel = log.gps.front().vel;
  double elapsed = 0.0;
  detect::RunningVecMeanMonitor monitor{config_.mean_window};
  Vec3 pos_est = log.gps.front().pos;

  std::size_t gps_idx = 0;
  const double stride = config_.stride;
  for (double t0 = config_.settle_time; t0 + stride <= log.duration(); t0 += stride) {
    const Vec3 imu_accel = log.mean_imu_accel(t0, t0 + stride);
    elapsed += stride;
    kf.predict(imu_accel, stride, kf_cfg.q_imu);
    // The dead-reckoned velocity drifts: its variance grows with the time it
    // has been integrated.
    reckoned_vel += imu_accel * stride;
    kf.update(reckoned_vel, kf_cfg.r_base + kf_cfg.r_drift * elapsed);
    const Vec3 v_est = kf.velocity();
    pos_est += v_est * stride;

    while (gps_idx < log.gps.size() && log.gps[gps_idx].t <= t0 + stride) {
      const auto& fix = log.gps[gps_idx];
      ++gps_idx;
      if (fix.t < config_.warmup) continue;
      const double mean_err = monitor.add(fix.vel - v_est);
      const double pos_dev = (fix.pos - pos_est).norm();
      result.peak_running_mean = std::max(result.peak_running_mean, mean_err);
      result.peak_pos_dev = std::max(result.peak_pos_dev, pos_dev);
      const bool vel_hit = vel_threshold_ >= 0.0 && mean_err > vel_threshold_;
      const bool pos_hit = pos_threshold_ >= 0.0 && pos_dev > pos_threshold_;
      if ((vel_hit || pos_hit) && !result.attacked) {
        result.attacked = true;
        result.detect_time = fix.t;
      }
    }
  }
  return result;
}

}  // namespace sb::baselines
