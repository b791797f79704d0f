#include "core/gps_rca.hpp"

#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/binary_io.hpp"

namespace sb::core {
namespace {

std::size_t mode_index(GpsDetectorMode mode) {
  return mode == GpsDetectorMode::kAudioOnly ? 0 : 1;
}

bool finite(const Vec3& v) {
  return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
}

bool usable(const sim::GpsSample& fix) {
  return std::isfinite(fix.t) && finite(fix.vel) && finite(fix.pos);
}

}  // namespace

GpsRcaDetector::GpsRcaDetector(const GpsRcaConfig& config) : config_(config) {}

double GpsRcaDetector::threshold(GpsDetectorMode mode) const {
  return vel_thresholds_[mode_index(mode)];
}

double GpsRcaDetector::pos_threshold(GpsDetectorMode mode) const {
  return pos_thresholds_[mode_index(mode)];
}

bool GpsRcaDetector::calibrated(GpsDetectorMode mode) const {
  return vel_thresholds_[mode_index(mode)] >= 0.0;
}

double GpsRcaDetector::calibrate(std::span<const Result> benign_results,
                                 GpsDetectorMode mode) {
  std::vector<double> vel_peaks, pos_peaks;
  vel_peaks.reserve(benign_results.size());
  pos_peaks.reserve(benign_results.size());
  for (const auto& r : benign_results) {
    vel_peaks.push_back(r.peak_running_mean);
    pos_peaks.push_back(r.peak_pos_dev);
  }
  const double vt = detect::calibrate_threshold(vel_peaks, config_.threshold);
  const double pt = detect::calibrate_threshold(pos_peaks, config_.threshold);
  vel_thresholds_[mode_index(mode)] = vt;
  pos_thresholds_[mode_index(mode)] = pt;
  return vt;
}

GpsRcaDetector::Monitor::Monitor(const GpsRcaDetector& detector, GpsDetectorMode mode)
    : config_(detector.config_),
      mode_(mode),
      vel_threshold_(detector.threshold(mode)),
      pos_threshold_(detector.pos_threshold(mode)),
      monitor_(detector.config_.mean_window),
      last_fix_t_(std::numeric_limits<double>::quiet_NaN()) {}

void GpsRcaDetector::Monitor::step_window(
    const TimedPrediction& p, std::span<const sim::GpsSample> gps,
    std::span<const sim::ImuSample> imu,
    std::vector<GpsFixDecision>* decisions_out, faults::HealthReport* health,
    Trace* trace_out) {
  const bool telemetry = obs::enabled();
  if (first_window_) {
    // Seed from the first FINITE fix (pre-attack per the threat model:
    // attacks start only after takeoff completes); a poisoned leading fix
    // must not seed the filter with NaN.
    Vec3 v0;
    for (const auto& fix : gps) {
      if (!usable(fix)) continue;
      v0 = fix.vel;
      pos_est_ = fix.pos;
      break;
    }
    kf_ = est::VelocityKf{v0, config_.kf.p0};
    prev_t_ = p.t0;
    first_window_ = false;
  }
  const double dt = p.t1 - prev_t_;
  prev_t_ = p.t1;
  if (dt <= 0.0) return;

  const double kf_start_us = telemetry ? obs::now_us() : 0.0;
  // Audio-only: the audio acceleration predicts.  Fused (Fig. 4): the IMU
  // acceleration predicts — IMU is high-rate and, when benign, low-noise, so
  // the process noise is smaller.
  const bool fused = mode_ == GpsDetectorMode::kAudioImu;
  const double q = fused ? config_.kf.q_imu : config_.kf.q_audio;
  const auto fallback = [&] {
    if (health) ++health->kf_fallback_steps;
  };
  if (!finite(p.accel) || !finite(p.vel)) {
    // No usable audio prediction for this window (e.g. a fully masked
    // front-end or a shed serving window): predict-only coast, the estimate
    // is held.
    kf_.coast(dt, q);
    fallback();
  } else {
    Vec3 accel = p.accel;
    if (fused) {
      accel = sim::mean_imu_accel(imu, p.t0, p.t1);
      if (sim::imu_samples_in(imu, p.t0, p.t1) == 0 || !finite(accel)) {
        // IMU gap or NaN burst inside this window: fall back to the audio
        // acceleration so one bad window cannot poison the fused filter.
        accel = p.accel;
        fallback();
      }
    }
    kf_.predict(accel, dt, q);
    kf_.update(p.vel, config_.kf.r_audio_vel);
  }
  const Vec3 v_est = kf_.velocity();
  if (telemetry) {
    static obs::Histogram& kf_step =
        obs::Registry::instance().histogram("detect.kf_step_seconds");
    kf_step.record((obs::now_us() - kf_start_us) * 1e-6);
  }
  pos_est_ += v_est * dt;

  // Consume GPS fixes up to the current time.
  while (gps_idx_ < gps.size() && gps[gps_idx_].t <= p.t1) {
    const auto& fix = gps[gps_idx_];
    ++gps_idx_;
    if (!usable(fix)) {
      if (health) ++health->gps_fixes_nonfinite;
      continue;
    }
    if (health) ++health->gps_fixes_total;
    // Reacquisition after an outage: while blind, the audio-anchored KF
    // coasted fine, but the integrated position drifted unobserved and the
    // monitor's window spans the gap.  Restart both against the first new
    // fix so the flight is judged on observed evidence only.
    bool coast_reset = false;
    if (!std::isnan(last_fix_t_) &&
        fix.t - last_fix_t_ > config_.coast_reset_gap) {
      coast_reset = true;
      monitor_.reset();
      pos_est_ = fix.pos;
      if (health) {
        ++health->gps_coast_intervals;
        health->gps_coast_seconds += fix.t - last_fix_t_;
      }
    }
    last_fix_t_ = fix.t;
    if (fix.t < config_.warmup) continue;
    const double mean_err = monitor_.add(fix.vel - v_est);
    const double pos_dev = (fix.pos - pos_est_).norm();
    result_.peak_running_mean = std::max(result_.peak_running_mean, mean_err);
    result_.peak_pos_dev = std::max(result_.peak_pos_dev, pos_dev);
    const bool vel_hit = vel_threshold_ >= 0.0 && mean_err > vel_threshold_;
    const bool pos_hit = pos_threshold_ >= 0.0 && pos_dev > pos_threshold_;
    const bool first_hit = (vel_hit || pos_hit) && !result_.attacked;
    if (first_hit) {
      result_.attacked = true;
      result_.detect_time = fix.t;
    }
    if (decisions_out) {
      GpsFixDecision d;
      d.t = fix.t;
      d.running_mean_err = mean_err;
      d.pos_dev = pos_dev;
      d.vel_threshold = vel_threshold_;
      d.pos_threshold = pos_threshold_;
      d.vel_hit = vel_hit;
      d.pos_hit = pos_hit;
      d.alert = first_hit;
      d.coast_reset = coast_reset;
      decisions_out->push_back(d);
    }
    if (trace_out) {
      trace_out->t.push_back(fix.t);
      trace_out->v_est.push_back(v_est);
      trace_out->v_gps.push_back(fix.vel);
      trace_out->pos_est.push_back(pos_est_);
      trace_out->running_mean.push_back(mean_err);
    }
  }
}

void GpsRcaDetector::Monitor::save_state(std::ostream& os) const {
  using util::io::write_pod;
  write_pod(os, static_cast<std::uint32_t>(mode_index(mode_)));
  write_pod(os, vel_threshold_);
  write_pod(os, pos_threshold_);
  write_pod(os, static_cast<std::uint64_t>(config_.mean_window));
  write_pod(os, static_cast<std::uint8_t>(first_window_ ? 1 : 0));
  write_pod(os, kf_.velocity());
  write_pod(os, kf_.variance());
  monitor_.save_state(os);
  write_pod(os, pos_est_);
  write_pod(os, static_cast<std::uint64_t>(gps_idx_));
  write_pod(os, prev_t_);
  write_pod(os, last_fix_t_);
  write_pod(os, static_cast<std::uint8_t>(result_.attacked ? 1 : 0));
  write_pod(os, result_.detect_time);
  write_pod(os, result_.peak_running_mean);
  write_pod(os, result_.peak_pos_dev);
}

bool GpsRcaDetector::Monitor::load_state(std::istream& is) {
  using util::io::read_pod;
  std::uint32_t mode = 0;
  double vel_th = 0.0, pos_th = 0.0;
  std::uint64_t mean_window = 0;
  if (!read_pod(is, mode) || mode != mode_index(mode_)) return false;
  // Thresholds are part of the detector configuration, not the state: a
  // checkpoint taken against different thresholds would silently change
  // every subsequent verdict, so reject it loudly instead.
  if (!read_pod(is, vel_th) || vel_th != vel_threshold_) return false;
  if (!read_pod(is, pos_th) || pos_th != pos_threshold_) return false;
  if (!read_pod(is, mean_window) || mean_window != config_.mean_window)
    return false;
  std::uint8_t first_window = 0;
  Vec3 v;
  double variance = 0.0;
  if (!read_pod(is, first_window) || !read_pod(is, v) || !read_pod(is, variance))
    return false;
  first_window_ = first_window != 0;
  kf_ = est::VelocityKf{v, variance};
  if (!monitor_.load_state(is)) return false;
  std::uint64_t gps_idx = 0;
  std::uint8_t attacked = 0;
  if (!read_pod(is, pos_est_) || !read_pod(is, gps_idx) ||
      !read_pod(is, prev_t_) || !read_pod(is, last_fix_t_) ||
      !read_pod(is, attacked) || !read_pod(is, result_.detect_time) ||
      !read_pod(is, result_.peak_running_mean) ||
      !read_pod(is, result_.peak_pos_dev))
    return false;
  gps_idx_ = static_cast<std::size_t>(gps_idx);
  result_.attacked = attacked != 0;
  return true;
}

GpsRcaDetector::Result GpsRcaDetector::run(const Flight& flight,
                                           std::span<const TimedPrediction> preds,
                                           GpsDetectorMode mode,
                                           Trace* trace_out) const {
  obs::ScopedSpan span{"gps_rca", obs::Stage::kDetect};
  Monitor monitor{*this, mode};
  for (const auto& p : preds)
    monitor.step_window(p, flight.log.gps, flight.log.imu, nullptr, nullptr,
                        trace_out);
  return monitor.result();
}

GpsRcaDetector::Result GpsRcaDetector::analyze(
    const Flight& flight, std::span<const TimedPrediction> preds,
    GpsDetectorMode mode) const {
  return run(flight, preds, mode, nullptr);
}

GpsRcaDetector::Trace GpsRcaDetector::trace(const Flight& flight,
                                            std::span<const TimedPrediction> preds,
                                            GpsDetectorMode mode) const {
  Trace t;
  run(flight, preds, mode, &t);
  return t;
}

}  // namespace sb::core
