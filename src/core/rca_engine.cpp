#include "core/rca_engine.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/binary_io.hpp"

namespace sb::core {
namespace {

std::size_t mode_index(GpsDetectorMode mode) {
  return mode == GpsDetectorMode::kAudioOnly ? 0 : 1;
}

// Stage 2 variant for a stage-1 verdict: an attacked IMU cannot be fused.
GpsDetectorMode gps_mode_for(bool imu_attacked) {
  return imu_attacked ? GpsDetectorMode::kAudioOnly : GpsDetectorMode::kAudioImu;
}

void add_count(const char* counter, std::size_t n) {
  if (n > 0) obs::Registry::instance().counter(counter).add(n);
}

}  // namespace

CalibratedDetectors calibrate_detectors(
    std::span<const Flight> flights,
    std::span<const std::vector<TimedPrediction>> preds,
    const ImuRcaConfig& imu_config) {
  if (flights.size() != preds.size())
    throw std::invalid_argument{"calibrate_detectors: one prediction set per flight"};
  CalibratedDetectors det{ImuRcaDetector{imu_config}, GpsRcaDetector{GpsRcaConfig{}}};
  std::vector<WindowResiduals> imu_windows;
  std::vector<GpsRcaDetector::Result> audio, fused;
  for (std::size_t i = 0; i < flights.size(); ++i) {
    const auto w = ImuRcaDetector::residuals(flights[i], preds[i]);
    imu_windows.insert(imu_windows.end(), w.begin(), w.end());
    audio.push_back(det.gps.analyze(flights[i], preds[i], GpsDetectorMode::kAudioOnly));
    fused.push_back(det.gps.analyze(flights[i], preds[i], GpsDetectorMode::kAudioImu));
  }
  det.imu.calibrate(imu_windows);
  det.gps.calibrate(audio, GpsDetectorMode::kAudioOnly);
  det.gps.calibrate(fused, GpsDetectorMode::kAudioImu);
  return det;
}

RcaEngine::RcaEngine(const SensoryMapper& mapper, const ImuRcaDetector& imu_detector,
                     const GpsRcaDetector& gps_detector)
    : mapper_(&mapper), imu_(&imu_detector), gps_(&gps_detector) {}

RcaReport RcaEngine::analyze(const FlightLab& lab, const Flight& flight,
                             const PredictionHooks& hooks,
                             RcaDecisionTrace* trace_out) const {
  faults::HealthReport window_health;
  const auto preds = mapper_->predict_flight(lab, flight, hooks, &window_health);
  return decide(flight, preds, window_health, trace_out);
}

RcaReport RcaEngine::decide(const Flight& flight,
                            std::span<const TimedPrediction> preds,
                            const faults::HealthReport& window_health,
                            RcaDecisionTrace* trace_out) const {
  obs::ScopedSpan span{"rca_decide", obs::Stage::kDetect};
  Monitor monitor{*imu_, *gps_};
  monitor.push_imu(flight.log.imu);
  monitor.push_gps(flight.log.gps);
  for (const auto& p : preds) monitor.deliver(p);
  return monitor.finish(window_health, trace_out);
}

RcaEngine::Monitor::Monitor(const ImuRcaDetector& imu_detector,
                            const GpsRcaDetector& gps_detector)
    : imu_(imu_detector),
      gps_{{gps_detector, GpsDetectorMode::kAudioOnly},
           {gps_detector, GpsDetectorMode::kAudioImu}} {}

void RcaEngine::Monitor::push_imu(std::span<const sim::ImuSample> samples) {
  imu_buf_.insert(imu_buf_.end(), samples.begin(), samples.end());
}

void RcaEngine::Monitor::push_gps(std::span<const sim::GpsSample> samples) {
  gps_buf_.insert(gps_buf_.end(), samples.begin(), samples.end());
}

const std::vector<GpsFixDecision>& RcaEngine::Monitor::gps_decisions(
    GpsDetectorMode mode) const {
  return gps_decisions_[mode_index(mode)];
}

RcaEngine::Monitor::Delivery RcaEngine::Monitor::deliver(const TimedPrediction& pred) {
  Delivery out;
  out.imu_begin = imu_decisions_.size();
  std::size_t nonfinite = 0;
  auto raw = ImuRcaDetector::window_residuals(
      pred, imu_buf_, residual_lo_, &imu_health_.imu_samples_total, &nonfinite);
  imu_health_.imu_samples_nonfinite += nonfinite;
  add_count("faults.imu_samples_nonfinite", nonfinite);
  imu_.add(std::move(raw), imu_decisions_);

  out.gps_mode = gps_mode_for(imu_attacked());
  out.gps_begin = gps_decisions_[mode_index(out.gps_mode)].size();
  for (std::size_t m = 0; m < 2; ++m)
    gps_[m].step_window(pred, gps_buf_, imu_buf_, &gps_decisions_[m],
                        &gps_health_[m]);

  // Later windows never start earlier, so the IMU samples before the
  // residual cursor and the fixes both GPS variants consumed are never read
  // again.  A prefix goes once it is half the buffer, which keeps a whole
  // log pushed up front (decide()) linear.
  if (residual_lo_ > 0 && 2 * residual_lo_ >= imu_buf_.size()) {
    imu_buf_.erase(imu_buf_.begin(),
                   imu_buf_.begin() + static_cast<std::ptrdiff_t>(residual_lo_));
    residual_lo_ = 0;
  }
  const std::size_t fixes =
      std::min(gps_[0].fixes_consumed(), gps_[1].fixes_consumed());
  if (fixes > 0 && 2 * fixes >= gps_buf_.size()) {
    gps_buf_.erase(gps_buf_.begin(),
                   gps_buf_.begin() + static_cast<std::ptrdiff_t>(fixes));
    for (auto& m : gps_) m.drop_fixes(fixes);
  }
  return out;
}

RcaReport RcaEngine::Monitor::finish(const faults::HealthReport& window_health,
                                     RcaDecisionTrace* trace_out) {
  // Short flights: the baseline may still be pending — it freezes over the
  // windows seen.
  imu_.finish(imu_decisions_);
  const ImuRcaDetector::Result& imu = imu_.result();
  RcaReport report;
  report.imu_attacked = imu.attacked;
  report.imu_detect_time = imu.detect_time;
  report.gps_mode_used = gps_mode_for(imu.attacked);
  const std::size_t sel = mode_index(report.gps_mode_used);
  const GpsRcaDetector::Result& gps = gps_[sel].result();
  report.gps_attacked = gps.attacked;
  report.gps_detect_time = gps.detect_time;

  // Only the SELECTED variant's tally counts — the rejected monitor's walk
  // over the same fixes must not double-count — and it is mirrored into the
  // global counters, which no detector counts on its own.
  faults::HealthReport& health = report.health;
  health = window_health;
  health += imu_health_;
  health.imu_windows_skipped += imu.windows_skipped;
  health += gps_health_[sel];
  add_count("faults.imu_windows_skipped", imu.windows_skipped);
  add_count("faults.gps_fixes_nonfinite", gps_health_[sel].gps_fixes_nonfinite);
  add_count("faults.gps_coast_intervals", gps_health_[sel].gps_coast_intervals);
  add_count("faults.kf_fallback_steps", gps_health_[sel].kf_fallback_steps);
  if (health.degraded())
    obs::logf(obs::LogLevel::kInfo, "detect",
              "RCA completed degraded: %zu/%u mics alive, %zu windows masked, "
              "%zu IMU windows skipped, %zu GPS coast intervals (%.1f s)",
              health.mics_alive(), static_cast<unsigned>(sensors::kNumMics),
              health.windows_degraded, health.imu_windows_skipped,
              health.gps_coast_intervals, health.gps_coast_seconds);
  if (trace_out) {
    trace_out->imu = imu_decisions_;
    trace_out->gps = gps_decisions_[sel];
    trace_out->imu_attacked = report.imu_attacked;
    trace_out->gps_attacked = report.gps_attacked;
    trace_out->gps_mode = report.gps_mode_used;
    trace_out->health = health;
  }
  return report;
}

// The layouts the records keep: ten doubles, two bools and 6 bytes of
// padding; five doubles, four bools and 4 bytes of padding.
static_assert(sizeof(ImuWindowDecision) == kImuDecisionBytes);
static_assert(sizeof(GpsFixDecision) == kGpsDecisionBytes);

void write_imu_decision(std::ostream& os, const ImuWindowDecision& d) {
  using util::io::write_pod;
  write_pod(os, d.t0);
  write_pod(os, d.t1);
  write_pod(os, d.mean_z);
  write_pod(os, d.spread_z);
  write_pod(os, d.score);
  write_pod(os, d.threshold);
  util::io::write_bool(os, d.flagged);
  util::io::write_bool(os, d.alert);
  util::io::write_padding(os, 6);
}

bool read_imu_decision(std::istream& is, ImuWindowDecision& d) {
  using util::io::read_bool;
  using util::io::read_pod;
  return read_pod(is, d.t0) && read_pod(is, d.t1) && read_pod(is, d.mean_z) &&
         read_pod(is, d.spread_z) && read_pod(is, d.score) &&
         read_pod(is, d.threshold) && read_bool(is, d.flagged) &&
         read_bool(is, d.alert) && util::io::skip_padding(is, 6);
}

void write_gps_decision(std::ostream& os, const GpsFixDecision& d) {
  using util::io::write_bool;
  using util::io::write_pod;
  write_pod(os, d.t);
  write_pod(os, d.running_mean_err);
  write_pod(os, d.pos_dev);
  write_pod(os, d.vel_threshold);
  write_pod(os, d.pos_threshold);
  write_bool(os, d.vel_hit);
  write_bool(os, d.pos_hit);
  write_bool(os, d.alert);
  write_bool(os, d.coast_reset);
  util::io::write_padding(os, 4);
}

bool read_gps_decision(std::istream& is, GpsFixDecision& d) {
  using util::io::read_bool;
  using util::io::read_pod;
  return read_pod(is, d.t) && read_pod(is, d.running_mean_err) &&
         read_pod(is, d.pos_dev) && read_pod(is, d.vel_threshold) &&
         read_pod(is, d.pos_threshold) && read_bool(is, d.vel_hit) &&
         read_bool(is, d.pos_hit) && read_bool(is, d.alert) &&
         read_bool(is, d.coast_reset) && util::io::skip_padding(is, 4);
}

void RcaEngine::Monitor::save_state(std::ostream& os) const {
  using util::io::write_pod;
  using util::io::write_pod_vec;
  using util::io::write_records;
  write_pod(os, imu_.detector().score_threshold());
  imu_.save_state(os);
  for (const auto& m : gps_) m.save_state(os);
  write_pod(os, imu_health_);
  for (const auto& h : gps_health_) write_pod(os, h);
  write_records(os, imu_decisions_, write_imu_decision);
  for (const auto& d : gps_decisions_) write_records(os, d, write_gps_decision);
  write_pod_vec(os, imu_buf_);
  write_pod_vec(os, gps_buf_);
  write_pod(os, static_cast<std::uint64_t>(residual_lo_));
}

bool RcaEngine::Monitor::load_state(std::istream& is) {
  using util::io::read_pod;
  using util::io::read_pod_vec;
  using util::io::read_records;
  double imu_threshold = 0.0;
  if (!read_pod(is, imu_threshold) ||
      imu_threshold != imu_.detector().score_threshold())
    return false;
  if (!imu_.load_state(is)) return false;
  for (auto& m : gps_)
    if (!m.load_state(is)) return false;
  if (!read_pod(is, imu_health_)) return false;
  for (auto& h : gps_health_)
    if (!read_pod(is, h)) return false;
  if (!read_records(is, imu_decisions_, kImuDecisionBytes, read_imu_decision))
    return false;
  for (auto& d : gps_decisions_)
    if (!read_records(is, d, kGpsDecisionBytes, read_gps_decision)) return false;
  if (!read_pod_vec(is, imu_buf_) || !read_pod_vec(is, gps_buf_)) return false;
  std::uint64_t residual_lo = 0;
  if (!read_pod(is, residual_lo) || residual_lo > imu_buf_.size()) return false;
  residual_lo_ = static_cast<std::size_t>(residual_lo);
  for (const auto& m : gps_)
    if (m.fixes_consumed() > gps_buf_.size()) return false;
  return true;
}

}  // namespace sb::core
