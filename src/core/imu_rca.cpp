#include "core/imu_rca.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "util/binary_io.hpp"
#include "util/stats.hpp"

namespace sb::core {
namespace {

bool finite(const Vec3& v) {
  return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
}

void axis_stats(const WindowResiduals& w, double mean_out[3], double std_out[3]) {
  std::vector<double> axis[3];
  for (const auto& r : w.samples) {
    axis[0].push_back(r.x);
    axis[1].push_back(r.y);
    axis[2].push_back(r.z);
  }
  for (int a = 0; a < 3; ++a) {
    mean_out[a] = sb::mean(axis[static_cast<std::size_t>(a)]);
    std_out[a] = sb::stddev(axis[static_cast<std::size_t>(a)]);
  }
}

}  // namespace

ImuRcaDetector::ImuRcaDetector(const ImuRcaConfig& config) : config_(config) {}

WindowResiduals ImuRcaDetector::window_residuals(
    const TimedPrediction& pred, std::span<const sim::ImuSample> imu,
    std::size_t& lo, std::size_t* total, std::size_t* nonfinite) {
  WindowResiduals w;
  w.t0 = pred.t0;
  w.t1 = pred.t1;
  // IMU samples are time-ordered; advance to the window start.  Windows
  // overlap when stride < window, so scan from a remembered lower bound.
  while (lo < imu.size() && imu[lo].t < pred.t0) ++lo;
  for (std::size_t i = lo; i < imu.size() && imu[i].t < pred.t1; ++i) {
    if (total) ++*total;
    const Vec3 r = pred.accel - imu[i].accel_ned;
    // A NaN reading would poison every window statistic downstream; drop
    // it here and let the per-window sample-count minimum decide whether
    // enough evidence remains.
    if (!finite(r)) {
      if (nonfinite) ++*nonfinite;
      continue;
    }
    w.samples.push_back(r);
  }
  return w;
}

Vec3 ImuRcaDetector::baseline(std::span<const WindowResiduals> raw) {
  Vec3 sum;
  std::size_t n = 0;
  for (const auto& w : raw.first(std::min(kReferenceWindows, raw.size())))
    for (const auto& r : w.samples) {
      sum += r;
      ++n;
    }
  return n > 0 ? sum / static_cast<double>(n) : Vec3{};
}

std::vector<WindowResiduals> ImuRcaDetector::residuals(
    const Flight& flight, std::span<const TimedPrediction> preds) {
  std::vector<WindowResiduals> out;
  out.reserve(preds.size());
  std::size_t lo = 0;
  for (const auto& p : preds) out.push_back(window_residuals(p, flight.log.imu, lo));

  // Flight-local baseline from the attack-free early windows.  Residuals are
  // finite, so subtracting a zero baseline leaves them bit-identical.
  const Vec3 b = baseline(out);
  for (auto& w : out)
    for (auto& r : w.samples) r -= b;
  return out;
}

void ImuRcaDetector::calibrate(std::span<const WindowResiduals> benign_windows) {
  std::vector<double> pooled[3], means[3], spreads[3];
  for (const auto& w : benign_windows) {
    if (w.samples.size() < 8) continue;
    for (const auto& r : w.samples) {
      pooled[0].push_back(r.x);
      pooled[1].push_back(r.y);
      pooled[2].push_back(r.z);
    }
    double m[3], s[3];
    axis_stats(w, m, s);
    for (int a = 0; a < 3; ++a) {
      means[a].push_back(m[a]);
      spreads[a].push_back(s[a]);
    }
  }
  for (int a = 0; a < 3; ++a) {
    const auto ai = static_cast<std::size_t>(a);
    pooled_[ai] = detect::fit_normal(pooled[a]);
    mean_fit_[ai] = detect::fit_normal(means[a]);
    spread_fit_[ai] = detect::fit_normal(spreads[a]);
  }
  calibrated_ = true;

  std::vector<double> benign_scores;
  benign_scores.reserve(benign_windows.size());
  for (const auto& w : benign_windows)
    if (w.samples.size() >= 8) benign_scores.push_back(window_score(w));
  if (benign_scores.empty()) {
    // Nothing usable (e.g. a totally dropped-out calibration stream): keep
    // the effectively-infinite default threshold rather than alerting on
    // every window of every future flight.
    obs::logf(obs::LogLevel::kWarn, "detect",
              "ImuRcaDetector: no usable calibration windows (%zu offered); "
              "threshold left at %g — detection disabled",
              benign_windows.size(), score_threshold_);
    return;
  }
  score_threshold_ = std::max(
      sb::percentile(benign_scores, config_.score_percentile) * config_.score_margin,
      config_.min_threshold);
}

void ImuRcaDetector::window_components(const WindowResiduals& window,
                                       std::array<double, 3>& mean_z,
                                       std::array<double, 3>& spread_z) const {
  if (!calibrated_) throw std::logic_error{"ImuRcaDetector: score before calibrate"};
  double m[3], s[3];
  axis_stats(window, m, s);
  for (std::size_t a = 0; a < 3; ++a) {
    mean_z[a] = std::abs(m[a] - mean_fit_[a].mean) / mean_fit_[a].stddev;
    spread_z[a] = std::abs(s[a] - spread_fit_[a].mean) / spread_fit_[a].stddev;
  }
}

double ImuRcaDetector::window_score(const WindowResiduals& window) const {
  std::array<double, 3> mean_z{}, spread_z{};
  window_components(window, mean_z, spread_z);
  double score = 0.0;
  for (std::size_t a = 0; a < 3; ++a)
    score = std::max({score, mean_z[a], spread_z[a]});
  return score;
}

double ImuRcaDetector::window_ks(const WindowResiduals& window) const {
  if (!calibrated_) throw std::logic_error{"ImuRcaDetector: ks before calibrate"};
  std::vector<double> pool;
  pool.reserve(window.samples.size() * 3);
  for (const auto& r : window.samples) {
    pool.push_back((r.x - pooled_[0].mean) / pooled_[0].stddev);
    pool.push_back((r.y - pooled_[1].mean) / pooled_[1].stddev);
    pool.push_back((r.z - pooled_[2].mean) / pooled_[2].stddev);
  }
  return detect::ks_test_normal(pool, 0.0, 1.0).statistic;
}

bool ImuRcaDetector::step(const WindowResiduals& w, StepState& state,
                          ImuWindowDecision* decision) const {
  if (!calibrated_) throw std::logic_error{"ImuRcaDetector: analyze before calibrate"};
  Result& result = state.result;
  if (w.samples.size() < 8) {
    // Too little usable evidence (dropout / NaN-filtered window): record
    // the skip; it neither flags nor resets the consecutive run, so a
    // gap inside an attack does not erase the attack.
    ++result.windows_skipped;
    return false;
  }
  std::array<double, 3> mean_z{}, spread_z{};
  window_components(w, mean_z, spread_z);
  double score = 0.0;
  for (std::size_t a = 0; a < 3; ++a)
    score = std::max({score, mean_z[a], spread_z[a]});
  ++result.windows_tested;
  result.max_score = std::max(result.max_score, score);
  const bool flagged = score > score_threshold_;
  bool alert = false;
  if (flagged) {
    ++result.windows_flagged;
    ++state.consecutive;
    if (state.consecutive >= config_.consecutive_required && !result.attacked) {
      result.attacked = true;
      result.detect_time = w.t1;
      alert = true;
    }
  } else {
    state.consecutive = 0;
  }
  if (decision) {
    decision->t0 = w.t0;
    decision->t1 = w.t1;
    decision->mean_z = mean_z;
    decision->spread_z = spread_z;
    decision->score = score;
    decision->threshold = score_threshold_;
    decision->flagged = flagged;
    decision->alert = alert;
  }
  return true;
}

ImuRcaDetector::Result ImuRcaDetector::analyze(
    std::span<const WindowResiduals> windows) const {
  if (!calibrated_) throw std::logic_error{"ImuRcaDetector: analyze before calibrate"};
  obs::ScopedSpan span{"imu_rca", obs::Stage::kDetect};
  StepState state;
  for (const auto& w : windows) step(w, state, nullptr);
  return state.result;
}

ImuRcaDetector::Monitor::Monitor(const ImuRcaDetector& detector)
    : detector_(&detector) {}

void ImuRcaDetector::Monitor::freeze_and_drain(std::vector<ImuWindowDecision>& out) {
  if (!frozen_) {
    baseline_ = baseline(pending_);
    frozen_ = true;
  }
  for (auto& w : pending_) {
    for (auto& r : w.samples) r -= baseline_;
    ImuWindowDecision d;
    if (detector_->step(w, state_, &d)) out.push_back(d);
  }
  pending_.clear();
}

void ImuRcaDetector::Monitor::add(WindowResiduals raw,
                                  std::vector<ImuWindowDecision>& out) {
  pending_.push_back(std::move(raw));
  if (frozen_ || pending_.size() >= kReferenceWindows) freeze_and_drain(out);
}

void ImuRcaDetector::Monitor::finish(std::vector<ImuWindowDecision>& out) {
  freeze_and_drain(out);
}

void ImuRcaDetector::Monitor::save_state(std::ostream& os) const {
  using util::io::write_pod;
  write_pod(os, static_cast<std::uint64_t>(kReferenceWindows));
  write_pod(os, static_cast<std::uint8_t>(frozen_ ? 1 : 0));
  write_pod(os, baseline_);
  write_pod(os, static_cast<std::uint64_t>(pending_.size()));
  for (const auto& w : pending_) {
    write_pod(os, w.t0);
    write_pod(os, w.t1);
    util::io::write_pod_vec(os, w.samples);
  }
  const Result& r = state_.result;
  write_pod(os, static_cast<std::uint8_t>(r.attacked ? 1 : 0));
  write_pod(os, r.detect_time);
  write_pod(os, r.max_score);
  write_pod(os, static_cast<std::uint64_t>(r.windows_tested));
  write_pod(os, static_cast<std::uint64_t>(r.windows_flagged));
  write_pod(os, static_cast<std::uint64_t>(r.windows_skipped));
  write_pod(os, static_cast<std::int64_t>(state_.consecutive));
}

bool ImuRcaDetector::Monitor::load_state(std::istream& is) {
  using util::io::read_pod;
  std::uint64_t ref = 0, n_pending = 0;
  std::uint8_t frozen = 0;
  if (!read_pod(is, ref) || ref != kReferenceWindows) return false;
  if (!read_pod(is, frozen) || !read_pod(is, baseline_)) return false;
  if (!read_pod(is, n_pending)) return false;
  // Between calls the backlog holds fewer than kReferenceWindows windows
  // (none once frozen); a wild count here means corrupt bytes.
  if (n_pending >= kReferenceWindows) return false;
  pending_.clear();
  pending_.reserve(n_pending);
  for (std::uint64_t i = 0; i < n_pending; ++i) {
    WindowResiduals w;
    if (!read_pod(is, w.t0) || !read_pod(is, w.t1) ||
        !util::io::read_pod_vec(is, w.samples))
      return false;
    pending_.push_back(std::move(w));
  }
  Result r;
  std::uint8_t attacked = 0;
  std::uint64_t tested = 0, flagged = 0, skipped = 0;
  std::int64_t consecutive = 0;
  if (!read_pod(is, attacked) || !read_pod(is, r.detect_time) ||
      !read_pod(is, r.max_score) || !read_pod(is, tested) ||
      !read_pod(is, flagged) || !read_pod(is, skipped) ||
      !read_pod(is, consecutive))
    return false;
  frozen_ = frozen != 0;
  r.attacked = attacked != 0;
  r.windows_tested = static_cast<std::size_t>(tested);
  r.windows_flagged = static_cast<std::size_t>(flagged);
  r.windows_skipped = static_cast<std::size_t>(skipped);
  state_.result = r;
  state_.consecutive = static_cast<int>(consecutive);
  return true;
}

}  // namespace sb::core
