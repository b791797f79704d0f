#include "baselines/lti_invariant.hpp"

#include <algorithm>
#include <cmath>

#include "estimation/matrix.hpp"

namespace sb::baselines {

std::string to_string(LtiOutput output) {
  switch (output) {
    case LtiOutput::kYaw: return "yaw";
    case LtiOutput::kVx: return "vx";
    case LtiOutput::kVy: return "vy";
  }
  return "?";
}

LtiInvariantDetector::LtiInvariantDetector(const LtiConfig& config, LtiOutput output)
    : config_(config), output_(output) {}

void LtiInvariantDetector::series(const core::Flight& flight, LtiOutput output,
                                  std::vector<double>& y, std::vector<double>& u) {
  y.clear();
  u.clear();
  const auto& log = flight.log;
  const double dt_phys = log.rates.physics_dt();
  for (const auto& nav : log.nav) {
    // Control input: position error toward the mission setpoint (what the
    // position loop acts on).
    Vec3 sp;
    if (!log.setpoint.empty()) {
      const auto idx = std::min(
          static_cast<std::size_t>(std::max(nav.t, 0.0) / dt_phys),
          log.setpoint.size() - 1);
      sp = log.setpoint[idx];
    }
    const Vec3 err = sp - nav.pos;
    switch (output) {
      case LtiOutput::kYaw:
        y.push_back(nav.euler.z);
        u.push_back(0.0);  // yaw setpoint held at zero
        break;
      case LtiOutput::kVx:
        y.push_back(nav.vel.x);
        u.push_back(err.x);
        break;
      case LtiOutput::kVy:
        y.push_back(nav.vel.y);
        u.push_back(err.y);
        break;
    }
  }
}

void LtiInvariantDetector::fit(std::span<const core::Flight> benign) {
  const auto na = static_cast<std::size_t>(config_.na);
  const auto nb = static_cast<std::size_t>(config_.nb);
  const std::size_t p = na + nb;

  // Accumulate normal equations X^T X and X^T t across all flights.
  est::Matrix xtx(p, p);
  est::Matrix xtt(p, 1);
  std::vector<double> y, u;
  for (const auto& flight : benign) {
    series(flight, output_, y, u);
    const std::size_t lag = std::max(na, nb);
    for (std::size_t k = lag; k + 1 < y.size(); ++k) {
      std::vector<double> row(p);
      for (std::size_t i = 0; i < na; ++i) row[i] = y[k - i];
      for (std::size_t j = 0; j < nb; ++j) row[na + j] = u[k - j];
      for (std::size_t i = 0; i < p; ++i) {
        xtt(i, 0) += row[i] * y[k + 1];
        for (std::size_t j = 0; j < p; ++j) xtx(i, j) += row[i] * row[j];
      }
    }
  }
  // Ridge regularization keeps the solve well-posed when an input is
  // identically zero (yaw's u).
  for (std::size_t i = 0; i < p; ++i) xtx(i, i) += 1e-6;
  const est::Matrix theta = xtx.inverse() * xtt;
  coeffs_.resize(p);
  for (std::size_t i = 0; i < p; ++i) coeffs_[i] = theta(i, 0);
  fitted_ = true;
}

double LtiInvariantDetector::calibrate(std::span<const Result> benign_results) {
  std::vector<double> peaks;
  for (const auto& r : benign_results) peaks.push_back(r.peak_running_mean);
  threshold_ = detect::calibrate_threshold(peaks, config_.threshold);
  return threshold_;
}

LtiInvariantDetector::Result LtiInvariantDetector::analyze(
    const core::Flight& flight) const {
  Result result;
  if (!fitted_) return result;
  std::vector<double> y, u;
  series(flight, output_, y, u);

  const auto na = static_cast<std::size_t>(config_.na);
  const auto nb = static_cast<std::size_t>(config_.nb);
  const std::size_t lag = std::max(na, nb);
  detect::RunningMeanMonitor monitor;
  for (std::size_t k = lag; k + 1 < y.size(); ++k) {
    const double t = flight.log.nav[k + 1].t;
    double pred = 0.0;
    for (std::size_t i = 0; i < na; ++i) pred += coeffs_[i] * y[k - i];
    for (std::size_t j = 0; j < nb; ++j) pred += coeffs_[na + j] * u[k - j];
    if (t < config_.warmup) continue;
    const double mean_err = monitor.add(std::abs(pred - y[k + 1]));
    result.peak_running_mean = std::max(result.peak_running_mean, mean_err);
    if (threshold_ >= 0.0 && mean_err > threshold_ && !result.attacked) {
      result.attacked = true;
      result.detect_time = t;
    }
  }
  return result;
}

}  // namespace sb::baselines
