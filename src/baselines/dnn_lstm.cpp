#include "baselines/dnn_lstm.hpp"

#include <algorithm>
#include <cmath>

#include "ml/layers.hpp"
#include "util/stats.hpp"

namespace sb::baselines {

DnnLstmDetector::DnnLstmDetector(const DnnLstmConfig& config) : config_(config) {}

void DnnLstmDetector::feature_rows(const core::Flight& flight,
                                   std::vector<std::array<float, kFeatures>>& rows,
                                   std::vector<double>& times) {
  rows.clear();
  times.clear();
  const auto& log = flight.log;
  const double dt_phys = log.rates.physics_dt();
  for (const auto& nav : log.nav) {
    Vec3 sp;
    if (!log.setpoint.empty()) {
      const auto idx = std::min(
          static_cast<std::size_t>(std::max(nav.t, 0.0) / dt_phys),
          log.setpoint.size() - 1);
      sp = log.setpoint[idx];
    }
    const Vec3 err = sp - nav.pos;
    rows.push_back({static_cast<float>(nav.vel.x), static_cast<float>(nav.vel.y),
                    static_cast<float>(nav.vel.z), static_cast<float>(err.x),
                    static_cast<float>(err.y), static_cast<float>(err.z)});
    times.push_back(nav.t);
  }
}

ml::RegressionDataset DnnLstmDetector::build_dataset(
    std::span<const core::Flight> flights) const {
  const std::size_t t = config_.seq_len;
  std::vector<float> xs, ys;
  std::size_t count = 0;
  std::vector<std::array<float, kFeatures>> rows;
  std::vector<double> times;
  for (const auto& flight : flights) {
    feature_rows(flight, rows, times);
    if (rows.size() <= t) continue;
    for (std::size_t k = 0; k + t < rows.size(); ++k) {
      for (std::size_t s = 0; s < t; ++s)
        xs.insert(xs.end(), rows[k + s].begin(), rows[k + s].end());
      // Target: the next velocity sample (control-output estimation).
      ys.push_back(rows[k + t][0]);
      ys.push_back(rows[k + t][1]);
      ys.push_back(rows[k + t][2]);
      ++count;
    }
  }
  ml::RegressionDataset data;
  data.x = ml::Tensor({count, t, kFeatures});
  std::copy(xs.begin(), xs.end(), data.x.data());
  data.y = ml::Tensor({count, 3});
  std::copy(ys.begin(), ys.end(), data.y.data());
  return data;
}

void DnnLstmDetector::fit(std::span<const core::Flight> benign) {
  Rng rng{config_.seed};
  auto model = std::make_unique<ml::Sequential>();
  model->emplace<ml::Lstm>(kFeatures, config_.hidden, config_.seq_len, rng);
  model->emplace<ml::Dense>(config_.hidden, 3, rng);
  model_ = std::move(model);

  const auto data = build_dataset(benign);
  Rng split_rng{config_.seed ^ 0x5555};
  auto [train, val] = ml::split_dataset(data, 0.1, split_rng);
  ml::train_regressor(*model_, train, val, config_.train);
  fitted_ = true;
}

double DnnLstmDetector::calibrate(std::span<const Result> benign_results) {
  std::vector<double> peaks;
  for (const auto& r : benign_results) peaks.push_back(r.peak_running_mean);
  threshold_ = sb::percentile(peaks, config_.threshold_percentile);
  return threshold_;
}

DnnLstmDetector::Result DnnLstmDetector::analyze(const core::Flight& flight) const {
  Result result;
  if (!fitted_) return result;
  std::vector<std::array<float, kFeatures>> rows;
  std::vector<double> times;
  feature_rows(flight, rows, times);
  const std::size_t t = config_.seq_len;
  if (rows.size() <= t) return result;

  detect::RunningMeanMonitor monitor;
  for (std::size_t k = 0; k + t < rows.size(); ++k) {
    ml::Tensor x({1, t, kFeatures});
    for (std::size_t s = 0; s < t; ++s)
      for (std::size_t f = 0; f < kFeatures; ++f)
        x[s * kFeatures + f] = rows[k + s][f];
    const ml::Tensor pred = model_->infer(x);
    const double when = times[k + t];
    if (when < config_.warmup) continue;
    const Vec3 d{static_cast<double>(pred[0]) - rows[k + t][0],
                 static_cast<double>(pred[1]) - rows[k + t][1],
                 static_cast<double>(pred[2]) - rows[k + t][2]};
    const double mean_err = monitor.add(d.norm());
    result.peak_running_mean = std::max(result.peak_running_mean, mean_err);
    if (threshold_ >= 0.0 && mean_err > threshold_ && !result.attacked) {
      result.attacked = true;
      result.detect_time = when;
    }
  }
  return result;
}

}  // namespace sb::baselines
