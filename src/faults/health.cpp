#include "faults/health.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"

namespace sb::faults {

ChannelStats analyze_channel(std::span<const double> samples) {
  ChannelStats s;
  if (samples.empty()) return s;
  double sum = 0.0, sum_sq = 0.0, peak = 0.0;
  for (double v : samples) {
    sum += v;
    sum_sq += v * v;
    peak = std::max(peak, std::abs(v));
  }
  const double n = static_cast<double>(samples.size());
  s.dc = sum / n;
  s.rms = std::sqrt(sum_sq / n);
  s.peak = peak;

  if (peak > 0.0) {
    const double level = 0.5 * peak;
    std::size_t clipped = 0, run = 1;
    for (std::size_t i = 1; i < samples.size(); ++i) {
      if (samples[i] == samples[i - 1] && std::abs(samples[i]) >= level) {
        ++run;
      } else {
        if (run >= 3) clipped += run;
        run = 1;
      }
    }
    if (run >= 3) clipped += run;
    s.clip_fraction = static_cast<double>(clipped) / n;
  }
  return s;
}

std::array<bool, sensors::kNumMics> healthy_channels(
    std::span<const ChannelStats> stats, const ChannelHealthConfig& config) {
  std::array<bool, sensors::kNumMics> out;
  out.fill(true);
  const std::size_t n = std::min<std::size_t>(stats.size(), sensors::kNumMics);
  if (n == 0) return out;

  std::array<double, sensors::kNumMics> rms{};
  for (std::size_t c = 0; c < n; ++c) rms[c] = stats[c].rms;
  std::sort(rms.begin(), rms.begin() + static_cast<std::ptrdiff_t>(n));
  const double median = rms[n / 2];

  for (std::size_t c = 0; c < n; ++c) {
    const ChannelStats& s = stats[c];
    bool ok = s.rms > config.dead_rms_abs &&
              s.rms >= config.dead_rms_rel * median &&
              s.clip_fraction <= config.max_clip_fraction;
    // DC health is judged against the AC content: a strong offset with weak
    // signal on top means a biased or railed front-end.
    const double ac = std::sqrt(std::max(s.rms * s.rms - s.dc * s.dc, 0.0));
    if (std::abs(s.dc) > config.max_dc_ratio * (ac + config.dead_rms_abs))
      ok = false;
    out[c] = ok;
  }
  return out;
}

std::size_t HealthReport::add_window_mask(
    const std::array<bool, sensors::kNumMics>& healthy) {
  std::size_t masked = 0;
  for (std::size_t c = 0; c < sensors::kNumMics; ++c)
    if (!healthy[c]) {
      ++mic_windows_masked[c];
      ++masked;
    }
  if (masked == 0) return 0;
  ++windows_degraded;
  static obs::Counter& counter =
      obs::Registry::instance().counter("faults.mic_windows_masked");
  counter.add(masked);
  return masked;
}

HealthReport& HealthReport::operator+=(const HealthReport& other) {
  for (std::size_t c = 0; c < sensors::kNumMics; ++c)
    mic_windows_masked[c] += other.mic_windows_masked[c];
  windows_total += other.windows_total;
  windows_degraded += other.windows_degraded;
  imu_samples_total += other.imu_samples_total;
  imu_samples_nonfinite += other.imu_samples_nonfinite;
  imu_windows_skipped += other.imu_windows_skipped;
  gps_fixes_total += other.gps_fixes_total;
  gps_fixes_nonfinite += other.gps_fixes_nonfinite;
  gps_coast_intervals += other.gps_coast_intervals;
  gps_coast_seconds += other.gps_coast_seconds;
  kf_fallback_steps += other.kf_fallback_steps;
  return *this;
}

}  // namespace sb::faults
