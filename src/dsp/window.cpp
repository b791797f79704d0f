#include "dsp/window.hpp"

#include <cmath>
#include <mutex>
#include <numbers>
#include <unordered_map>

#include "obs/metrics.hpp"

namespace sb::dsp {

std::vector<double> hann_window(std::size_t length) {
  std::vector<double> w(length, 1.0);
  if (length <= 1) return w;
  const double n1 = static_cast<double>(length - 1);
  constexpr double kTwoPi = 2.0 * std::numbers::pi;
  for (std::size_t i = 0; i < length; ++i) {
    const double t = static_cast<double>(i) / n1;
    w[i] = 0.5 - 0.5 * std::cos(kTwoPi * t);
  }
  return w;
}

std::shared_ptr<const std::vector<double>> cached_hann_window(std::size_t length) {
  static std::mutex mutex;
  static std::unordered_map<std::size_t,
                            std::shared_ptr<const std::vector<double>>>
      cache;
  static obs::Counter& hits = obs::Registry::instance().counter("dsp.window_hits");
  static obs::Counter& misses =
      obs::Registry::instance().counter("dsp.window_misses");
  std::lock_guard<std::mutex> lock{mutex};
  auto& slot = cache[length];
  if (!slot) {
    slot = std::make_shared<const std::vector<double>>(hann_window(length));
    misses.add();
  } else {
    hits.add();
  }
  return slot;
}

double window_sum(std::span<const double> window) {
  double s = 0.0;
  for (double w : window) s += w;
  return s;
}

}  // namespace sb::dsp
