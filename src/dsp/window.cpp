#include "dsp/window.hpp"

#include <cmath>
#include <mutex>
#include <numbers>
#include <unordered_map>

#include "obs/metrics.hpp"

namespace sb::dsp {

std::vector<double> make_window(WindowType type, std::size_t length) {
  std::vector<double> w(length, 1.0);
  if (length <= 1) return w;
  const double n1 = static_cast<double>(length - 1);
  constexpr double kTwoPi = 2.0 * std::numbers::pi;
  for (std::size_t i = 0; i < length; ++i) {
    const double t = static_cast<double>(i) / n1;
    switch (type) {
      case WindowType::kRect:
        w[i] = 1.0;
        break;
      case WindowType::kHann:
        w[i] = 0.5 - 0.5 * std::cos(kTwoPi * t);
        break;
      case WindowType::kHamming:
        w[i] = 0.54 - 0.46 * std::cos(kTwoPi * t);
        break;
      case WindowType::kBlackman:
        w[i] = 0.42 - 0.5 * std::cos(kTwoPi * t) + 0.08 * std::cos(2.0 * kTwoPi * t);
        break;
    }
  }
  return w;
}

std::shared_ptr<const std::vector<double>> cached_window(WindowType type,
                                                         std::size_t length) {
  static std::mutex mutex;
  static std::unordered_map<std::size_t,
                            std::shared_ptr<const std::vector<double>>>
      cache;
  static obs::Counter& hits = obs::Registry::instance().counter("dsp.window_hits");
  static obs::Counter& misses =
      obs::Registry::instance().counter("dsp.window_misses");
  // Four window types: the key packs the type into the low bits.
  const std::size_t key = (length << 2) | static_cast<std::size_t>(type);
  std::lock_guard<std::mutex> lock{mutex};
  auto& slot = cache[key];
  if (!slot) {
    slot = std::make_shared<const std::vector<double>>(make_window(type, length));
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
