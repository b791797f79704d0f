// Fig. 6 reproduction: the distribution of acceleration residuals (audio
// prediction minus IMU reading) for a benign flight vs. an IMU-attacked
// flight.  Benign residuals approximate a narrow normal; the attack
// distribution is visibly wider / shifted (paper reports attack std 2.81).
// Gated: the attack/benign residual std ratio must be at least 3.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "detect/ks_test.hpp"
#include "util/stats.hpp"

using namespace sb;

namespace {

// Pools per-sample z-axis residuals inside [t0, t1).
std::vector<double> z_residuals(const std::vector<core::WindowResiduals>& windows,
                                double t0, double t1) {
  std::vector<double> out;
  for (const auto& w : windows) {
    if (w.t0 < t0 || w.t1 > t1) continue;
    for (const auto& r : w.samples) out.push_back(r.z);
  }
  return out;
}

void print_histogram(const char* name, const std::vector<double>& xs) {
  std::printf("%s (n=%zu, mean %+.3f, std %.3f)\n", name, xs.size(), mean(xs),
              stddev(xs));
  const double lo = -4.0, hi = 4.0;
  const int bins = 17;
  std::vector<int> counts(bins, 0);
  for (double x : xs) {
    int b = static_cast<int>((x - lo) / (hi - lo) * bins);
    if (b >= 0 && b < bins) ++counts[static_cast<std::size_t>(b)];
  }
  int peak = 1;
  for (int c : counts) peak = std::max(peak, c);
  for (int b = 0; b < bins; ++b) {
    const double center = lo + (b + 0.5) * (hi - lo) / bins;
    const int stars = counts[static_cast<std::size_t>(b)] * 48 / peak;
    std::printf("  %+5.1f | %s\n", center, std::string(static_cast<std::size_t>(stars), '#').c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  sb::bench::bench_init(argc, argv);
  bench::BenchReport report{"fig6_imu_residuals"};
  std::printf("=== Fig. 6: residual distributions, benign vs IMU attack ===\n");
  auto mapper = bench::standard_mapper();

  // Benign hover flight.
  core::FlightScenario benign;
  benign.mission = sim::Mission::hover({0, 0, -10}, 40.0);
  benign.wind.gust_stddev = 0.4;
  benign.seed = 71;
  const auto bf = bench::lab().fly(benign);
  const auto b_windows = core::ImuRcaDetector::residuals(
      bf, mapper.predict_flight(bench::lab(), bf));
  const auto b_res = z_residuals(b_windows, 5.0, 38.0);

  // Accelerometer-DoS attacked hover flight (the z/downward axis, as in the
  // paper's Fig. 6).
  auto attack = bench::imu_attack_scenario(1, 40.0);
  const auto af = bench::lab().fly(attack);
  const auto a_windows = core::ImuRcaDetector::residuals(
      af, mapper.predict_flight(bench::lab(), af));
  const auto a_res = z_residuals(a_windows, af.log.attack_start, af.log.attack_end);

  print_histogram("benign residuals a_z' - a_z", b_res);
  print_histogram("attack-period residuals a_z' - a_z", a_res);

  const auto ks = detect::ks_test_two_sample(b_res, a_res);
  std::printf("two-sample KS: D = %.3f, p = %.2e\n", ks.statistic, ks.p_value);
  const double ratio = stddev(a_res) / std::max(stddev(b_res), 1e-9);
  std::printf("std inflation: %.2fx (paper: attack std 2.81 vs narrow benign)\n",
              ratio);
  report.metric("benign_std", stddev(b_res));
  report.metric("attack_std", stddev(a_res));
  report.metric("ks_statistic", ks.statistic);
  report.shape("attack/benign residual std ratio >= 3", ratio, ">=", 3.0);
  return report.shape_exit_code();
}
