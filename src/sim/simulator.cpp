#include "sim/simulator.hpp"

#include <algorithm>
#include <functional>
#include <utility>

namespace sb::sim {
namespace {

// Index range [lo, hi) of the records timed within [t0, t1).  Every log is
// time-ordered, so both bounds are binary searches.
template <typename Records, typename Time = std::identity>
std::pair<std::size_t, std::size_t> time_range(const Records& records, double t0,
                                               double t1, Time time = {}) {
  const auto first = std::ranges::begin(records);
  const auto lo = std::ranges::partition_point(
      records, [t0](double t) { return t < t0; }, time);
  const auto hi = std::ranges::partition_point(
      lo, std::ranges::end(records), [t1](double t) { return t < t1; }, time);
  return {static_cast<std::size_t>(lo - first),
          static_cast<std::size_t>(hi - first)};
}

}  // namespace

Vec3 FlightLog::mean_true_accel(double t0, double t1) const {
  const auto [lo, hi] = time_range(t, t0, t1);
  if (hi <= lo) return {};
  Vec3 s;
  for (std::size_t i = lo; i < hi; ++i) s += true_accel[i];
  return s / static_cast<double>(hi - lo);
}

Vec3 mean_imu_accel(std::span<const ImuSample> imu, double t0, double t1) {
  const auto [lo, hi] = time_range(imu, t0, t1, &ImuSample::t);
  if (hi <= lo) return {};
  Vec3 s;
  for (std::size_t i = lo; i < hi; ++i) s += imu[i].accel_ned;
  return s / static_cast<double>(hi - lo);
}

std::size_t imu_samples_in(std::span<const ImuSample> imu, double t0, double t1) {
  const auto [lo, hi] = time_range(imu, t0, t1, &ImuSample::t);
  return hi - lo;
}

Vec3 FlightLog::mean_imu_accel(double t0, double t1) const {
  return sim::mean_imu_accel(imu, t0, t1);
}

std::size_t FlightLog::imu_samples_in(double t0, double t1) const {
  return sim::imu_samples_in(imu, t0, t1);
}

Vec3 FlightLog::mean_nav_vel(double t0, double t1) const {
  const auto [lo, hi] = time_range(nav, t0, t1, &NavSample::t);
  if (hi > lo) {
    Vec3 s;
    for (std::size_t i = lo; i < hi; ++i) s += nav[i].vel;
    return s / static_cast<double>(hi - lo);
  }
  if (nav.empty()) return {};
  // Nearest sample: lo is the first index at/after t0 (or the end).
  const std::size_t idx = std::min(lo, nav.size() - 1);
  return nav[idx].vel;
}

std::array<double, kMaxRotors> FlightLog::mean_omega(double t0, double t1) const {
  std::array<double, kMaxRotors> out{};
  const auto [lo, hi] = time_range(t, t0, t1);
  if (hi <= lo) return out;
  for (std::size_t i = lo; i < hi; ++i)
    for (int r = 0; r < num_rotors; ++r)
      out[static_cast<std::size_t>(r)] += rotor_omega[i][static_cast<std::size_t>(r)];
  for (int r = 0; r < num_rotors; ++r)
    out[static_cast<std::size_t>(r)] /= static_cast<double>(hi - lo);
  return out;
}

}  // namespace sb::sim
