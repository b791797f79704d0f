// Flight recording structures shared by the simulator, the sensors and the
// SoundBoost pipeline, plus the sample-rate contract of the whole system.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "sim/quadrotor.hpp"
#include "util/vec3.hpp"

namespace sb::sim {

// Sample-rate contract.  Physics and control run at 400 Hz; the IMU samples
// at 200 Hz; GPS at 5 Hz.  Microphones sample at sensors::kMicSampleRate.
struct SimRates {
  double physics_hz = 400.0;
  double imu_hz = 200.0;
  double gps_hz = 5.0;

  double physics_dt() const { return 1.0 / physics_hz; }
  std::size_t imu_decimation() const {
    return static_cast<std::size_t>(physics_hz / imu_hz);
  }
  std::size_t gps_decimation() const {
    return static_cast<std::size_t>(physics_hz / gps_hz);
  }
};

struct ImuSample {
  double t = 0.0;
  Vec3 gyro;            // body rates, rad/s (possibly attacked)
  Vec3 specific_force;  // body frame, m/s^2 (possibly attacked)
  Vec3 accel_ned;       // NED linear acceleration derived from the reading
};

struct GpsSample {
  double t = 0.0;
  Vec3 pos;  // NED, m (possibly attacked)
  Vec3 vel;  // NED, m/s (possibly attacked)
};

// Navigation-estimator output as used by the flight controller; recorded at
// GPS fix times.  Baseline detectors (control invariants, DNN) consume this
// telemetry, exactly like their real counterparts consume autopilot logs.
struct NavSample {
  double t = 0.0;
  Vec3 pos;
  Vec3 vel;
  Vec3 euler;
};

// Full record of one simulated flight.
struct FlightLog {
  std::string mission_name;
  SimRates rates;

  // Ground truth at the physics rate.
  std::vector<double> t;
  std::vector<Vec3> true_pos;
  std::vector<Vec3> true_vel;
  std::vector<Vec3> true_accel;
  std::vector<Vec3> true_euler;
  std::vector<std::array<double, kMaxRotors>> rotor_omega;
  std::vector<Vec3> setpoint;  // mission position setpoint at the physics rate

  // Rotor count of the flown airframe (entries >= num_rotors in rotor_omega
  // are zero).
  int num_rotors = kNumRotors;

  // Sensor streams as seen by the autopilot and by SoundBoost.
  std::vector<ImuSample> imu;
  std::vector<GpsSample> gps;
  std::vector<NavSample> nav;  // estimator output at GPS fix times

  // Attack ground truth for scoring detectors.
  bool imu_attacked = false;
  bool gps_attacked = false;
  double attack_start = -1.0;  // s, -1 when no attack
  double attack_end = -1.0;

  double duration() const { return t.empty() ? 0.0 : t.back(); }

  // Mean ground-truth NED acceleration over [t0, t1) — the regression label
  // for an acoustic window.
  Vec3 mean_true_accel(double t0, double t1) const;

  // Mean (possibly attacked) IMU NED acceleration over [t0, t1).
  Vec3 mean_imu_accel(double t0, double t1) const;

  // Number of IMU samples inside [t0, t1) — lets consumers distinguish an
  // empty window (sensor dropout) from a genuinely zero mean.
  std::size_t imu_samples_in(double t0, double t1) const;

  // Mean navigation-estimate velocity over [t0, t1) (falls back to the
  // nearest sample when no fix lands inside the window).  On benign
  // training flights this is the trustworthy velocity label.
  Vec3 mean_nav_vel(double t0, double t1) const;

  // Mean rotor speeds over [t0, t1); entries >= num_rotors stay zero.
  std::array<double, kMaxRotors> mean_omega(double t0, double t1) const;
};

// Span forms of the IMU window statistics, shared by the FlightLog methods
// above and by streaming consumers that hold their own sample buffers: both
// paths sum in ascending index order, so results are bitwise identical for
// identical sample prefixes.
Vec3 mean_imu_accel(std::span<const ImuSample> imu, double t0, double t1);
std::size_t imu_samples_in(std::span<const ImuSample> imu, double t0, double t1);

}  // namespace sb::sim
