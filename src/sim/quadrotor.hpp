// Six-degree-of-freedom rigid-body multirotor model in the NED world frame
// (x north, y east, z down).  The default configuration is the legacy X-quad;
// `QuadrotorParams::num_rotors` plus an explicit rotor layout generalize the
// same dynamics to hexa/octo X-configs (scenario airframe catalog).
//
// Legacy X-quad rotor layout (viewed from above, x forward, y right):
//   0: front-left  (+lx, -ly)  spins CW
//   1: front-right (+lx, +ly)  spins CCW
//   2: back-right  (-lx, +ly)  spins CW
//   3: back-left   (-lx, -ly)  spins CCW
#pragma once

#include <array>

#include "util/vec3.hpp"

namespace sb::sim {

// Compile-time capacity of every per-rotor array; the runtime count is
// QuadrotorParams::num_rotors.  Entries at index >= num_rotors are unused and
// stay zero.
inline constexpr int kMaxRotors = 8;
// Legacy default rotor count (the X-quad every pre-scenario experiment flies).
inline constexpr int kNumRotors = 4;
inline constexpr double kGravity = 9.81;

struct QuadrotorParams {
  double mass = 2.0;                 // kg (Holybro X500-class)
  Vec3 inertia{0.02, 0.02, 0.04};   // kg m^2, diagonal
  double arm_lx = 0.18;              // m, rotor x offset (legacy X-quad layout)
  double arm_ly = 0.18;              // m, rotor y offset (legacy X-quad layout)
  double kf = 8.0e-6;                // thrust coefficient, N per (rad/s)^2
  double km_over_kf = 0.016;         // yaw drag torque per unit thrust, m
  double motor_tau = 0.05;           // s, first-order rotor-speed lag
  double omega_min = 150.0;          // rad/s
  double omega_max = 1200.0;         // rad/s
  double drag_lin = 0.35;            // N per (m/s), linear body drag

  int num_rotors = kNumRotors;

  // When false (default), the rotor layout is the legacy X-quad derived from
  // arm_lx/arm_ly with the alternating CW/CCW spin pattern above — bitwise
  // identical to the pre-scenario model.  Scenario airframes (hexa/octo, or
  // non-standard quads) set custom_layout and fill rotor_pos/rotor_spin for
  // the first num_rotors entries.  The generalized mixer assumes a BALANCED
  // layout: sum(x) = sum(y) = sum(x*y) = 0, spins are +/-1 with
  // sum(spin) = sum(spin*x) = sum(spin*y) = 0 (any regular X-config with
  // alternating spin qualifies).
  bool custom_layout = false;
  std::array<Vec3, kMaxRotors> rotor_pos{};     // body frame, m
  std::array<double, kMaxRotors> rotor_spin{};  // +1 = CW viewed from above

  // Hover rotor speed: num_rotors * kf * w^2 = m g.
  double hover_omega() const;
  // Body-frame position of rotor i (legacy X-quad formula unless
  // custom_layout).
  Vec3 rotor_position(int i) const;
  // Spin direction of rotor i: +1 = CW viewed from above.
  double spin(int i) const;
};

struct QuadState {
  Vec3 pos;                                   // NED position, m
  Vec3 vel;                                   // NED velocity, m/s
  Vec3 euler;                                 // roll, pitch, yaw (rad)
  Vec3 rates;                                 // body angular rates p,q,r (rad/s)
  std::array<double, kMaxRotors> omega{};     // rotor speeds, rad/s

  // Derived at the last dynamics evaluation.
  Vec3 accel;                                 // NED linear acceleration, m/s^2
};

// Per-rotor commanded speeds, rad/s (entries >= num_rotors ignored).
using RotorCommand = std::array<double, kMaxRotors>;

class Quadrotor {
 public:
  explicit Quadrotor(const QuadrotorParams& params);

  const QuadrotorParams& params() const { return params_; }
  const QuadState& state() const { return state_; }
  QuadState& mutable_state() { return state_; }

  // Advances the physics by dt (RK4) with the given rotor-speed commands and
  // ambient wind velocity (NED, m/s).  Updates state().accel as a byproduct.
  void step(const RotorCommand& cmd, const Vec3& wind, double dt);

  // Specific force the IMU senses in the body frame:
  // f_b = R^T (a_ned - g), where a_ned is the linear acceleration.
  Vec3 specific_force_body() const;

 private:
  struct Derivative {
    Vec3 dpos, dvel, deuler, drates;
    std::array<double, kMaxRotors> domega{};
  };
  Derivative derivative(const QuadState& s, const RotorCommand& cmd,
                        const Vec3& wind) const;

  QuadrotorParams params_;
  QuadState state_;
};

// Inverse mixer: distributes a desired collective thrust (N) and body torques
// (N m) to per-rotor thrusts, then converts to rotor-speed commands.  The
// legacy X-quad keeps its original closed form bitwise; custom layouts use the
// minimum-norm allocation for balanced configurations (see QuadrotorParams).
RotorCommand mix_to_rotors(const QuadrotorParams& p, double thrust, const Vec3& torque);

}  // namespace sb::sim
