#include "sim/quadrotor.hpp"

#include <algorithm>
#include <cmath>

namespace sb::sim {

double QuadrotorParams::hover_omega() const {
  return std::sqrt(mass * kGravity / (static_cast<double>(num_rotors) * kf));
}

Vec3 QuadrotorParams::rotor_position(int i) const {
  const auto idx = static_cast<std::size_t>(i);
  if (custom_layout) return rotor_pos[idx];
  // Legacy X-quad: 0 front-left, 1 front-right, 2 back-right, 3 back-left.
  const double sx = (i == 0 || i == 1) ? 1.0 : -1.0;
  const double sy = (i == 1 || i == 2) ? 1.0 : -1.0;
  return Vec3{sx * arm_lx, sy * arm_ly, 0.0};
}

double QuadrotorParams::spin(int i) const {
  if (custom_layout) return rotor_spin[static_cast<std::size_t>(i)];
  return (i % 2 == 0) ? 1.0 : -1.0;
}

Quadrotor::Quadrotor(const QuadrotorParams& params) : params_(params) {
  for (int i = 0; i < params_.num_rotors; ++i)
    state_.omega[static_cast<std::size_t>(i)] = params_.hover_omega();
}

Quadrotor::Derivative Quadrotor::derivative(const QuadState& s, const RotorCommand& cmd,
                                            const Vec3& wind) const {
  Derivative d;
  const auto& p = params_;

  // Rotor first-order lag toward the commanded speed.
  for (int i = 0; i < p.num_rotors; ++i) {
    const double target = std::clamp(cmd[static_cast<std::size_t>(i)],
                                     p.omega_min, p.omega_max);
    d.domega[static_cast<std::size_t>(i)] =
        (target - s.omega[static_cast<std::size_t>(i)]) / p.motor_tau;
  }

  // Forces.  Thrust acts along -z body; gravity along +z world; linear drag
  // against air-relative velocity.
  double total_thrust = 0.0;
  for (int i = 0; i < p.num_rotors; ++i) {
    const double w = s.omega[static_cast<std::size_t>(i)];
    total_thrust += p.kf * w * w;
  }
  const Mat3 r = rotation_from_euler(s.euler.x, s.euler.y, s.euler.z);
  const Vec3 thrust_ned = r * Vec3{0.0, 0.0, -total_thrust};
  const Vec3 air_vel = s.vel - wind;
  const Vec3 drag = air_vel * (-p.drag_lin);
  const Vec3 accel = Vec3{0.0, 0.0, kGravity} + (thrust_ned + drag) / p.mass;

  d.dpos = s.vel;
  d.dvel = accel;

  // Torques from rotor thrust moments and yaw drag.
  Vec3 torque;
  for (int i = 0; i < p.num_rotors; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const Vec3 pos = p.rotor_position(i);
    const double t = p.kf * s.omega[idx] * s.omega[idx];
    torque.x += -pos.y * t;
    torque.y += pos.x * t;
    torque.z += -p.spin(i) * p.km_over_kf * t;
  }

  // Euler-angle kinematics (ZYX).
  const double cphi = std::cos(s.euler.x), sphi = std::sin(s.euler.x);
  const double ctheta = std::cos(s.euler.y);
  const double ttheta = std::tan(s.euler.y);
  const double pq = s.rates.x, q = s.rates.y, rr = s.rates.z;
  d.deuler.x = pq + q * sphi * ttheta + rr * cphi * ttheta;
  d.deuler.y = q * cphi - rr * sphi;
  d.deuler.z = (q * sphi + rr * cphi) / std::max(ctheta, 0.05);

  // Rigid-body rotational dynamics with diagonal inertia.
  const Vec3 i_omega{p.inertia.x * pq, p.inertia.y * q, p.inertia.z * rr};
  const Vec3 gyro = s.rates.cross(i_omega);
  d.drates = {(torque.x - gyro.x) / p.inertia.x, (torque.y - gyro.y) / p.inertia.y,
              (torque.z - gyro.z) / p.inertia.z};
  return d;
}

void Quadrotor::step(const RotorCommand& cmd, const Vec3& wind, double dt) {
  const int n = params_.num_rotors;
  auto add = [n](const QuadState& s, const Derivative& d, double h) {
    QuadState out = s;
    out.pos += d.dpos * h;
    out.vel += d.dvel * h;
    out.euler += d.deuler * h;
    out.rates += d.drates * h;
    for (int i = 0; i < n; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      out.omega[idx] += d.domega[idx] * h;
    }
    return out;
  };

  const Derivative k1 = derivative(state_, cmd, wind);
  const Derivative k2 = derivative(add(state_, k1, dt / 2), cmd, wind);
  const Derivative k3 = derivative(add(state_, k2, dt / 2), cmd, wind);
  const Derivative k4 = derivative(add(state_, k3, dt), cmd, wind);

  QuadState next = state_;
  auto blend = [&](auto get) {
    return (get(k1) + get(k2) * 2.0 + get(k3) * 2.0 + get(k4)) * (dt / 6.0);
  };
  next.pos += blend([](const Derivative& d) { return d.dpos; });
  next.vel += blend([](const Derivative& d) { return d.dvel; });
  next.euler += blend([](const Derivative& d) { return d.deuler; });
  next.rates += blend([](const Derivative& d) { return d.drates; });
  for (int i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    next.omega[idx] += dt / 6.0 *
                       (k1.domega[idx] + 2 * k2.domega[idx] + 2 * k3.domega[idx] +
                        k4.domega[idx]);
    next.omega[idx] = std::clamp(next.omega[idx], params_.omega_min, params_.omega_max);
  }
  // Ground contact (NED z is down, ground at z = 0): a vehicle that reaches
  // the ground stops there instead of integrating into nonsense.
  if (next.pos.z > 0.0) {
    next.pos.z = 0.0;
    next.vel = {};
    next.rates = {};
  }
  next.accel = k1.dvel;  // acceleration at the step start; logged for sensors
  state_ = next;
}

Vec3 Quadrotor::specific_force_body() const {
  const Mat3 r = rotation_from_euler(state_.euler.x, state_.euler.y, state_.euler.z);
  const Vec3 f_ned = state_.accel - Vec3{0.0, 0.0, kGravity};
  return r.transposed() * f_ned;
}

RotorCommand mix_to_rotors(const QuadrotorParams& p, double thrust, const Vec3& torque) {
  const double kappa = p.km_over_kf;
  RotorCommand cmd{};
  if (!p.custom_layout && p.num_rotors == kNumRotors) {
    // Legacy X-quad closed form, kept verbatim so the default configuration
    // stays bitwise identical to the pre-scenario mixer.
    const double t4 = thrust / 4.0;
    const double rx = torque.x / (4.0 * p.arm_ly);
    const double ry = torque.y / (4.0 * p.arm_lx);
    const double rz = torque.z / (4.0 * kappa);
    const std::array<double, kNumRotors> per_rotor_thrust{
        t4 + rx + ry - rz,
        t4 - rx + ry + rz,
        t4 - rx - ry - rz,
        t4 + rx - ry + rz,
    };
    for (int i = 0; i < kNumRotors; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const double t = std::max(per_rotor_thrust[idx], 0.0);
      cmd[idx] = std::clamp(std::sqrt(t / p.kf), p.omega_min, p.omega_max);
    }
    return cmd;
  }

  // Minimum-norm allocation for balanced layouts (see QuadrotorParams):
  //   f_i = T/n - y_i * tau_x / sum(y^2) + x_i * tau_y / sum(x^2)
  //         - s_i * tau_z / (n * kappa)
  // Balance makes the four terms decouple exactly: summing rotor moments
  // reproduces the requested thrust and torques.
  const int n = p.num_rotors;
  double sum_x2 = 0.0, sum_y2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const Vec3 r = p.rotor_position(i);
    sum_x2 += r.x * r.x;
    sum_y2 += r.y * r.y;
  }
  const double tn = thrust / static_cast<double>(n);
  const double ax = torque.x / sum_y2;
  const double ay = torque.y / sum_x2;
  const double az = torque.z / (static_cast<double>(n) * kappa);
  for (int i = 0; i < n; ++i) {
    const Vec3 r = p.rotor_position(i);
    const double f = tn - r.y * ax + r.x * ay - p.spin(i) * az;
    cmd[static_cast<std::size_t>(i)] =
        std::clamp(std::sqrt(std::max(f, 0.0) / p.kf), p.omega_min, p.omega_max);
  }
  return cmd;
}

}  // namespace sb::sim
