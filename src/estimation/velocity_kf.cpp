#include "estimation/velocity_kf.hpp"

namespace sb::est {

void VelocityKf::predict(const Vec3& accel, double dt, double q) {
  v_ += accel * dt;
  p_ += q * dt;
}

void VelocityKf::coast(double dt, double q) { p_ += q * dt; }

void VelocityKf::update(const Vec3& z, double r) {
  const double k = p_ * (1.0 / (p_ + r));
  v_ += (z - v_) * k;
  p_ = (1.0 - k) * p_;
}

}  // namespace sb::est
