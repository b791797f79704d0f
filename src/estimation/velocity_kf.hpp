// SoundBoost's velocity-estimation Kalman filter (paper §III-C2).
//
// The filter estimates the UAV's NED velocity WITHOUT using GPS — GPS is the
// sensor under validation.  An acceleration drives the prediction step and a
// velocity is the update measurement; the Kalman gain weights the two by
// their variances and adapts as they change (Fig. 4).  Three drives share
// it:
//   - audio only (compromised IMU): audio acceleration predicts, the
//     audio-derived velocity is the measurement;
//   - audio + IMU (benign IMU, the customized design of Fig. 4): the IMU
//     acceleration predicts, the audio velocity is the measurement;
//   - the Failsafe baseline: the IMU acceleration predicts, and its own
//     dead-reckoned integral is the measurement, with a variance that grows
//     with elapsed time.
//
// One variance for all three axes: the state transition, control and
// measurement matrices are all I, and the initial, process and measurement
// covariances are all multiples of I, so the covariance stays p·I and the
// axes never couple.  The per-axis arithmetic is exactly what a dense 3x3
// filter computes for that covariance — the gain is written p·(1/(p+r)), the
// form a Gauss–Jordan inverse produces — so the two agree bit for bit
// (estimation_test pins the bits).
#pragma once

#include "util/vec3.hpp"

namespace sb::est {

struct VelocityKfConfig {
  double p0 = 1.0;            // initial velocity variance
  double q_audio = 0.35;      // process noise density with audio prediction
  double q_imu = 0.15;        // process noise density with IMU prediction
  double r_audio_vel = 0.60;  // audio-velocity measurement variance
  double r_base = 0.30;       // dead-reckoned measurement variance, base
  double r_drift = 0.004;     // variance growth per second of dead-reckoning
};

class VelocityKf {
 public:
  VelocityKf() = default;
  VelocityKf(const Vec3& v0, double p0) : v_(v0), p_(p0) {}

  // Prediction over dt with acceleration `accel` and process noise density
  // q: v += dt·a, then p += q·dt.
  void predict(const Vec3& accel, double dt, double q);

  // Prediction without an acceleration (a window with no usable audio
  // prediction): the velocity is held while the variance grows, so the
  // filter re-weights measurements correctly once real inputs return.
  void coast(double dt, double q);

  // Measurement update with velocity z of variance r.
  void update(const Vec3& z, double r);

  const Vec3& velocity() const { return v_; }
  double variance() const { return p_; }

 private:
  Vec3 v_;
  double p_ = 0.0;
};

}  // namespace sb::est
