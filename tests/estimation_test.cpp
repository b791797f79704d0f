#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "estimation/matrix.hpp"
#include "estimation/velocity_kf.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"

namespace sb::est {
namespace {

TEST(Matrix, ConstructionAndAccess) {
  Matrix m{{1, 2}, {3, 4}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1, 2}, {3}}), std::invalid_argument);
}

TEST(Matrix, Multiplication) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_THROW(a * b, std::invalid_argument);
  EXPECT_NO_THROW(a + b);
  EXPECT_THROW(a + Matrix(3, 2), std::invalid_argument);
}

TEST(Matrix, TransposeAndIdentity) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  const Matrix at = a.transposed();
  EXPECT_EQ(at.rows(), 3u);
  EXPECT_DOUBLE_EQ(at(2, 1), 6.0);
  const Matrix prod = at * Matrix::identity(2);
  EXPECT_DOUBLE_EQ(prod(1, 0), at(1, 0));
}

TEST(Matrix, InverseRoundTrip) {
  Rng rng{1};
  Matrix a(4, 4);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) a(i, j) = rng.normal();
  for (std::size_t i = 0; i < 4; ++i) a(i, i) += 3.0;  // well-conditioned
  const Matrix inv = a.inverse();
  const Matrix prod = a * inv;
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-9);
}

TEST(Matrix, SingularInverseThrows) {
  Matrix a(2, 2);  // zero matrix
  EXPECT_THROW(a.inverse(), std::runtime_error);
}

TEST(Matrix, DiagonalAndColumn) {
  const Matrix d = Matrix::diagonal({1, 2, 3});
  EXPECT_DOUBLE_EQ(d(2, 2), 3.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
  const Matrix c = Matrix::column({4, 5});
  EXPECT_EQ(c.rows(), 2u);
  EXPECT_EQ(c.cols(), 1u);
}

// The GPS monitor's drive of one window: predict with `accel` under process
// noise q, then update with the audio velocity `meas`.
Vec3 step(VelocityKf& kf, const Vec3& accel, const Vec3& meas, double dt,
          double q, const VelocityKfConfig& cfg = {}) {
  kf.predict(accel, dt, q);
  kf.update(meas, cfg.r_audio_vel);
  return kf.velocity();
}

// The Failsafe baseline's drive (FailsafeImuDetector): the acceleration
// predicts, and its own dead-reckoned integral is the measurement, whose
// variance grows by r_drift per second of integration.
class DeadReckon {
 public:
  DeadReckon(const VelocityKfConfig& cfg, const Vec3& v0)
      : cfg_(cfg), kf_(v0, cfg.p0), reckoned_(v0) {}

  Vec3 step(const Vec3& accel, double dt) {
    elapsed_ += dt;
    kf_.predict(accel, dt, cfg_.q_imu);
    reckoned_ += accel * dt;
    kf_.update(reckoned_, cfg_.r_base + cfg_.r_drift * elapsed_);
    return kf_.velocity();
  }

 private:
  VelocityKfConfig cfg_;
  VelocityKf kf_;
  Vec3 reckoned_;
  double elapsed_ = 0.0;
};

TEST(Kalman, ConvergesToConstantMeasurement) {
  VelocityKf kf{{}, 10.0};
  for (int i = 0; i < 100; ++i) {
    kf.coast(1.0, 0.01);
    kf.update({5.0, -5.0, 5.0}, 1.0);
  }
  EXPECT_NEAR(kf.velocity().x, 5.0, 0.05);
  EXPECT_NEAR(kf.velocity().y, -5.0, 0.05);
}

TEST(Kalman, CovarianceShrinksWithMeasurements) {
  VelocityKf kf{{}, 10.0};
  const double p0 = kf.variance();
  for (int i = 0; i < 20; ++i) {
    kf.coast(1.0, 0.001);
    kf.update({1.0, 1.0, 1.0}, 1.0);
  }
  EXPECT_LT(kf.variance(), p0 * 0.1);
}

TEST(Kalman, ControlInputIntegrates) {
  VelocityKf kf{{}, 1.0};
  for (int i = 0; i < 10; ++i) kf.predict({2.0, 0.0, -1.0}, 0.1, 0.1);
  EXPECT_NEAR(kf.velocity().x, 2.0, 1e-9);  // 10 * 0.1 * 2
  EXPECT_NEAR(kf.velocity().z, -1.0, 1e-9);
  EXPECT_NEAR(kf.variance(), 1.1, 1e-9);    // 1 + 10 * 0.1 * 0.1
}

TEST(Kalman, GainBalancesNoiseRatio) {
  // With huge measurement noise the update barely moves the state.
  VelocityKf kf{{}, 1.0};
  kf.update({100.0, 100.0, 100.0}, 1e6);
  EXPECT_LT(std::abs(kf.velocity().x), 0.2);
  // With tiny measurement noise the state jumps to the measurement.
  VelocityKf kf2{{}, 1.0};
  kf2.update({100.0, 100.0, 100.0}, 1e-6);
  EXPECT_NEAR(kf2.velocity().x, 100.0, 0.1);
}

TEST(VelocityKf, AudioOnlyTracksConstantAcceleration) {
  const VelocityKfConfig cfg;
  VelocityKf kf{{}, cfg.p0};
  const Vec3 accel{1.0, 0.0, 0.0};
  Vec3 audio_vel;
  Vec3 v;
  for (int i = 0; i < 100; ++i) {
    audio_vel += accel * 0.1;
    v = step(kf, accel, audio_vel, 0.1, cfg.q_audio);
  }
  EXPECT_NEAR(v.x, 10.0, 0.5);
  EXPECT_NEAR(v.y, 0.0, 0.1);
}

TEST(VelocityKf, AudioMeasurementCorrectsBiasedPrediction) {
  // Biased acceleration in the predict step; unbiased audio velocity should
  // keep the estimate anchored.
  const VelocityKfConfig cfg;
  VelocityKf kf{{}, cfg.p0};
  Vec3 v;
  for (int i = 0; i < 400; ++i)
    v = step(kf, Vec3{0.2, 0, 0} /* biased imu accel */, Vec3{} /* true vel */,
             0.1, cfg.q_imu);
  EXPECT_LT(std::abs(v.x), 0.5);  // without correction this would be 8 m/s
}

TEST(VelocityKf, FusedFollowsImuDynamicsBetweenMeasurements) {
  const VelocityKfConfig cfg;
  VelocityKf kf{{}, cfg.p0};
  // Strong maneuvers visible in the IMU; audio velocity lags at zero.
  const Vec3 v = step(kf, Vec3{5.0, 0, 0}, Vec3{}, 0.25, cfg.q_imu);
  EXPECT_GT(v.x, 0.4);  // prediction moved the state before the update
}

TEST(VelocityKf, DeadReckonDriftsWithBiasedAccel) {
  DeadReckon kf{{}, {}};
  Vec3 v;
  for (int i = 0; i < 400; ++i) v = kf.step(Vec3{0.2, 0, 0}, 0.1);
  // Both predict and measurement integrate the same biased stream: the
  // filter cannot reject the drift (the Failsafe baseline's weakness).
  EXPECT_GT(v.x, 4.0);
}

// Bits of `x` folded into a running CRC-32.
std::uint32_t fold(std::uint32_t crc, double x) {
  return util::crc32(&x, sizeof x, crc);
}

std::uint32_t fold(std::uint32_t crc, const Vec3& v) {
  return fold(fold(fold(crc, v.x), v.y), v.z);
}

// One fixed input for the bit pins below: random strides, accelerations and
// measurements drawn with arithmetic only (no libm, so the bits are the same
// on every host), and a coast on roughly one step in six.
struct KfStep {
  double dt;
  Vec3 accel;
  Vec3 meas;
  bool coast;
};

std::vector<KfStep> kf_pin_input() {
  Rng rng{2024};
  const auto vec = [&](double span) {
    const double x = rng.uniform(-span, span);
    const double y = rng.uniform(-span, span);
    return Vec3{x, y, rng.uniform(-span, span)};
  };
  std::vector<KfStep> steps(600);
  for (auto& s : steps) {
    s.dt = rng.uniform(0.05, 0.5);
    s.accel = vec(3.0);
    s.meas = vec(8.0);
    s.coast = rng.uniform() < 1.0 / 6.0;
  }
  return steps;
}

// Pins the filter's output bits over kf_pin_input(): velocity and variance
// after every step of the audio-only and the fused drive, and the velocity
// of the dead-reckoning drive.  Every verdict and checkpoint depends on
// these bits.  The CRCs were taken from the dense 3x3 filter this one
// replaced, so they also pin the two as bitwise equal.
TEST(VelocityKf, OutputBitsArePinned) {
  const VelocityKfConfig cfg;
  const Vec3 v0{1.25, -0.5, 0.125};
  const auto steps = kf_pin_input();
  VelocityKf audio{v0, cfg.p0};
  VelocityKf fused{v0, cfg.p0};
  DeadReckon reckon{cfg, v0};
  std::uint32_t crc_audio = 0, crc_fused = 0, crc_reckon = 0;
  const auto drive = [&](VelocityKf& kf, const KfStep& s, double q,
                         std::uint32_t crc) {
    if (s.coast)
      kf.coast(s.dt, q);
    else
      step(kf, s.accel, s.meas, s.dt, q, cfg);
    return fold(fold(crc, kf.velocity()), kf.variance());
  };
  for (const auto& s : steps) {
    crc_audio = drive(audio, s, cfg.q_audio, crc_audio);
    crc_fused = drive(fused, s, cfg.q_imu, crc_fused);
    crc_reckon = fold(crc_reckon, reckon.step(s.accel, s.dt));
  }
  EXPECT_EQ(crc_audio, 0x506da468u);
  EXPECT_EQ(crc_fused, 0xe61aa283u);
  EXPECT_EQ(crc_reckon, 0xce362433u);
}

class KfNoiseSweep : public ::testing::TestWithParam<double> {};

// Property: for any measurement noise the fused estimate stays between the
// prediction-only and measurement-only extremes.
TEST_P(KfNoiseSweep, EstimateIsBlendOfSources) {
  VelocityKfConfig cfg;
  cfg.r_audio_vel = GetParam();
  VelocityKf kf{{}, cfg.p0};
  const Vec3 v = step(kf, Vec3{4.0, 0, 0} /* accel: predicts 1.0 */,
                      Vec3{3.0, 0, 0} /* measurement */, 0.25, cfg.q_imu, cfg);
  EXPECT_GE(v.x, 1.0 - 1e-9);
  EXPECT_LE(v.x, 3.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, KfNoiseSweep,
                         ::testing::Values(0.01, 0.1, 0.5, 1.0, 5.0, 50.0));

}  // namespace
}  // namespace sb::est
