#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "detect/ks_test.hpp"
#include "detect/running_mean.hpp"
#include "detect/threshold.hpp"
#include "util/rng.hpp"

namespace sb::detect {
namespace {

std::vector<double> normal_sample(std::size_t n, double mean, double std,
                                  std::uint64_t seed) {
  Rng rng{seed};
  std::vector<double> out(n);
  for (auto& x : out) x = rng.normal(mean, std);
  return out;
}

TEST(KsTest, AcceptsMatchingNormal) {
  const auto xs = normal_sample(500, 0.0, 1.0, 1);
  const auto r = ks_test_normal(xs, 0.0, 1.0);
  EXPECT_GT(r.p_value, 0.05);
  EXPECT_LT(r.statistic, 0.08);
}

TEST(KsTest, RejectsShiftedDistribution) {
  const auto xs = normal_sample(500, 1.0, 1.0, 2);
  const auto r = ks_test_normal(xs, 0.0, 1.0);
  EXPECT_LT(r.p_value, 1e-6);
  EXPECT_GT(r.statistic, 0.3);
}

TEST(KsTest, RejectsWidenedDistribution) {
  // The DoS attack signature: same mean, inflated spread.
  const auto xs = normal_sample(500, 0.0, 3.0, 3);
  const auto r = ks_test_normal(xs, 0.0, 1.0);
  EXPECT_LT(r.p_value, 1e-6);
}

TEST(KsTest, EmptyAndDegenerateInputsAreSafe) {
  const std::vector<double> empty;
  EXPECT_DOUBLE_EQ(ks_test_normal(empty, 0, 1).statistic, 0.0);
  const std::vector<double> xs{1.0, 2.0};
  EXPECT_DOUBLE_EQ(ks_test_normal(xs, 0, 0).statistic, 0.0);
}

TEST(KsTest, TwoSampleSameDistribution) {
  const auto a = normal_sample(400, 0.0, 1.0, 4);
  const auto b = normal_sample(400, 0.0, 1.0, 5);
  EXPECT_GT(ks_test_two_sample(a, b).p_value, 0.01);
}

TEST(KsTest, TwoSampleDifferentDistributions) {
  const auto a = normal_sample(400, 0.0, 1.0, 6);
  const auto b = normal_sample(400, 2.0, 1.0, 7);
  EXPECT_LT(ks_test_two_sample(a, b).p_value, 1e-9);
}

TEST(KsTest, KolmogorovQBounds) {
  EXPECT_DOUBLE_EQ(kolmogorov_q(0.0), 1.0);
  EXPECT_NEAR(kolmogorov_q(1.36), 0.05, 0.01);
  EXPECT_LT(kolmogorov_q(3.0), 1e-6);
}

TEST(RunningMean, CumulativeMean) {
  RunningMeanMonitor m;
  m.add(1.0);
  m.add(2.0);
  EXPECT_DOUBLE_EQ(m.add(3.0), 2.0);
  EXPECT_EQ(m.count(), 3u);
}

TEST(RunningMean, WindowedForgetsOldValues) {
  RunningMeanMonitor m{2};
  m.add(10.0);
  m.add(2.0);
  EXPECT_DOUBLE_EQ(m.add(4.0), 3.0);  // 10 has left the window
}

TEST(RunningMean, PeakTracksMaximum) {
  RunningMeanMonitor m{2};
  m.add(10.0);
  m.add(0.0);
  m.add(0.0);
  EXPECT_DOUBLE_EQ(m.peak(), 10.0);
  EXPECT_DOUBLE_EQ(m.current(), 0.0);
}

TEST(RunningMean, ResetClears) {
  RunningMeanMonitor m{3};
  m.add(5.0);
  m.reset();
  EXPECT_EQ(m.count(), 0u);
  EXPECT_DOUBLE_EQ(m.current(), 0.0);
  EXPECT_DOUBLE_EQ(m.peak(), 0.0);
}

TEST(RunningVecMean, FluctuatingDirectionsCancel) {
  RunningVecMeanMonitor m{10};
  for (int i = 0; i < 20; ++i)
    m.add(Vec3{i % 2 == 0 ? 1.0 : -1.0, 0, 0});
  EXPECT_NEAR(m.current(), 0.0, 1e-12);
}

TEST(RunningVecMean, SustainedBiasSurvives) {
  RunningVecMeanMonitor m{10};
  Rng rng{8};
  double last = 0;
  for (int i = 0; i < 50; ++i)
    last = m.add(Vec3{0.8 + rng.normal(0, 0.3), rng.normal(0, 0.3), 0});
  EXPECT_NEAR(last, 0.8, 0.25);
}

TEST(RunningVecMean, WindowSlides) {
  RunningVecMeanMonitor m{2};
  m.add({4, 0, 0});
  m.add({2, 0, 0});
  EXPECT_DOUBLE_EQ(m.add({0, 0, 0}), 1.0);  // mean of (2,0,0),(0,0,0)
}

// Checkpoint bytes come from files: a ring cursor outside the ring must be
// refused, or the next add() would write past the buffer.
TEST(RunningVecMean, LoadStateRejectsRingCursorOutsideTheRing) {
  RunningVecMeanMonitor m{4};
  m.add({1.0, 0.0, 0.0});
  std::ostringstream os{std::ios::binary};
  m.save_state(os);
  const std::string bytes = os.str();
  const auto load = [](std::string b, std::uint64_t head) {
    std::memcpy(b.data() + sizeof(std::uint64_t), &head, sizeof head);
    std::istringstream is{b, std::ios::binary};
    RunningVecMeanMonitor restored{4};
    return restored.load_state(is);
  };
  EXPECT_TRUE(load(bytes, 1));
  EXPECT_FALSE(load(bytes, 4));
  EXPECT_FALSE(load(bytes, ~std::uint64_t{0}));
}

TEST(RunningMean, CompensatedMeanTracksExtendedPrecisionOverTenMillion) {
  // Regression for the compensated (Neumaier) accumulator.  The stream
  // interleaves large cancelling terms with mm-scale residuals whose bits
  // lie far below the large terms' ulp grid: a naive double running sum
  // loses those bits and drifts ~1e-11..1e-10 in the mean — past this
  // tolerance — while the compensated monitor stays within ~1e-20 of an
  // extended-precision reference.  (Data where all terms share one binade
  // grid keeps even naive summation exact and pins nothing; and a two-pass
  // residual reference re-subtracts the same mean from grid-aligned terms,
  // accumulating correlated rounding past 1e-12 itself — hence the
  // single-pass long double reference.)
  constexpr std::size_t kN = 10'000'000;
  constexpr std::uint64_t kSeed = 20240807;
  const auto sample = [](std::size_t i, Rng& rng) {
    switch (i % 4) {
      case 0: return 1e10 + rng.normal(0.0, 1.0);
      case 1: return rng.normal(0.0, 1e-3);
      case 2: return -1e10 + rng.normal(0.0, 1.0);
      default: return rng.normal(0.0, 1e-3);
    }
  };
  RunningMeanMonitor m;
  double mean = 0.0;
  {
    Rng rng{kSeed};
    for (std::size_t i = 0; i < kN; ++i) mean = m.add(sample(i, rng));
  }
  // Re-seeding replays the exact stream without holding 80 MB of samples.
  long double ref_sum = 0.0L;
  {
    Rng rng{kSeed};
    for (std::size_t i = 0; i < kN; ++i) ref_sum += sample(i, rng);
  }
  const double ref = static_cast<double>(ref_sum / static_cast<long double>(kN));
  EXPECT_EQ(m.count(), kN);
  EXPECT_NEAR(mean, ref, 1e-12);
}

TEST(RunningMean, WindowedCompensationDoesNotDriftOverLongStreams) {
  // Windowed mode adds AND subtracts every sample once; with a large common
  // offset, uncompensated subtraction residue accumulates linearly in stream
  // length.  After 10^6 slides the reported mean must match a fresh
  // extended-precision sum of the window's actual contents.
  constexpr std::size_t kWindow = 1000;
  constexpr std::size_t kN = 1'000'000;
  Rng rng{31};
  std::vector<double> xs(kN);
  for (auto& x : xs) x = 1e9 + rng.normal(0.0, 1.0);
  RunningMeanMonitor m{kWindow};
  double mean = 0.0;
  for (double x : xs) mean = m.add(x);
  long double sum = 0.0L;
  for (std::size_t i = kN - kWindow; i < kN; ++i) sum += xs[i];
  const double ref =
      static_cast<double>(sum / static_cast<long double>(kWindow));
  // Both sit near 1e9 (ulp ~1.2e-7); subtracting the offset exposes the
  // small-signal part the compensation protects.
  EXPECT_NEAR(mean - 1e9, ref - 1e9, 1e-6);
}

TEST(Threshold, CalibrateUsesMaxAfterOutlierRemoval) {
  std::vector<double> peaks(50, 1.0);
  peaks[10] = 1.2;
  peaks[20] = 100.0;  // outlier
  ThresholdConfig cfg;
  cfg.margin = 1.0;
  const double th = calibrate_threshold(peaks, cfg);
  EXPECT_NEAR(th, 1.2, 1e-9);
}

TEST(Threshold, MarginApplied) {
  const std::vector<double> peaks{1.0, 2.0};
  ThresholdConfig cfg;
  cfg.margin = 1.5;
  cfg.outlier_sigma = 10.0;
  EXPECT_NEAR(calibrate_threshold(peaks, cfg), 3.0, 1e-9);
}

TEST(Threshold, EmptyInputGivesZero) {
  EXPECT_DOUBLE_EQ(calibrate_threshold({}, {}), 0.0);
}

TEST(Threshold, FitNormal) {
  const auto xs = normal_sample(20000, 2.0, 0.5, 9);
  const auto fit = fit_normal(xs);
  EXPECT_NEAR(fit.mean, 2.0, 0.02);
  EXPECT_NEAR(fit.stddev, 0.5, 0.02);
}

TEST(Threshold, FitNormalDegenerateHasPositiveStd) {
  const std::vector<double> xs{3.0, 3.0, 3.0};
  EXPECT_GT(fit_normal(xs).stddev, 0.0);
}

class KsPowerSweep : public ::testing::TestWithParam<double> {};

// Property: detection power grows monotonically-ish with the shift; any
// shift >= 0.5 sigma on 300 samples must be detected at alpha = 1e-3.
TEST_P(KsPowerSweep, DetectsShiftsAboveHalfSigma) {
  const double shift = GetParam();
  const auto xs = normal_sample(300, shift, 1.0, 11);
  const auto r = ks_test_normal(xs, 0.0, 1.0);
  if (shift >= 0.5) EXPECT_LT(r.p_value, 1e-3) << "shift " << shift;
  if (shift == 0.0) EXPECT_GT(r.p_value, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Shifts, KsPowerSweep,
                         ::testing::Values(0.0, 0.5, 1.0, 2.0, 4.0));

}  // namespace
}  // namespace sb::detect
