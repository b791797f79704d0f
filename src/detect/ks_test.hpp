// Kolmogorov–Smirnov tests.  SoundBoost's IMU RCA stage (§III-C1) subjects
// per-window residuals to a one-sample KS test against the normal
// distribution fitted on benign flights.
#pragma once

#include <span>

namespace sb::detect {

struct KsResult {
  double statistic = 0.0;  // sup |F_n(x) - F(x)|
  double p_value = 1.0;    // asymptotic Kolmogorov p-value
};

// One-sample KS test of xs against Normal(mean, stddev).
KsResult ks_test_normal(std::span<const double> xs, double mean, double stddev);

// Two-sample KS test.
KsResult ks_test_two_sample(std::span<const double> xs, std::span<const double> ys);

// Asymptotic Kolmogorov survival function Q(lambda) = P(D > lambda-ish);
// exposed for testing.
double kolmogorov_q(double lambda);

}  // namespace sb::detect
