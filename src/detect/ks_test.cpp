#include "detect/ks_test.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/stats.hpp"

namespace sb::detect {

double kolmogorov_q(double lambda) {
  if (lambda <= 0.0) return 1.0;
  // Q(lambda) = 2 sum_{j>=1} (-1)^{j-1} exp(-2 j^2 lambda^2)
  double sum = 0.0;
  double sign = 1.0;
  for (int j = 1; j <= 100; ++j) {
    const double term = std::exp(-2.0 * j * j * lambda * lambda);
    sum += sign * term;
    if (term < 1e-12) break;
    sign = -sign;
  }
  return std::clamp(2.0 * sum, 0.0, 1.0);
}

KsResult ks_test_normal(std::span<const double> xs, double mean, double stddev) {
  KsResult out;
  if (xs.empty() || stddev <= 0.0) return out;
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  double d = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double cdf = sb::normal_cdf((v[i] - mean) / stddev);
    const double lo = static_cast<double>(i) / n;
    const double hi = static_cast<double>(i + 1) / n;
    d = std::max({d, std::abs(cdf - lo), std::abs(cdf - hi)});
  }
  out.statistic = d;
  const double sqrt_n = std::sqrt(n);
  out.p_value = kolmogorov_q((sqrt_n + 0.12 + 0.11 / sqrt_n) * d);
  return out;
}

KsResult ks_test_two_sample(std::span<const double> xs, std::span<const double> ys) {
  KsResult out;
  if (xs.empty() || ys.empty()) return out;
  std::vector<double> a(xs.begin(), xs.end());
  std::vector<double> b(ys.begin(), ys.end());
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  std::size_t i = 0, j = 0;
  double d = 0.0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] <= x) ++i;
    while (j < b.size() && b[j] <= x) ++j;
    d = std::max(d, std::abs(static_cast<double>(i) / na -
                             static_cast<double>(j) / nb));
  }
  out.statistic = d;
  const double ne = std::sqrt(na * nb / (na + nb));
  out.p_value = kolmogorov_q((ne + 0.12 + 0.11 / ne) * d);
  return out;
}

}  // namespace sb::detect
