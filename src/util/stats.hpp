// Descriptive statistics helpers shared by detectors, threshold calibration
// and the benchmark harnesses.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace sb {

double mean(std::span<const double> xs);
double variance(std::span<const double> xs);   // population variance
double stddev(std::span<const double> xs);     // population standard deviation
double sample_stddev(std::span<const double> xs);
double median(std::span<const double> xs);
double percentile(std::span<const double> xs, double p);  // p in [0, 100]
double max_of(std::span<const double> xs);

// Pearson correlation coefficient; returns 0 for degenerate inputs.
double pearson(std::span<const double> xs, std::span<const double> ys);

// Mean squared error between two equally sized sequences.
double mse(std::span<const double> a, std::span<const double> b);

// Remove values more than k sample standard deviations from the mean.
std::vector<double> remove_outliers(std::span<const double> xs, double k = 3.0);

// Standard normal CDF.
double normal_cdf(double z);

// Compensated (Neumaier-variant Kahan) accumulator.  Streaming monitors add
// and subtract tens of millions of terms over a long session; a naive
// double accumulator drifts by O(n * eps * |sum|), while the compensated sum
// stays within a few ulps of the exact result regardless of stream length.
class KahanSum {
 public:
  KahanSum() = default;
  explicit KahanSum(double v) : sum_(v) {}

  void add(double x) {
    const double t = sum_ + x;
    // Neumaier: pick the larger-magnitude operand as the reference so the
    // correction also works when |x| > |sum_|.
    if (std::abs(sum_) >= std::abs(x))
      comp_ += (sum_ - t) + x;
    else
      comp_ += (x - t) + sum_;
    sum_ = t;
  }

  double value() const { return sum_ + comp_; }

  // Internal parts for bitwise checkpoint/restore: value() alone is lossy
  // (sum_ + comp_ rounds), so persisting an accumulator mid-stream must
  // carry both words and restore() them verbatim.
  double raw_sum() const { return sum_; }
  double compensation() const { return comp_; }
  void restore(double sum, double comp) {
    sum_ = sum;
    comp_ = comp;
  }

  void reset() {
    sum_ = 0.0;
    comp_ = 0.0;
  }

 private:
  double sum_ = 0.0;
  double comp_ = 0.0;
};

// Online mean/variance accumulator (Welford).
class RunningStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  double variance() const;  // population variance
  double stddev() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace sb
