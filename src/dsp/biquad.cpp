#include "dsp/biquad.hpp"

#include <cmath>
#include <complex>
#include <numbers>
#include <stdexcept>

namespace sb::dsp {

Biquad::Biquad(double b0, double b1, double b2, double a1, double a2)
    : b0_(b0), b1_(b1), b2_(b2), a1_(a1), a2_(a2) {}

Biquad Biquad::low_pass(double cutoff_hz, double sample_rate, double q) {
  const double w0 = 2.0 * std::numbers::pi * cutoff_hz / sample_rate;
  const double alpha = std::sin(w0) / (2.0 * q);
  const double cw = std::cos(w0);
  const double a0 = 1.0 + alpha;
  return {(1.0 - cw) / 2.0 / a0, (1.0 - cw) / a0, (1.0 - cw) / 2.0 / a0,
          -2.0 * cw / a0, (1.0 - alpha) / a0};
}

Biquad Biquad::band_pass(double center_hz, double sample_rate, double q) {
  const double w0 = 2.0 * std::numbers::pi * center_hz / sample_rate;
  const double alpha = std::sin(w0) / (2.0 * q);
  const double cw = std::cos(w0);
  const double a0 = 1.0 + alpha;
  return {alpha / a0, 0.0, -alpha / a0, -2.0 * cw / a0, (1.0 - alpha) / a0};
}

std::vector<double> Biquad::process(std::span<const double> xs) {
  std::vector<double> out(xs.size());
  process_into(xs, out);
  return out;
}

void Biquad::process_into(std::span<const double> xs, std::span<double> out) {
  if (xs.size() != out.size())
    throw std::invalid_argument{"Biquad::process_into: size mismatch"};
  for (std::size_t i = 0; i < xs.size(); ++i) out[i] = process(xs[i]);
}

void Biquad::reset() { x1_ = x2_ = y1_ = y2_ = 0.0; }

double Biquad::magnitude_at(double hz, double sample_rate) const {
  const double w = 2.0 * std::numbers::pi * hz / sample_rate;
  const std::complex<double> z{std::cos(w), std::sin(w)};
  const auto z1 = 1.0 / z, z2 = z1 * z1;
  const auto num = b0_ + b1_ * z1 + b2_ * z2;
  const auto den = 1.0 + a1_ * z1 + a2_ * z2;
  return std::abs(num / den);
}

BiquadCascade BiquadCascade::low_pass(double cutoff_hz, double sample_rate,
                                      int sections) {
  BiquadCascade c;
  for (int i = 0; i < sections; ++i)
    c.sections_.push_back(Biquad::low_pass(cutoff_hz, sample_rate));
  return c;
}

double BiquadCascade::process(double x) {
  for (auto& s : sections_) x = s.process(x);
  return x;
}

std::vector<double> BiquadCascade::process(std::span<const double> xs) {
  std::vector<double> out(xs.size());
  process_into(xs, out);
  return out;
}

void BiquadCascade::process_into(std::span<const double> xs,
                                 std::span<double> out) {
  if (xs.size() != out.size())
    throw std::invalid_argument{"BiquadCascade::process_into: size mismatch"};
  for (std::size_t i = 0; i < xs.size(); ++i) out[i] = process(xs[i]);
}

void BiquadCascade::reset() {
  for (auto& s : sections_) s.reset();
}

}  // namespace sb::dsp
