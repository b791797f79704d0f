// Unit-variance Gaussian draws for the audio renderer.
//
// Marsaglia & Tsang's ziggurat (128 strips): about 99% of draws take one
// 64-bit xoshiro output, a table compare and a multiply — the strip index
// and the signed 32-bit abscissa come from disjoint bits of that output, so
// they are independent.  The rest fall back to an exact wedge or tail test
// (exp/log).  Aero noise and ambient mic noise draw one value per sample on
// the synthesizer's hottest loops, where Box–Muller's log, sqrt, sin and cos
// per pair dominated the render.  Rng::normal keeps Box–Muller: the
// simulator's sensor noise and its golden CRCs depend on it.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "util/rng.hpp"

namespace sb::acoustics {

class GaussianNoise {
 public:
  GaussianNoise() = default;
  explicit GaussianNoise(Rng rng) : rng_(rng) {}

  double next() {
    const Tables& t = tables();
    for (;;) {
      const std::uint64_t u = rng_.next_u64();
      const std::size_t i = u & 127;
      const auto j = static_cast<std::int64_t>(static_cast<std::int32_t>(u >> 32));
      const double x = static_cast<double>(j) * t.w[i];
      if ((j < 0 ? -j : j) < t.k[i]) return x;  // inside the strip's rectangle
      if (i == 0) return tail(j < 0);
      // Wedge: accept x under the density between the strip's edges.
      if (t.f[i] + uniform_open() * (t.f[i - 1] - t.f[i]) < std::exp(-0.5 * x * x))
        return x;
    }
  }

 private:
  static constexpr double kR = 3.442619855899;  // start of the tail

  struct Tables {
    std::array<std::int64_t, 128> k;  // |j| below k[i]: inside the rectangle
    std::array<double, 128> w;        // abscissa per unit of j
    std::array<double, 128> f;        // density at the strip's outer edge
    Tables() {
      const double m = 2147483648.0;  // 2^31
      const double v = 9.91256303526217e-3;  // area of each strip
      double d = kR, prev = kR;
      const double q = v / std::exp(-0.5 * d * d);
      k[0] = static_cast<std::int64_t>(d / q * m);
      k[1] = 0;
      w[0] = q / m;
      w[127] = d / m;
      f[0] = 1.0;
      f[127] = std::exp(-0.5 * d * d);
      for (int i = 126; i >= 1; --i) {
        d = std::sqrt(-2.0 * std::log(v / d + std::exp(-0.5 * d * d)));
        k[static_cast<std::size_t>(i) + 1] = static_cast<std::int64_t>(d / prev * m);
        prev = d;
        f[static_cast<std::size_t>(i)] = std::exp(-0.5 * d * d);
        w[static_cast<std::size_t>(i)] = d / m;
      }
    }
  };

  static const Tables& tables() {
    static const Tables kTables;
    return kTables;
  }

  // Uniform in (0, 1]: safe under log.
  double uniform_open() { return 1.0 - rng_.uniform(); }

  // Marsaglia's exact sampler for |x| > kR.
  double tail(bool negative) {
    double x = 0.0, y = 0.0;
    do {
      x = -std::log(uniform_open()) / kR;
      y = -std::log(uniform_open());
    } while (y + y < x * x);
    return negative ? -(kR + x) : kR + x;
  }

  Rng rng_;
};

}  // namespace sb::acoustics
