#include "dsp/fft.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <numbers>
#include <stdexcept>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "util/scratch.hpp"
#include "util/simd.hpp"

namespace sb::dsp {
namespace {

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

// Memoized per-size plan: the bit-reversal permutation and each stage's
// twiddles w_k = exp(-2πik/len), k < len/2, interleaved [wr, wi] with the
// stages concatenated (2(n-1) values, 16 KB at n = 1024).  The twiddles
// come from the recurrence w *= exp(-2πi/len) started at w = 1 in each
// stage, not from a cos/sin per twiddle: the pinned output bits
// (Fft.OutputBitsArePinned, and through the STFT every signature) are those
// of the recurrence.
struct FftPlan {
  std::vector<std::size_t> rev;
  std::vector<double> tw;

  explicit FftPlan(std::size_t n) : rev(n) {
    for (std::size_t i = 1, j = 0; i < n; ++i) {
      std::size_t bit = n >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      rev[i] = j;
    }
    tw.reserve(n >= 2 ? 2 * (n - 1) : 0);
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const double ang = -2.0 * std::numbers::pi / static_cast<double>(len);
      const double wlr = std::cos(ang);
      const double wli = std::sin(ang);
      double wr = 1.0, wi = 0.0;
      for (std::size_t k = 0; k < len / 2; ++k) {
        tw.push_back(wr);
        tw.push_back(wi);
        const double nwr = wr * wlr - wi * wli;
        wi = wr * wli + wi * wlr;
        wr = nwr;
      }
    }
  }
};

// Plans are immutable once built and shared across threads; the mutex only
// guards the map itself.
std::shared_ptr<const FftPlan> get_plan(std::size_t n) {
  static std::mutex mutex;
  static std::unordered_map<std::size_t, std::shared_ptr<const FftPlan>> cache;
  // Hit/miss counters are always on: one relaxed add under a mutex we hold
  // anyway, and the registry lookup is a one-time static init.
  static obs::Counter& hits = obs::Registry::instance().counter("fft.plan_hits");
  static obs::Counter& misses = obs::Registry::instance().counter("fft.plan_misses");
  std::lock_guard<std::mutex> lock{mutex};
  auto& slot = cache[n];
  if (!slot) {
    slot = std::make_shared<const FftPlan>(n);
    misses.add();
  } else {
    hits.add();
  }
  return slot;
}

// One butterfly stage over every len-block of the interleaved [re, im]
// data, reading the stage's len/2 twiddles.  Every butterfly computes
//   v = (xr*wr - xi*wi, xr*wi + xi*wr);  lo = u + v;  hi = u - v
// (the naive complex multiply, which std::complex also lowers to for finite
// operands).  The vector body holds two complexes side by side in AVX2's
// four double lanes and util::simd::cmul keeps that per-component
// operation order, so the body and the scalar tail are bitwise-identical
// (this TU pins -ffp-contract=off so no FMA can fuse the mul-sub/mul-add
// pairs).  At 2 double lanes (SSE2/NEON) one complex per vector measured
// ~2x slower than the scalar loop, so only AVX2 carries the complex
// helpers; the guard is the preprocessor's because a non-template function
// compiles both arms of an if constexpr.
void stage(double* d, std::size_t n, std::size_t len, const double* tw,
           [[maybe_unused]] bool vec) {
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < n; i += len) {
    double* lo = d + 2 * i;
    double* hi = lo + 2 * half;
    std::size_t k = 0;
#if defined(SB_SIMD_AVX2)
    namespace v = util::simd;
    if (vec)
      for (; k + 2 <= half; k += 2) {
        const v::VDouble w = v::loadd(tw + 2 * k);
        const v::VDouble u = v::loadd(lo + 2 * k);
        const v::VDouble vv = v::cmul(v::loadd(hi + 2 * k), w);
        v::stored(lo + 2 * k, v::addd(u, vv));
        v::stored(hi + 2 * k, v::subd(u, vv));
      }
#endif
    for (; k < half; ++k) {
      const double wr = tw[2 * k], wi = tw[2 * k + 1];
      const double xr = hi[2 * k], xi = hi[2 * k + 1];
      const double vr = xr * wr - xi * wi;
      const double vi = xr * wi + xi * wr;
      const double ur = lo[2 * k], ui = lo[2 * k + 1];
      lo[2 * k] = ur + vr;
      lo[2 * k + 1] = ui + vi;
      hi[2 * k] = ur - vr;
      hi[2 * k + 1] = ui - vi;
    }
  }
}

// The in-place transform of the m complexes at d (interleaved [re, im]),
// read from the plan of size m·stride: its bit reversal at every stride-th
// entry and the twiddles of its first log2(m) stages.  Both equal the
// m-point plan's own (rev_2m[2i] = rev_m[i], and each stage's twiddles
// depend only on its len), so the real-input transform runs its half-size
// transform off the full-size plan.
void transform(double* d, std::size_t m, const FftPlan& plan, std::size_t stride) {
  for (std::size_t i = 1; i < m; ++i) {
    const std::size_t j = plan.rev[i * stride];
    if (i < j) {
      std::swap(d[2 * i], d[2 * j]);
      std::swap(d[2 * i + 1], d[2 * j + 1]);
    }
  }
  const bool vec = util::simd_enabled();
  const double* tw = plan.tw.data();
  for (std::size_t len = 2; len <= m; len <<= 1) {
    stage(d, m, len, tw, vec);
    tw += len;  // this stage read len/2 interleaved twiddles
  }
}

}  // namespace

void fft(std::span<std::complex<double>> data) {
  const std::size_t n = data.size();
  if (!is_pow2(n)) throw std::invalid_argument{"fft: size must be a power of two"};
  // std::complex<double> is layout-compatible with double[2].
  transform(reinterpret_cast<double*>(data.data()), n, *get_plan(n), 1);
}

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void warm_fft_plan(std::size_t n) {
  if (n != 0) (void)get_plan(next_pow2(n));
}

void real_fft_magnitudes(std::span<const double> frame,
                         std::span<const double> window, double scale,
                         std::span<double> mags) {
  const std::size_t n = frame.size();
  if (!is_pow2(n))
    throw std::invalid_argument{"real_fft_magnitudes: size must be a power of two"};
  const auto mag = [](double re, double im, double s) {
    return std::sqrt(re * re + im * im) * s;
  };
  if (n == 1) {
    mags[0] = mag(window.empty() ? frame[0] : frame[0] * window[0], 0.0, scale);
    return;
  }
  const auto plan = get_plan(n);
  const std::size_t m = n / 2;
  // Packing z_j = x_2j + i·x_2j+1 is the frame's own memory layout.
  util::Scratch<double> zbuf{n};
  double* z = zbuf.data();
  if (window.empty())
    std::copy(frame.begin(), frame.end(), z);
  else
    for (std::size_t j = 0; j < n; ++j) z[j] = frame[j] * window[j];
  transform(z, m, *plan, 2);

  // Split: X_k = E_k + w_k·O_k with 2E_k = Z_k + conj Z_m-k and
  // 2O_k = -i(Z_k - conj Z_m-k), w_k = exp(-2πik/n) read from the plan's
  // last stage.  The loop forms 2X_k and folds the 1/2 into the scale,
  // which is bitwise the same as halving E and O: scaling by 2 commutes
  // with every rounding here.
  mags[0] = mag(z[0] + z[1], 0.0, scale);
  mags[m] = mag(z[0] - z[1], 0.0, scale);
  const double half = 0.5 * scale;
  const double* w = plan->tw.data() + (n - 2);
  for (std::size_t k = 1; k < m; ++k) {
    const double ar = z[2 * k], ai = z[2 * k + 1];
    const double br = z[2 * (m - k)], bi = z[2 * (m - k) + 1];
    const double ev_r = ar + br, ev_i = ai - bi;  // 2E_k
    const double od_r = ai + bi, od_i = br - ar;  // 2O_k
    const double wr = w[2 * k], wi = w[2 * k + 1];
    mags[k] = mag(ev_r + (od_r * wr - od_i * wi), ev_i + (od_r * wi + od_i * wr),
                  half);
  }
}

std::vector<double> magnitude_spectrum(std::span<const double> signal) {
  std::vector<double> padded(next_pow2(std::max<std::size_t>(signal.size(), 1)));
  std::copy(signal.begin(), signal.end(), padded.begin());
  std::vector<double> mags(padded.size() / 2 + 1);
  const double scale = 2.0 / static_cast<double>(signal.empty() ? 1 : signal.size());
  real_fft_magnitudes(padded, {}, scale, mags);
  mags[0] *= 0.5;  // DC is not doubled
  return mags;
}

double bin_frequency(std::size_t k, std::size_t n, double sample_rate) {
  return static_cast<double>(k) * sample_rate / static_cast<double>(n);
}

double goertzel(std::span<const double> signal, double target_hz, double sample_rate) {
  if (signal.empty()) return 0.0;
  const double n = static_cast<double>(signal.size());
  const double k = std::round(target_hz / sample_rate * n);
  const double omega = 2.0 * std::numbers::pi * k / n;
  const double coeff = 2.0 * std::cos(omega);
  double s0 = 0.0, s1 = 0.0, s2 = 0.0;
  for (double x : signal) {
    s0 = x + coeff * s1 - s2;
    s2 = s1;
    s1 = s0;
  }
  const double power = s1 * s1 + s2 * s2 - coeff * s1 * s2;
  return std::sqrt(std::max(power, 0.0)) * 2.0 / n;
}

}  // namespace sb::dsp
