#include "dsp/fft.hpp"

#include <cmath>
#include <memory>
#include <mutex>
#include <numbers>
#include <stdexcept>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "util/simd.hpp"

namespace sb::dsp {
namespace {

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

// Precomputed per-size bit-reversal permutation.  Twiddle factors stay
// incremental (`w *= wlen` in registers) inside the butterflies: a cached
// twiddle table turns every butterfly's multiply into a memory operand and
// measured ~2x SLOWER than the recurrence on this kernel.
struct FftPlan {
  std::vector<std::size_t> rev;

  explicit FftPlan(std::size_t n) {
    rev.resize(n);
    for (std::size_t i = 1, j = 0; i < n; ++i) {
      std::size_t bit = n >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      rev[i] = j;
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

// Advance the twiddle w by one step of the recurrence w *= wlen.
inline void twiddle_step(double& wr, double& wi, double wlr, double wli) {
  const double nwr = wr * wlr - wi * wli;
  wi = wr * wli + wi * wlr;
  wr = nwr;
}

// f32 plan: the shared bit-reversal table plus PRECOMPUTED per-stage float
// twiddles (interleaved [wr, wi], stages concatenated — 2*(n-1) floats, 8 KB
// at n=1024, L1-resident).  The double path deliberately keeps the in-register
// recurrence (its cached table measured ~2x slower), but the trade-off flips
// here: the f32 vector butterflies consume FOUR twiddles per 32-byte load,
// and the serial recurrence chain (~one dependent complex multiply per
// butterfly) is what limits the float transform, not the arithmetic.  The
// table is built with the SAME double recurrence rounded to float once per
// twiddle, so table and recurrence butterflies compute identical values.
struct FftPlanF32 {
  std::shared_ptr<const FftPlan> base;   // shared bit-reversal
  std::vector<float> tw;                 // per-stage interleaved twiddles

  FftPlanF32(std::size_t n, std::shared_ptr<const FftPlan> shared_base)
      : base(std::move(shared_base)) {
    tw.reserve(n >= 2 ? 2 * (n - 1) : 0);
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const double ang = -2.0 * std::numbers::pi / static_cast<double>(len);
      const double wlr = std::cos(ang);
      const double wli = std::sin(ang);
      double wr = 1.0, wi = 0.0;
      for (std::size_t k = 0; k < len / 2; ++k) {
        tw.push_back(static_cast<float>(wr));
        tw.push_back(static_cast<float>(wi));
        twiddle_step(wr, wi, wlr, wli);
      }
    }
  }
};

std::shared_ptr<const FftPlanF32> get_plan_f32(std::size_t n) {
  static std::mutex mutex;
  static std::unordered_map<std::size_t, std::shared_ptr<const FftPlanF32>> cache;
  static obs::Counter& hits = obs::Registry::instance().counter("fft.plan_hits");
  static obs::Counter& misses = obs::Registry::instance().counter("fft.plan_misses");
  auto base = get_plan(n);  // outside our lock; get_plan locks its own map
  std::lock_guard<std::mutex> lock{mutex};
  auto& slot = cache[n];
  if (!slot) {
    slot = std::make_shared<const FftPlanF32>(n, std::move(base));
    misses.add();
  } else {
    hits.add();
  }
  return slot;
}

// Both butterfly variants below compute the SAME per-element formula —
//   v = (xr*wr - xi*wi, xr*wi + xi*wr);  lo = u + v;  hi = u - v
// (the naive complex multiply, which std::complex also lowers to for finite
// operands), with the twiddle advanced by the same scalar recurrence.  Lanes
// of the vector path hold whole complex values side by side, so scalar and
// vector results are bitwise-identical (this TU pins -ffp-contract=off so no
// FMA can fuse the mul-sub/mul-add pairs).

// One scalar butterfly at interleaved offset k within a (lo, hi) half pair.
inline void butterfly_at(double* lo, double* hi, std::size_t k, double wr,
                         double wi) {
  const double xr = hi[2 * k];
  const double xi = hi[2 * k + 1];
  const double vr = xr * wr - xi * wi;
  const double vi = xr * wi + xi * wr;
  const double ur = lo[2 * k];
  const double ui = lo[2 * k + 1];
  lo[2 * k] = ur + vr;
  lo[2 * k + 1] = ui + vi;
  hi[2 * k] = ur - vr;
  hi[2 * k + 1] = ui - vi;
}

void butterflies_scalar(double* d, std::size_t n, std::size_t len, double wlr,
                        double wli) {
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < n; i += len) {
    double* lo = d + 2 * i;
    double* hi = lo + 2 * half;
    double wr = 1.0, wi = 0.0;
    for (std::size_t k = 0; k < half; ++k) {
      butterfly_at(lo, hi, k, wr, wi);
      twiddle_step(wr, wi, wlr, wli);
    }
  }
}

// Twiddles stay on the scalar recurrence (a cached table measured ~2x slower
// on this kernel) and are staged through a tiny interleaved buffer; only the
// butterfly arithmetic is vectorized via cmul (see util/simd.hpp).
void butterflies_vector(double* d, std::size_t n, std::size_t len, double wlr,
                        double wli) {
  namespace v = util::simd;
  constexpr std::size_t kCplx = v::kDoubleLanes / 2;  // complexes per vector
  const std::size_t half = len / 2;
  double wbuf[v::kDoubleLanes];
  for (std::size_t i = 0; i < n; i += len) {
    double* lo = d + 2 * i;
    double* hi = lo + 2 * half;
    double wr = 1.0, wi = 0.0;
    std::size_t k = 0;
    for (; k + kCplx <= half; k += kCplx) {
      for (std::size_t c = 0; c < kCplx; ++c) {
        wbuf[2 * c] = wr;
        wbuf[2 * c + 1] = wi;
        twiddle_step(wr, wi, wlr, wli);
      }
      const v::VDouble w = v::loadd(wbuf);
      const v::VDouble x = v::loadd(hi + 2 * k);
      const v::VDouble u = v::loadd(lo + 2 * k);
      const v::VDouble vv = v::cmul(x, w);
      v::stored(lo + 2 * k, v::addd(u, vv));
      v::stored(hi + 2 * k, v::subd(u, vv));
    }
    for (; k < half; ++k) {
      butterfly_at(lo, hi, k, wr, wi);
      twiddle_step(wr, wi, wlr, wli);
    }
  }
}

// Float butterflies for fft_inplace_f32.  Same per-element formula as the
// double pair above, but twiddles come from the plan's precomputed table
// (see FftPlanF32) instead of the in-register recurrence — both variants
// read the SAME floats, so scalar and vector stay bitwise-identical.
inline void butterfly_at_f(float* lo, float* hi, std::size_t k, float wr,
                           float wi) {
  const float xr = hi[2 * k];
  const float xi = hi[2 * k + 1];
  const float vr = xr * wr - xi * wi;
  const float vi = xr * wi + xi * wr;
  const float ur = lo[2 * k];
  const float ui = lo[2 * k + 1];
  lo[2 * k] = ur + vr;
  lo[2 * k + 1] = ui + vi;
  hi[2 * k] = ur - vr;
  hi[2 * k + 1] = ui - vi;
}

void butterflies_scalar_f(float* d, std::size_t n, std::size_t len,
                          const float* tw) {
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < n; i += len) {
    float* lo = d + 2 * i;
    float* hi = lo + 2 * half;
    for (std::size_t k = 0; k < half; ++k)
      butterfly_at_f(lo, hi, k, tw[2 * k], tw[2 * k + 1]);
  }
}

void butterflies_vector_f(float* d, std::size_t n, std::size_t len,
                          const float* tw) {
  namespace v = util::simd;
  constexpr std::size_t kCplx = v::kFloatLanes / 2;  // complexes per vector
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < n; i += len) {
    float* lo = d + 2 * i;
    float* hi = lo + 2 * half;
    std::size_t k = 0;
    for (; k + kCplx <= half; k += kCplx) {
      const v::VFloat w = v::load(tw + 2 * k);
      const v::VFloat x = v::load(hi + 2 * k);
      const v::VFloat u = v::load(lo + 2 * k);
      const v::VFloat vv = v::cmul(x, w);
      v::store(lo + 2 * k, v::add(u, vv));
      v::store(hi + 2 * k, v::sub(u, vv));
    }
    for (; k < half; ++k)
      butterfly_at_f(lo, hi, k, tw[2 * k], tw[2 * k + 1]);
  }
}

void fft_impl(std::span<std::complex<double>> a, bool inverse) {
  const std::size_t n = a.size();
  if (!is_pow2(n)) throw std::invalid_argument{"fft: size must be a power of two"};
  const auto plan = get_plan(n);

  for (std::size_t i = 1; i < n; ++i)
    if (i < plan->rev[i]) std::swap(a[i], a[plan->rev[i]]);

  // std::complex<double> is layout-compatible with double[2] ([complex.numbers]).
  double* d = reinterpret_cast<double*>(a.data());
  // The vector butterflies only pay off with >= 2 complexes per vector
  // (AVX2's 4 double lanes).  At 2 double lanes (SSE2/NEON) each "vector"
  // holds one complex and the wbuf staging is pure overhead — measured ~3x
  // slower than the scalar recurrence — so those ISAs take the scalar path.
  const bool vec =
      util::simd::kDoubleLanes >= 4 && util::simd_enabled();
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang =
        2.0 * std::numbers::pi / static_cast<double>(len) * (inverse ? 1.0 : -1.0);
    const double wlr = std::cos(ang);
    const double wli = std::sin(ang);
    if (vec)
      butterflies_vector(d, n, len, wlr, wli);
    else
      butterflies_scalar(d, n, len, wlr, wli);
  }

  if (inverse)
    for (auto& x : a) x /= static_cast<double>(n);
}

void fft_impl_f32(std::span<std::complex<float>> a) {
  const std::size_t n = a.size();
  if (!is_pow2(n)) throw std::invalid_argument{"fft: size must be a power of two"};
  const auto plan = get_plan_f32(n);
  const auto& rev = plan->base->rev;

  for (std::size_t i = 1; i < n; ++i)
    if (i < rev[i]) std::swap(a[i], a[rev[i]]);

  // std::complex<float> is layout-compatible with float[2] ([complex.numbers]).
  float* d = reinterpret_cast<float*>(a.data());
  // Unlike the double path, every built ISA already fits >= 2 complexes per
  // float vector (4 float lanes on SSE2/NEON, 8 on AVX2), so the vector
  // butterflies always engage when the runtime backend allows it.
  const bool vec = util::simd::kFloatLanes >= 4 && util::simd_enabled();
  const float* tw = plan->tw.data();
  for (std::size_t len = 2; len <= n; len <<= 1) {
    if (vec)
      butterflies_vector_f(d, n, len, tw);
    else
      butterflies_scalar_f(d, n, len, tw);
    tw += len;  // this stage consumed len/2 interleaved twiddles
  }
}

}  // namespace

void fft(std::vector<std::complex<double>>& data) { fft_impl(data, false); }
void ifft(std::vector<std::complex<double>>& data) { fft_impl(data, true); }

void fft_inplace(std::span<std::complex<double>> data) { fft_impl(data, false); }

void fft_inplace_f32(std::span<std::complex<float>> data) { fft_impl_f32(data); }

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void warm_fft_plan(std::size_t n) {
  if (n == 0) return;
  // Warm both precisions: the f32 plan (twiddle table) is ~8 KB at n=1024
  // and serving can flip to SB_PRECISION=fast after the session was built.
  (void)get_plan_f32(next_pow2(n));  // builds the double plan as its base
}

std::vector<std::complex<double>> fft_real(std::span<const double> signal) {
  const std::size_t n = next_pow2(std::max<std::size_t>(signal.size(), 1));
  std::vector<std::complex<double>> a(n);
  for (std::size_t i = 0; i < signal.size(); ++i) a[i] = signal[i];
  fft(a);
  return a;
}

std::vector<double> magnitude_spectrum(std::span<const double> signal) {
  auto spec = fft_real(signal);
  const std::size_t n = spec.size();
  std::vector<double> mags(n / 2 + 1);
  const double scale = 2.0 / static_cast<double>(signal.empty() ? 1 : signal.size());
  for (std::size_t k = 0; k < mags.size(); ++k) mags[k] = std::abs(spec[k]) * scale;
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
