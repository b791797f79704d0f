#include "dsp/fft.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <numbers>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "util/simd.hpp"

namespace sb::dsp {
namespace {

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

// Memoized per-size plan: the bit-reversal permutation and each stage's
// twiddles w_k = exp(-2πik/len), k < len/2, interleaved [wr, wi] with the
// stages concatenated (2(n-1) values, 16 KB of doubles at n = 1024).  The
// twiddles come from the recurrence w *= exp(-2πi/len) started at w = 1 in
// each stage, not from a cos/sin per twiddle: the pinned output bits
// (Fft.OutputBitsArePinned, and through the STFT every signature) are those
// of the recurrence.  The float copy rounds each double twiddle once.
struct FftPlan {
  std::vector<std::size_t> rev;
  std::vector<double> tw;
  std::vector<float> tw_f;

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
    tw_f.assign(tw.begin(), tw.end());
  }

  template <typename T>
  const T* twiddles() const {
    if constexpr (std::is_same_v<T, float>)
      return tw_f.data();
    else
      return tw.data();
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

// The fixed-width ops of util/simd.hpp, overloaded on the sample type.
namespace v = util::simd;
template <typename T>
constexpr std::size_t kLanes =
    std::is_same_v<T, float> ? v::kFloatLanes : v::kDoubleLanes;
inline v::VDouble vload(const double* p) { return v::loadd(p); }
inline v::VFloat vload(const float* p) { return v::load(p); }
inline void vstore(double* p, v::VDouble x) { v::stored(p, x); }
inline void vstore(float* p, v::VFloat x) { v::store(p, x); }
inline v::VDouble vadd(v::VDouble a, v::VDouble b) { return v::addd(a, b); }
inline v::VFloat vadd(v::VFloat a, v::VFloat b) { return v::add(a, b); }
inline v::VDouble vsub(v::VDouble a, v::VDouble b) { return v::subd(a, b); }
inline v::VFloat vsub(v::VFloat a, v::VFloat b) { return v::sub(a, b); }

// One butterfly stage over every len-block of the interleaved [re, im]
// data, reading the stage's len/2 twiddles.  Every butterfly computes
//   v = (xr*wr - xi*wi, xr*wi + xi*wr);  lo = u + v;  hi = u - v
// (the naive complex multiply, which std::complex also lowers to for finite
// operands).  The vector body holds whole complexes side by side in its
// lanes and util::simd::cmul keeps that per-component operation order, so
// the body and the scalar tail are bitwise-identical (this TU pins
// -ffp-contract=off so no FMA can fuse the mul-sub/mul-add pairs).
template <typename T>
void stage(T* d, std::size_t n, std::size_t len, const T* tw, bool vec) {
  constexpr std::size_t kCplx = kLanes<T> / 2;  // complexes per vector
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < n; i += len) {
    T* lo = d + 2 * i;
    T* hi = lo + 2 * half;
    std::size_t k = 0;
    if (vec)
      for (; k + kCplx <= half; k += kCplx) {
        const auto w = vload(tw + 2 * k);
        const auto u = vload(lo + 2 * k);
        const auto vv = v::cmul(vload(hi + 2 * k), w);
        vstore(lo + 2 * k, vadd(u, vv));
        vstore(hi + 2 * k, vsub(u, vv));
      }
    for (; k < half; ++k) {
      const T wr = tw[2 * k], wi = tw[2 * k + 1];
      const T xr = hi[2 * k], xi = hi[2 * k + 1];
      const T vr = xr * wr - xi * wi;
      const T vi = xr * wi + xi * wr;
      const T ur = lo[2 * k], ui = lo[2 * k + 1];
      lo[2 * k] = ur + vr;
      lo[2 * k + 1] = ui + vi;
      hi[2 * k] = ur - vr;
      hi[2 * k + 1] = ui - vi;
    }
  }
}

template <typename T>
void fft_impl(std::span<std::complex<T>> a) {
  const std::size_t n = a.size();
  if (!is_pow2(n)) throw std::invalid_argument{"fft: size must be a power of two"};
  const auto plan = get_plan(n);

  for (std::size_t i = 1; i < n; ++i)
    if (i < plan->rev[i]) std::swap(a[i], a[plan->rev[i]]);

  // std::complex<T> is layout-compatible with T[2] ([complex.numbers]).
  T* d = reinterpret_cast<T*>(a.data());
  // The vector body only pays with >= 2 complexes per vector: floats on
  // every ISA, doubles only on AVX2.  At 2 double lanes (SSE2/NEON) each
  // vector holds one complex and measured ~2x slower than the scalar loop.
  const bool vec = kLanes<T> >= 4 && util::simd_enabled();
  const T* tw = plan->twiddles<T>();
  for (std::size_t len = 2; len <= n; len <<= 1) {
    stage(d, n, len, tw, vec);
    tw += len;  // this stage read len/2 interleaved twiddles
  }
}

}  // namespace

void fft(std::span<std::complex<double>> data) { fft_impl(data); }
void fft(std::span<std::complex<float>> data) { fft_impl(data); }

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void warm_fft_plan(std::size_t n) {
  if (n != 0) (void)get_plan(next_pow2(n));
}

std::vector<double> magnitude_spectrum(std::span<const double> signal) {
  std::vector<std::complex<double>> spec(
      next_pow2(std::max<std::size_t>(signal.size(), 1)));
  std::copy(signal.begin(), signal.end(), spec.begin());
  fft(spec);
  std::vector<double> mags(spec.size() / 2 + 1);
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
