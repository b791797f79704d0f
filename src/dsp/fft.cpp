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
// guards the map itself.  A caller that runs `transforms` transforms off the
// plan counts each as one lookup, the first a miss if the plan is new, so
// the counters read the same whether frames go one by one or in lanes.
std::shared_ptr<const FftPlan> get_plan(std::size_t n, std::size_t transforms = 1) {
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
    hits.add(transforms - 1);
  } else {
    hits.add(transforms);
  }
  return slot;
}

// One butterfly stage over every len-block of the interleaved [re, im]
// data, reading the stage's len/2 twiddles.  Every butterfly computes
//   v = (xr*wr - xi*wi, xr*wi + xi*wr);  lo = u + v;  hi = u - v
// (the naive complex multiply, which std::complex also lowers to for finite
// operands).  The lanes kernel below runs this same butterfly across
// frames.
void stage(double* d, std::size_t n, std::size_t len, const double* tw) {
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < n; i += len) {
    double* lo = d + 2 * i;
    double* hi = lo + 2 * half;
    for (std::size_t k = 0; k < half; ++k) {
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
  const double* tw = plan.tw.data();
  for (std::size_t len = 2; len <= m; len <<= 1) {
    stage(d, m, len, tw);
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

void real_fft_magnitudes_lanes(std::span<const std::span<const double>> frames,
                               std::span<const double> window, double scale,
                               std::span<const std::span<double>> mags) {
  namespace simd = util::simd;
  using simd::VDouble;
  constexpr std::size_t kLanes = simd::kDoubleLanes;
  const std::size_t count = frames.size();
  if (count == 0 || count > kLanes || mags.size() != count)
    throw std::invalid_argument{
        "real_fft_magnitudes_lanes: 1 to kDoubleLanes frames, one mags row each"};
  const std::size_t n = frames[0].size();
  if (!is_pow2(n) || window.size() != n)
    throw std::invalid_argument{
        "real_fft_magnitudes_lanes: size must be a power of two, with a window "
        "of that size"};
  for (std::size_t l = 0; l < count; ++l)
    if (frames[l].size() != n || mags[l].size() != n / 2 + 1)
      throw std::invalid_argument{
          "real_fft_magnitudes_lanes: every frame needs the first's size and "
          "a mags row of size/2 + 1"};
  if (!util::simd_enabled() || n == 1) {
    for (std::size_t l = 0; l < count; ++l)
      real_fft_magnitudes(frames[l], window, scale, mags[l]);
    return;
  }
  const auto plan = get_plan(n, count);
  const std::size_t m = n / 2;

  // Lane l of vector i holds frame l's complex i: split arrays, re[i·L + l]
  // and im[i·L + l].  Spare lanes of a short group repeat its last frame.
  util::Scratch<double> buf{2 * m * kLanes};
  double* re = buf.data();
  double* im = re + m * kLanes;
  const double* src[kLanes];
  for (std::size_t l = 0; l < kLanes; ++l)
    src[l] = frames[std::min(l, count - 1)].data();
  // Each frame packs as z_j = x_2j + i·x_2j+1, loaded straight into the
  // bit-reversed position that real_fft_magnitudes' swaps move it to.
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t j = 2 * plan->rev[2 * i];
    for (std::size_t l = 0; l < kLanes; ++l) {
      re[i * kLanes + l] = src[l][j] * window[j];
      im[i * kLanes + l] = src[l][j + 1] * window[j + 1];
    }
  }

  // stage()'s butterflies with the twiddles broadcast to every lane, two
  // stages per sweep: stages len and 2·len map the four complexes
  // p, p + len/2, p + len, p + 3·len/2 onto themselves, so each sweep runs
  // those four butterflies in registers.  Every butterfly is stage()'s own,
  // and butterflies of one stage are independent, so the order is free.
  const auto butterfly = [](VDouble& ur, VDouble& ui, VDouble& xr, VDouble& xi,
                            VDouble wr, VDouble wi) {
    const VDouble vr = simd::subd(simd::muld(xr, wr), simd::muld(xi, wi));
    const VDouble vi = simd::addd(simd::muld(xr, wi), simd::muld(xi, wr));
    xr = simd::subd(ur, vr);
    xi = simd::subd(ui, vi);
    ur = simd::addd(ur, vr);
    ui = simd::addd(ui, vi);
  };
  const double* tw = plan->tw.data();  // stage len's len/2 twiddles
  std::size_t len = 2;
  for (; 2 * len <= m; len <<= 2) {
    const std::size_t half = len / 2;
    const double* tw2 = tw + len;  // stage 2·len's twiddles
    for (std::size_t k = 0; k < half; ++k) {
      const VDouble w1r = simd::broadcastd(tw[2 * k]);
      const VDouble w1i = simd::broadcastd(tw[2 * k + 1]);
      const VDouble w2r = simd::broadcastd(tw2[2 * k]);
      const VDouble w2i = simd::broadcastd(tw2[2 * k + 1]);
      const VDouble w3r = simd::broadcastd(tw2[2 * (k + half)]);
      const VDouble w3i = simd::broadcastd(tw2[2 * (k + half) + 1]);
      for (std::size_t p = k; p < m; p += 2 * len) {
        double* r0 = re + p * kLanes;
        double* i0 = im + p * kLanes;
        double* r1 = r0 + half * kLanes;
        double* i1 = i0 + half * kLanes;
        double* r2 = r0 + len * kLanes;
        double* i2 = i0 + len * kLanes;
        double* r3 = r2 + half * kLanes;
        double* i3 = i2 + half * kLanes;
        VDouble a0r = simd::loadd(r0), a0i = simd::loadd(i0);
        VDouble a1r = simd::loadd(r1), a1i = simd::loadd(i1);
        VDouble a2r = simd::loadd(r2), a2i = simd::loadd(i2);
        VDouble a3r = simd::loadd(r3), a3i = simd::loadd(i3);
        butterfly(a0r, a0i, a1r, a1i, w1r, w1i);  // stage len
        butterfly(a2r, a2i, a3r, a3i, w1r, w1i);
        butterfly(a0r, a0i, a2r, a2i, w2r, w2i);  // stage 2·len
        butterfly(a1r, a1i, a3r, a3i, w3r, w3i);
        simd::stored(r0, a0r);
        simd::stored(i0, a0i);
        simd::stored(r1, a1r);
        simd::stored(i1, a1i);
        simd::stored(r2, a2r);
        simd::stored(i2, a2i);
        simd::stored(r3, a3r);
        simd::stored(i3, a3i);
      }
    }
    tw += 3 * len;  // both stages' twiddles
  }
  if (len <= m) {  // an odd stage count leaves the last stage on its own
    const std::size_t half = len / 2;
    for (std::size_t k = 0; k < half; ++k) {
      const VDouble wr = simd::broadcastd(tw[2 * k]);
      const VDouble wi = simd::broadcastd(tw[2 * k + 1]);
      for (std::size_t p = k; p < m; p += len) {
        double* r0 = re + p * kLanes;
        double* i0 = im + p * kLanes;
        double* r1 = r0 + half * kLanes;
        double* i1 = i0 + half * kLanes;
        VDouble ur = simd::loadd(r0), ui = simd::loadd(i0);
        VDouble xr = simd::loadd(r1), xi = simd::loadd(i1);
        butterfly(ur, ui, xr, xi, wr, wi);
        simd::stored(r0, ur);
        simd::stored(i0, ui);
        simd::stored(r1, xr);
        simd::stored(i1, xi);
      }
    }
  }

  // real_fft_magnitudes' split pass and magnitudes, one bin of every frame
  // per step.
  const auto mag = [](VDouble r, VDouble i, VDouble s) {
    return simd::muld(simd::sqrtd(simd::addd(simd::muld(r, r), simd::muld(i, i))), s);
  };
  double row[kLanes];
  const auto put = [&](std::size_t k, VDouble v) {
    simd::stored(row, v);
    for (std::size_t l = 0; l < count; ++l) mags[l][k] = row[l];
  };
  const VDouble zero = simd::broadcastd(0.0);
  const VDouble full = simd::broadcastd(scale);
  const VDouble z0r = simd::loadd(re), z0i = simd::loadd(im);
  put(0, mag(simd::addd(z0r, z0i), zero, full));
  put(m, mag(simd::subd(z0r, z0i), zero, full));
  const VDouble half = simd::broadcastd(0.5 * scale);
  const double* w = plan->tw.data() + (n - 2);
  for (std::size_t k = 1; k < m; ++k) {
    const VDouble ar = simd::loadd(re + k * kLanes), ai = simd::loadd(im + k * kLanes);
    const VDouble br = simd::loadd(re + (m - k) * kLanes);
    const VDouble bi = simd::loadd(im + (m - k) * kLanes);
    const VDouble ev_r = simd::addd(ar, br), ev_i = simd::subd(ai, bi);
    const VDouble od_r = simd::addd(ai, bi), od_i = simd::subd(br, ar);
    const VDouble wr = simd::broadcastd(w[2 * k]), wi = simd::broadcastd(w[2 * k + 1]);
    put(k, mag(simd::addd(ev_r, simd::subd(simd::muld(od_r, wr), simd::muld(od_i, wi))),
               simd::addd(ev_i, simd::addd(simd::muld(od_r, wi), simd::muld(od_i, wr))),
               half));
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
