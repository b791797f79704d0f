#include "dsp/spectrogram.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <stdexcept>
#include <type_traits>

#include "dsp/fft.hpp"
#include "obs/trace.hpp"
#include "util/scratch.hpp"
#include "util/thread_pool.hpp"

namespace sb::dsp {

namespace {

// The frame loop of both precisions: T = double is the exact pipeline,
// T = float the SB_PRECISION=fast one.  Each window product is computed in
// double and rounded to T once, straight into the pooled complex buffer;
// magnitudes are std::abs (hypot) in double and sqrt(re² + im²) in float
// (hypot measured 3x the cost of the sqrt form, and the float grid can't
// represent its extra headroom anyway).  Magnitudes are stored in double,
// so everything downstream is the same for both.
template <typename T>
void frames(std::span<const double> signal, const StftConfig& config,
            const double* win, double norm, Spectrogram& out) {
  // Frames are independent and write disjoint rows of the magnitude matrix.
  util::parallel_for_ranges(out.num_frames, [&](std::size_t f0, std::size_t f1) {
    const std::size_t fsize = config.frame_size;
    util::Scratch<T> cbuf{2 * fsize};
    // std::complex<T> is layout-compatible with T[2].
    auto* spec = reinterpret_cast<std::complex<T>*>(cbuf.data());
    for (std::size_t f = f0; f < f1; ++f) {
      const double* x = signal.data() + f * config.hop_size;
      for (std::size_t k = 0; k < fsize; ++k)
        spec[k] = {static_cast<T>(x[k] * win[k]), T{0}};
      fft(std::span{spec, fsize});
      double* row = out.mags.data() + f * out.num_bins;
      for (std::size_t k = 0; k < out.num_bins; ++k) {
        if constexpr (std::is_same_v<T, double>) {
          row[k] = std::abs(spec[k]) * norm;
        } else {
          const float re = spec[k].real();
          const float im = spec[k].imag();
          row[k] = static_cast<double>(std::sqrt(re * re + im * im)) * norm;
        }
      }
    }
  });
}

}  // namespace

Spectrogram stft(std::span<const double> signal, const StftConfig& config) {
  obs::ScopedSpan span{"stft", obs::Stage::kStft};
  if (config.frame_size == 0 || config.hop_size == 0)
    throw std::invalid_argument{"stft: frame_size and hop_size must be positive"};
  if (next_pow2(config.frame_size) != config.frame_size)
    throw std::invalid_argument{"stft: frame_size must be a power of two"};

  const auto window = cached_window(config.window, config.frame_size);
  const double norm = 2.0 / window_sum(*window);

  Spectrogram out;
  out.num_bins = config.frame_size / 2 + 1;
  out.sample_rate = config.sample_rate;
  out.bin_hz = config.sample_rate / static_cast<double>(config.frame_size);

  if (signal.size() >= config.frame_size)
    out.num_frames = (signal.size() - config.frame_size) / config.hop_size + 1;
  out.mags.resize(out.num_frames * out.num_bins);

  if (config.fast_f32)
    frames<float>(signal, config, window->data(), norm, out);
  else
    frames<double>(signal, config, window->data(), norm, out);
  return out;
}

std::vector<double> band_amplitude_over_time(const Spectrogram& spec, double lo_hz,
                                             double hi_hz) {
  std::vector<double> out(spec.num_frames, 0.0);
  if (spec.num_frames == 0 || spec.bin_hz <= 0.0) return out;
  const auto lo = static_cast<std::size_t>(std::max(0.0, lo_hz / spec.bin_hz));
  const auto hi = std::min(static_cast<std::size_t>(hi_hz / spec.bin_hz),
                           spec.num_bins);
  const std::size_t count = hi > lo ? hi - lo : 1;
  for (std::size_t f = 0; f < spec.num_frames; ++f) {
    double s = 0.0;
    for (std::size_t k = lo; k < hi; ++k) s += spec.at(f, k);
    out[f] = s / static_cast<double>(count);
  }
  return out;
}

}  // namespace sb::dsp
