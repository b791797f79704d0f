#include "dsp/spectrogram.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/fft.hpp"
#include "dsp/window.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace sb::dsp {

Spectrogram stft(std::span<const double> signal, const StftConfig& config) {
  obs::ScopedSpan span{"stft", obs::Stage::kStft};
  if (config.frame_size == 0 || config.hop_size == 0)
    throw std::invalid_argument{"stft: frame_size and hop_size must be positive"};
  if (next_pow2(config.frame_size) != config.frame_size)
    throw std::invalid_argument{"stft: frame_size must be a power of two"};

  const auto window = cached_hann_window(config.frame_size);
  const double norm = 2.0 / window_sum(*window);

  Spectrogram out;
  out.num_bins = config.frame_size / 2 + 1;
  out.sample_rate = config.sample_rate;
  out.bin_hz = config.sample_rate / static_cast<double>(config.frame_size);

  if (signal.size() >= config.frame_size)
    out.num_frames = (signal.size() - config.frame_size) / config.hop_size + 1;
  out.mags.resize(out.num_frames * out.num_bins);

  // Frames are independent and write disjoint rows of the magnitude matrix.
  util::parallel_for_ranges(out.num_frames, [&](std::size_t f0, std::size_t f1) {
    for (std::size_t f = f0; f < f1; ++f)
      real_fft_magnitudes(signal.subspan(f * config.hop_size, config.frame_size),
                          *window, norm,
                          std::span{out.mags}.subspan(f * out.num_bins, out.num_bins));
  });
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
