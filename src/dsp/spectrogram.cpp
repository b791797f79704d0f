#include "dsp/spectrogram.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "dsp/fft.hpp"
#include "dsp/window.hpp"
#include "obs/trace.hpp"
#include "util/simd.hpp"
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
  // They run in fixed groups of kDoubleLanes consecutive frames, one frame
  // per lane, and the pool chunks whole groups: the frame index alone
  // decides which frames share a vector, never the thread count.
  constexpr std::size_t kGroup = util::simd::kDoubleLanes;
  const std::size_t groups = (out.num_frames + kGroup - 1) / kGroup;
  util::parallel_for_ranges(groups, [&](std::size_t g0, std::size_t g1) {
    for (std::size_t g = g0; g < g1; ++g) {
      const std::size_t f0 = g * kGroup;
      const std::size_t count = std::min(kGroup, out.num_frames - f0);
      std::array<std::span<const double>, kGroup> frames;
      std::array<std::span<double>, kGroup> rows;
      for (std::size_t l = 0; l < count; ++l) {
        frames[l] = signal.subspan((f0 + l) * config.hop_size, config.frame_size);
        rows[l] = std::span{out.mags}.subspan((f0 + l) * out.num_bins, out.num_bins);
      }
      real_fft_magnitudes_lanes(std::span{frames}.first(count), *window, norm,
                                std::span{rows}.first(count));
    }
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
