// Short-time Fourier transform producing the time-frequency grids that the
// SoundBoost signature stage feeds to the DL model.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/scratch.hpp"

namespace sb::dsp {

// Frames are Hann-windowed (dsp/window.hpp).
struct StftConfig {
  std::size_t frame_size = 1024;   // samples per analysis frame (power of two)
  std::size_t hop_size = 512;      // samples between frame starts
  double sample_rate = 16000.0;
};

// One STFT result: frames x bins magnitude grid.
struct Spectrogram {
  std::size_t num_frames = 0;
  std::size_t num_bins = 0;        // frame_size/2 + 1
  double sample_rate = 0.0;
  double bin_hz = 0.0;             // frequency step between bins
  // Row-major [frame][bin]; pool-allocated so per-window spectrograms on the
  // streaming hot path reuse warm blocks instead of hitting the heap.
  std::vector<double, util::PoolAllocator<double>> mags;

  double at(std::size_t frame, std::size_t bin) const {
    return mags[frame * num_bins + bin];
  }
  double& at(std::size_t frame, std::size_t bin) {
    return mags[frame * num_bins + bin];
  }
};

// Computes the magnitude STFT.  Frames that would run past the end of the
// signal are dropped (no padding), so num_frames may be zero for short input.
Spectrogram stft(std::span<const double> signal, const StftConfig& config);

// Averages each frame's magnitudes within [lo_hz, hi_hz).  Returns one value
// per frame: the mean band amplitude over time (Fig. 2b-d traces).
std::vector<double> band_amplitude_over_time(const Spectrogram& spec, double lo_hz,
                                             double hi_hz);

}  // namespace sb::dsp
