// The STFT analysis window: a symmetric Hann window.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace sb::dsp {

// Hann coefficients 0.5 - 0.5·cos(2πi/(length-1)); a length of 0 or 1 gives
// all ones.
std::vector<double> hann_window(std::size_t length);

// Memoized Hann coefficients, shared per length like the FFT plan cache:
// stft() runs per analysis window on the streaming hot path and must not
// recompute (or allocate) the window every call.  The returned coefficients
// are immutable and safe to share across threads.
std::shared_ptr<const std::vector<double>> cached_hann_window(std::size_t length);

// Sum of window coefficients (used for amplitude normalization).
double window_sum(std::span<const double> window);

}  // namespace sb::dsp
