// Analysis window functions for STFT framing.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace sb::dsp {

enum class WindowType { kRect, kHann, kHamming, kBlackman };

// Returns the window coefficients of the given length.
std::vector<double> make_window(WindowType type, std::size_t length);

// Memoized coefficients, shared per (type, length) like the FFT plan cache:
// stft() runs per analysis window on the streaming hot path and must not
// recompute (or allocate) the window every call.  The returned coefficients
// are immutable and safe to share across threads.
std::shared_ptr<const std::vector<double>> cached_window(WindowType type,
                                                         std::size_t length);

// Sum of window coefficients (used for amplitude normalization).
double window_sum(std::span<const double> window);

}  // namespace sb::dsp
