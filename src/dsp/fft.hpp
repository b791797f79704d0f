// Radix-2 FFT and helpers.  Used by signature generation (spectrograms,
// band energies) and by the acoustics benches (Fig. 2 spectrum).
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace sb::dsp {

// In-place iterative radix-2 Cooley–Tukey forward transform.  data.size()
// must be a power of two (throws std::invalid_argument otherwise).  It reads
// a memoized per-size plan.
void fft(std::span<std::complex<double>> data);

// Scaled magnitudes of the DFT of one real frame: mags[k] = |X_k|·scale for
// k = 0…n/2, X the n-point DFT of x_j = frame[j]·window[j] (an empty window
// means x = frame).  n = frame.size() must be a power of two (throws
// std::invalid_argument otherwise), a non-empty window holds n values and
// mags holds n/2 + 1.  The n reals run as one n/2-point complex transform
// plus a split pass, and each magnitude is sqrt(re² + im²)·scale.  One plan
// lookup per call: the n-point plan holds the half-size transform's tables
// and the split twiddles.
void real_fft_magnitudes(std::span<const double> frame,
                         std::span<const double> window, double scale,
                         std::span<double> mags);

// real_fft_magnitudes of 1 to util::simd::kDoubleLanes windowed frames of
// one size: mags[l] gets bitwise what real_fft_magnitudes(frames[l], window,
// scale, mags[l]) writes, and the plan counts one lookup per frame.  The
// window holds one value per sample and each mags row n/2 + 1 (throws
// otherwise, on both backends).  The vector
// backend runs one frame per lane (spare lanes repeat the last frame): the
// windowed samples load straight into bit-reversed position, every
// butterfly, the split pass and the sqrt run across the frames in each
// frame's scalar operation order, and vector sqrt is correctly rounded.
// The scalar backend calls real_fft_magnitudes per frame.  The STFT runs
// its frames through this in fixed groups.
void real_fft_magnitudes_lanes(std::span<const std::span<const double>> frames,
                               std::span<const double> window, double scale,
                               std::span<const std::span<double>> mags);

// Magnitude spectrum of a real signal, zero-padded to the next power of two
// N: bins [0, N/2], scaled by 2/size so a unit-amplitude sinusoid at a bin
// centre reads ~1.0.
std::vector<double> magnitude_spectrum(std::span<const double> signal);

// Frequency (Hz) of bin k for an N-point FFT at the given sample rate.
double bin_frequency(std::size_t k, std::size_t n, double sample_rate);

// Smallest power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n);

// Pre-builds the memoized FFT plan (bit-reversal table and twiddles) for
// size next_pow2(n), so a latency-sensitive caller's first transform doesn't
// pay the one-time plan construction (stream sessions warm this at
// creation).  Warming the frame size warms what real_fft_magnitudes reads.
void warm_fft_plan(std::size_t n);

// Single-bin DFT (Goertzel algorithm): magnitude of the component at
// target_hz.  Cheaper than a full FFT when only a few bins are needed.
double goertzel(std::span<const double> signal, double target_hz, double sample_rate);

}  // namespace sb::dsp
