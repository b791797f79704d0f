// Radix-2 FFT and helpers.  Used by signature generation (spectrograms,
// band energies) and by the acoustics benches (Fig. 2 spectrum).
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace sb::dsp {

// In-place iterative radix-2 Cooley–Tukey forward transform.  data.size()
// must be a power of two (throws std::invalid_argument otherwise).  One
// implementation serves both precisions: the float one is the
// SB_PRECISION=fast serving path (DESIGN.md "Inference plan").  Both read
// the same memoized per-size plan, whose float twiddles are its double
// twiddles rounded once, so the float transform loses only the butterfly
// arithmetic's precision.  The scalar and vector butterflies are
// bitwise-identical in each precision (pinned by simd_test).
void fft(std::span<std::complex<double>> data);
void fft(std::span<std::complex<float>> data);

// Magnitude spectrum of a real signal, zero-padded to the next power of two
// N: bins [0, N/2], scaled by 2/size so a unit-amplitude sinusoid at a bin
// centre reads ~1.0.
std::vector<double> magnitude_spectrum(std::span<const double> signal);

// Frequency (Hz) of bin k for an N-point FFT at the given sample rate.
double bin_frequency(std::size_t k, std::size_t n, double sample_rate);

// Smallest power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n);

// Pre-builds the memoized FFT plan (bit-reversal table and the twiddles of
// both precisions) for size next_pow2(n), so a latency-sensitive caller's
// first transform doesn't pay the one-time plan construction (stream
// sessions warm this at creation).
void warm_fft_plan(std::size_t n);

// Single-bin DFT (Goertzel algorithm): magnitude of the component at
// target_hz.  Cheaper than a full FFT when only a few bins are needed.
double goertzel(std::span<const double> signal, double target_hz, double sample_rate);

}  // namespace sb::dsp
