#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "dsp/biquad.hpp"
#include "dsp/features.hpp"
#include "dsp/fft.hpp"
#include "dsp/spectrogram.hpp"
#include "dsp/window.hpp"
#include "obs/metrics.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace sb::dsp {
namespace {

struct SimdBackendGuard {
  util::SimdBackend saved = util::simd_backend();
  explicit SimdBackendGuard(util::SimdBackend b) { util::set_simd_backend(b); }
  ~SimdBackendGuard() { util::set_simd_backend(saved); }
};

std::vector<double> sine(double freq, double fs, std::size_t n, double amp = 1.0) {
  std::vector<double> s(n);
  for (std::size_t i = 0; i < n; ++i)
    s[i] = amp * std::sin(2.0 * std::numbers::pi * freq * static_cast<double>(i) / fs);
  return s;
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<std::complex<double>> data(100);
  EXPECT_THROW(fft(data), std::invalid_argument);
  std::vector<double> frame(100), mags(51);
  EXPECT_THROW(real_fft_magnitudes(frame, {}, 1.0, mags), std::invalid_argument);
  const std::span<const double> frames[] = {frame};
  const std::span<double> rows[] = {mags};
  EXPECT_THROW(real_fft_magnitudes_lanes(frames, frame, 1.0, rows),
               std::invalid_argument);
}

// The lanes kernel checks its group on both backends: 1 to kDoubleLanes
// frames of one size, a window of that size and one n/2 + 1 mags row per
// frame.
TEST(Fft, LanesRejectMismatchedShapes) {
  for (const auto backend : {util::SimdBackend::kVector, util::SimdBackend::kScalar}) {
    SimdBackendGuard guard{backend};
    std::vector<double> a(64, 1.0), b(32, 1.0), mags_a(33), mags_b(33);
    const std::vector<double> window(64, 1.0);
    const std::span<const double> one[] = {a};
    const std::span<double> one_row[] = {mags_a};
    EXPECT_NO_THROW(real_fft_magnitudes_lanes(one, window, 1.0, one_row));
    EXPECT_THROW(real_fft_magnitudes_lanes(one, {}, 1.0, one_row),
                 std::invalid_argument);
    EXPECT_THROW(real_fft_magnitudes_lanes(one, b, 1.0, one_row),
                 std::invalid_argument);
    const std::span<double> short_row[] = {std::span{mags_a}.first(32)};
    EXPECT_THROW(real_fft_magnitudes_lanes(one, window, 1.0, short_row),
                 std::invalid_argument);
    EXPECT_THROW(real_fft_magnitudes_lanes({}, window, 1.0, {}),
                 std::invalid_argument);
    const std::span<const double> mixed[] = {a, b};
    const std::span<double> two_rows[] = {mags_a, mags_b};
    EXPECT_THROW(real_fft_magnitudes_lanes(mixed, window, 1.0, two_rows),
                 std::invalid_argument);
    EXPECT_THROW(real_fft_magnitudes_lanes(mixed, window, 1.0, one_row),
                 std::invalid_argument);
    std::vector<std::span<const double>> too_many(util::simd::kDoubleLanes + 1, a);
    std::vector<std::span<double>> rows(too_many.size(), mags_a);
    EXPECT_THROW(real_fft_magnitudes_lanes(too_many, window, 1.0, rows),
                 std::invalid_argument);
  }
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<std::complex<double>> data(64);
  data[0] = 1.0;
  fft(data);
  for (const auto& x : data) EXPECT_NEAR(std::abs(x), 1.0, 1e-12);
}

// The O(n²) definition X_k = sum_j x_j exp(-2πi jk/n), in long double.
std::vector<std::complex<double>> dft(const std::vector<std::complex<double>>& x) {
  using C = std::complex<long double>;
  const std::size_t n = x.size();
  std::vector<C> w(n);
  for (std::size_t m = 0; m < n; ++m)
    w[m] = std::polar(1.0L, -2.0L * std::numbers::pi_v<long double> *
                                static_cast<long double>(m) /
                                static_cast<long double>(n));
  std::vector<std::complex<double>> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    C s = 0;
    for (std::size_t j = 0; j < n; ++j) s += C(x[j]) * w[j * k % n];
    out[k] = std::complex<double>(s);
  }
  return out;
}

void expect_matches_dft(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<std::complex<double>> data(n);
  for (auto& x : data) x = {rng.normal(), rng.normal()};
  const auto expected = dft(data);
  fft(data);
  for (std::size_t k = 0; k < n; ++k)
    EXPECT_NEAR(std::abs(data[k] - expected[k]), 0.0, 1e-8) << "bin " << k;
}

// The real-input routine against the DFT of a real frame, windowed and
// scaled: |X_k|·scale for k = 0…n/2.
void expect_real_matches_dft(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<double> x(n), win(n);
  for (auto& v : x) v = rng.normal();
  for (auto& v : win) v = rng.uniform();
  std::vector<std::complex<double>> windowed(n);
  for (std::size_t j = 0; j < n; ++j) windowed[j] = x[j] * win[j];
  const auto expected = dft(windowed);
  constexpr double kScale = 0.75;
  std::vector<double> mags(n / 2 + 1);
  real_fft_magnitudes(x, win, kScale, mags);
  for (std::size_t k = 0; k <= n / 2; ++k)
    EXPECT_NEAR(mags[k], std::abs(expected[k]) * kScale, 1e-8) << "bin " << k;
  // No window: the frame itself.
  for (std::size_t j = 0; j < n; ++j) windowed[j] = x[j];
  const auto plain = dft(windowed);
  real_fft_magnitudes(x, {}, 1.0, mags);
  for (std::size_t k = 0; k <= n / 2; ++k)
    EXPECT_NEAR(mags[k], std::abs(plain[k]), 1e-8) << "unwindowed bin " << k;
}

TEST(Fft, MatchesDftDefinition) { expect_matches_dft(128, 3); }

TEST(Fft, ParsevalHolds) {
  Rng rng{4};
  std::vector<std::complex<double>> data(256);
  double time_energy = 0.0;
  for (auto& x : data) {
    x = {rng.normal(), 0.0};
    time_energy += std::norm(x);
  }
  fft(data);
  double freq_energy = 0.0;
  for (const auto& x : data) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / 256.0, time_energy, 1e-6 * time_energy);
}

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(Fft, MagnitudeSpectrumFindsTone) {
  const double fs = 16000.0;
  const auto s = sine(1000.0, fs, 1024, 2.0);
  const auto mags = magnitude_spectrum(s);
  std::size_t peak = 0;
  for (std::size_t k = 1; k < mags.size(); ++k)
    if (mags[k] > mags[peak]) peak = k;
  EXPECT_NEAR(bin_frequency(peak, 1024, fs), 1000.0, fs / 1024.0);
  EXPECT_NEAR(mags[peak], 2.0, 0.3);
}

TEST(Fft, GoertzelMatchesFftAtBin) {
  const double fs = 16000.0;
  // Bin-centred frequency so there is no leakage.
  const double f = 32.0 * fs / 1024.0;
  const auto s = sine(f, fs, 1024, 1.5);
  EXPECT_NEAR(goertzel(s, f, fs), 1.5, 0.05);
  EXPECT_NEAR(goertzel(s, f * 2, fs), 0.0, 0.05);
}

// Pins the front end's output bits: the forward transform of fixed random
// inputs at n = 1...8192, the STFT magnitudes and magnitude_spectrum, each
// computed under both SIMD backends.  Every signature, and so every model
// input and verdict, is built from these bits.
TEST(Fft, OutputBitsArePinned) {
  struct Crcs {
    std::uint32_t fft64 = 0, stft = 0, spectrum = 0;
  };
  const auto run = [](util::SimdBackend backend) {
    SimdBackendGuard guard{backend};
    Crcs c;
    Rng rng{1616};
    for (std::size_t n = 1; n <= 8192; n <<= 1) {
      std::vector<std::complex<double>> d(n);
      for (std::size_t i = 0; i < n; ++i) {
        d[i] = {rng.normal(), rng.normal()};
        // Two more draws per element keep the draw sequence, and so the
        // inputs, that fft64 was pinned with.
        (void)rng.normal();
        (void)rng.normal();
      }
      fft(d);
      c.fft64 = util::crc32(d.data(), n * sizeof d[0], c.fft64);
    }
    auto s = sine(2500.0, 16000.0, 8000);
    for (auto& v : s) v += rng.normal(0.0, 0.3);
    StftConfig cfg;
    cfg.hop_size = 437;  // a stretched signature hop, not a divisor
    const auto spec = stft(s, cfg);
    c.stft = util::crc32(spec.mags.data(), spec.mags.size() * sizeof(double));
    const auto mags = magnitude_spectrum(std::span{s}.first(1000));
    c.spectrum = util::crc32(mags.data(), mags.size() * sizeof(double));
    return c;
  };
  for (const auto backend :
       {util::SimdBackend::kVector, util::SimdBackend::kScalar}) {
    SCOPED_TRACE(backend == util::SimdBackend::kVector ? "vector" : "scalar");
    const Crcs c = run(backend);
    EXPECT_EQ(c.fft64, 0x021175aau);
    EXPECT_EQ(c.stft, 0xeb3aaf50u);
    EXPECT_EQ(c.spectrum, 0x0632417eu);
  }
}

TEST(Fft, PlanCacheHitsOnWarmSize) {
  auto& hits = sb::obs::Registry::instance().counter("fft.plan_hits");
  // The first transform builds (or reuses) the 512-point plan.  Every later
  // transform must be exactly one cache hit: a rebuild per call would defeat
  // the cache, and a second lookup would double perfbench's
  // dsp.fft_calls_per_window.
  std::vector<std::complex<double>> a(512, {1.0, 0.0});
  fft(a);
  auto before = hits.value();
  fft(a);
  EXPECT_EQ(hits.value(), before + 1);
  // A real 1024-sample frame runs a 512-point transform off the 1024-point
  // plan: one lookup per frame, so an STFT of F frames is F hits.
  std::vector<double> frame(1024, 0.25), mags(513);
  real_fft_magnitudes(frame, {}, 1.0, mags);
  before = hits.value();
  real_fft_magnitudes(frame, {}, 1.0, mags);
  EXPECT_EQ(hits.value(), before + 1);
  StftConfig cfg;  // 1024-sample frames
  std::vector<double> signal(1024 + 3 * cfg.hop_size, 0.25);
  before = hits.value();
  const auto spec = stft(signal, cfg);
  EXPECT_EQ(spec.num_frames, 4u);
  EXPECT_EQ(hits.value(), before + spec.num_frames);
}

TEST(Window, HannEndpointsAndPeak) {
  const auto w = hann_window(64);
  EXPECT_NEAR(w.front(), 0.0, 1e-12);
  EXPECT_NEAR(w.back(), 0.0, 1e-12);
  EXPECT_NEAR(w[32], 1.0, 0.01);
}

TEST(Window, SumMatchesApplied) {
  // The symmetric Hann window of length n sums to (n - 1)/2.
  const auto w = hann_window(128);
  EXPECT_NEAR(window_sum(w), 0.5 * 127, 1e-9);
}

TEST(Stft, FrameCount) {
  StftConfig cfg;
  cfg.frame_size = 256;
  cfg.hop_size = 128;
  std::vector<double> signal(1024, 0.0);
  const auto spec = stft(signal, cfg);
  EXPECT_EQ(spec.num_frames, (1024 - 256) / 128 + 1);
  EXPECT_EQ(spec.num_bins, 129u);
}

TEST(Stft, ShortSignalYieldsNoFrames) {
  StftConfig cfg;
  cfg.frame_size = 256;
  std::vector<double> signal(100, 0.0);
  EXPECT_EQ(stft(signal, cfg).num_frames, 0u);
}

TEST(Stft, RequiresPowerOfTwoFrame) {
  StftConfig cfg;
  cfg.frame_size = 300;
  std::vector<double> signal(1024, 0.0);
  EXPECT_THROW(stft(signal, cfg), std::invalid_argument);
}

TEST(Stft, ToneAppearsInCorrectBand) {
  StftConfig cfg;
  cfg.frame_size = 1024;
  cfg.hop_size = 512;
  cfg.sample_rate = 16000.0;
  const auto s = sine(2500.0, cfg.sample_rate, 8000, 1.0);
  const auto spec = stft(s, cfg);
  const auto band = band_amplitude_over_time(spec, 2400.0, 2600.0);
  const auto off_band = band_amplitude_over_time(spec, 5000.0, 5200.0);
  ASSERT_FALSE(band.empty());
  EXPECT_GT(band[0], 10.0 * (off_band[0] + 1e-9));
}

TEST(Stft, AmplitudeTracksToneLevel) {
  StftConfig cfg;
  cfg.frame_size = 1024;
  cfg.hop_size = 512;
  cfg.sample_rate = 16000.0;
  auto quiet = sine(1000.0, cfg.sample_rate, 4096, 0.5);
  auto loud = sine(1000.0, cfg.sample_rate, 4096, 1.5);
  const auto bq = band_amplitude_over_time(stft(quiet, cfg), 900, 1100);
  const auto bl = band_amplitude_over_time(stft(loud, cfg), 900, 1100);
  EXPECT_NEAR(bl[0] / bq[0], 3.0, 0.2);
}

TEST(Biquad, LowPassAttenuatesHighFrequency) {
  Biquad lp = Biquad::low_pass(1000.0, 16000.0);
  EXPECT_NEAR(lp.magnitude_at(100.0, 16000.0), 1.0, 0.05);
  EXPECT_LT(lp.magnitude_at(6000.0, 16000.0), 0.05);
}

TEST(Biquad, BandPassPeaksAtCenter) {
  Biquad bp = Biquad::band_pass(2500.0, 16000.0, 3.0);
  const double at_center = bp.magnitude_at(2500.0, 16000.0);
  EXPECT_GT(at_center, bp.magnitude_at(1000.0, 16000.0) * 5.0);
  EXPECT_GT(at_center, bp.magnitude_at(5000.0, 16000.0) * 5.0);
}

TEST(Biquad, TimeDomainMatchesMagnitudeResponse) {
  Biquad lp = Biquad::low_pass(2000.0, 16000.0);
  const auto s = sine(5500.0, 16000.0, 4000);
  std::vector<double> y(s.size());
  lp.process_into(s, y);
  // Steady-state amplitude after the transient.
  double peak = 0.0;
  for (std::size_t i = 2000; i < y.size(); ++i) peak = std::max(peak, std::abs(y[i]));
  EXPECT_NEAR(peak, lp.magnitude_at(5500.0, 16000.0), 0.02);
}

TEST(Biquad, ResetClearsState) {
  Biquad lp = Biquad::low_pass(2000.0, 16000.0);
  lp.process(1.0);
  lp.process(1.0);
  lp.reset();
  Biquad fresh = Biquad::low_pass(2000.0, 16000.0);
  EXPECT_DOUBLE_EQ(lp.process(0.5), fresh.process(0.5));
}

TEST(BiquadCascade, SteeperThanSingleSection) {
  Biquad one = Biquad::low_pass(1000.0, 16000.0);
  BiquadCascade two = BiquadCascade::low_pass(1000.0, 16000.0, 2);
  const auto s = sine(4000.0, 16000.0, 4000);
  std::vector<double> y1(s.size()), y2(s.size());
  one.process_into(s, y1);
  two.process_into(s, y2);
  double p1 = 0.0, p2 = 0.0;
  for (std::size_t i = 2000; i < s.size(); ++i) {
    p1 = std::max(p1, std::abs(y1[i]));
    p2 = std::max(p2, std::abs(y2[i]));
  }
  EXPECT_LT(p2, p1 * 0.5);
}

// Pins the double output bits of the two filters the audio path runs: the
// rotor renderer's aerodynamic band-pass and the signature front end's
// 2-section 6 kHz low-pass, the latter through the one-channel loop and
// the four-channel pass.  Signature.OutputBitsArePinned hashes float32
// features, so it cannot see a last-bit change here.
TEST(Biquad, OutputBitsArePinned) {
  Rng rng{5250};
  std::array<std::vector<double>, kLaneChannels> in;
  for (auto& ch : in) {
    ch.resize(1000);  // ends mid-way through the four-channel pass's block
    for (double& x : ch) x = rng.normal();
  }
  for (const auto backend :
       {util::SimdBackend::kVector, util::SimdBackend::kScalar}) {
    SCOPED_TRACE(backend == util::SimdBackend::kVector ? "vector" : "scalar");
    SimdBackendGuard guard{backend};
    Biquad aero = Biquad::band_pass(5250.0, 16000.0, 3.0);
    std::uint32_t crc = 0;
    for (const auto& ch : in) {
      std::vector<double> y(ch.size());
      aero.process_into(ch, y);
      crc = util::crc32(y.data(), y.size() * sizeof(double), crc);
    }
    EXPECT_EQ(crc, 0xb1f15e30u);

    const BiquadCascade low_pass = BiquadCascade::low_pass(6000.0, 16000.0, 2);
    std::array<std::vector<double>, kLaneChannels> out;
    std::uint32_t one_channel = 0;
    for (std::size_t c = 0; c < kLaneChannels; ++c) {
      BiquadCascade lane = low_pass;
      out[c].resize(in[c].size());
      lane.process_into(in[c], out[c]);
      one_channel = util::crc32(out[c].data(), out[c].size() * sizeof(double),
                                one_channel);
    }
    std::array<std::span<const double>, kLaneChannels> in_views;
    std::array<std::span<double>, kLaneChannels> out_views;
    for (std::size_t c = 0; c < kLaneChannels; ++c) {
      in_views[c] = in[c];
      std::fill(out[c].begin(), out[c].end(), std::nan(""));
      out_views[c] = out[c];
    }
    low_pass.process_channels_into(in_views, out_views);
    std::uint32_t four_channel = 0;
    for (const auto& ch : out)
      four_channel = util::crc32(ch.data(), ch.size() * sizeof(double), four_channel);
    EXPECT_EQ(one_channel, 0x89e22c31u);
    EXPECT_EQ(four_channel, 0x89e22c31u);
  }
}

TEST(Features, GroupBandsCoverExpectedFrequencies) {
  BandFeatureConfig cfg;  // 32 bands to 6 kHz -> 187.5 Hz per band
  // 200 Hz -> band 1 -> blade passing.
  EXPECT_EQ(group_of_band(1, cfg), FreqGroup::kBladePassing);
  // 2500 Hz -> band 13 -> mechanical.
  EXPECT_EQ(group_of_band(13, cfg), FreqGroup::kMechanical);
  // 5500 Hz -> band 29 -> aerodynamic.
  EXPECT_EQ(group_of_band(29, cfg), FreqGroup::kAerodynamic);
  // 3800 Hz -> none of the named groups.
  EXPECT_EQ(group_of_band(20, cfg), FreqGroup::kOther);
}

TEST(Features, BandFeatureLayout) {
  StftConfig scfg;
  scfg.frame_size = 1024;
  scfg.hop_size = 512;
  const auto s = sine(2500.0, 16000.0, 4096);
  const auto spec = stft(s, scfg);
  BandFeatureConfig cfg;
  std::vector<double> feats(spec.num_frames * cfg.bands_per_frame);
  band_features_into(spec, cfg, feats);
  EXPECT_GT(spec.num_frames, 1u);
  EXPECT_THROW(band_features_into(spec, cfg, std::span{feats}.first(feats.size() - 1)),
               std::invalid_argument);
}

TEST(Features, ToneRaisesItsBandOnly) {
  StftConfig scfg;
  scfg.frame_size = 1024;
  scfg.hop_size = 512;
  const auto s = sine(2500.0, 16000.0, 4096, 1.0);
  const auto spec = stft(s, scfg);
  BandFeatureConfig cfg;
  std::vector<double> feats(spec.num_frames * cfg.bands_per_frame);
  band_features_into(spec, cfg, feats);
  // Band 13 holds 2500 Hz; band 5 holds ~1 kHz.
  EXPECT_GT(feats[13], feats[5] + 3.0);  // log scale: >3 nats apart
}

TEST(Features, PipelineCutoffIs6kHz) { EXPECT_DOUBLE_EQ(kPipelineCutoffHz, 6000.0); }

class FftSizeSweep : public ::testing::TestWithParam<std::size_t> {};

// Property: the FFT and the real-input routine compute the DFT definition
// at every power-of-two size.
TEST_P(FftSizeSweep, MatchesDftAtAllSizes) {
  expect_matches_dft(GetParam(), GetParam());
  expect_real_matches_dft(GetParam(), GetParam() + 1);
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftSizeSweep,
                         ::testing::Values(2, 8, 64, 512, 4096, 1));

class ToneFrequencySweep : public ::testing::TestWithParam<double> {};

// Property: the magnitude spectrum localizes a tone at any in-band
// frequency to within one bin.
TEST_P(ToneFrequencySweep, PeakWithinOneBin) {
  const double f = GetParam();
  const double fs = 16000.0;
  const auto s = sine(f, fs, 4096);
  const auto mags = magnitude_spectrum(s);
  std::size_t peak = 1;
  for (std::size_t k = 1; k < mags.size(); ++k)
    if (mags[k] > mags[peak]) peak = k;
  EXPECT_NEAR(bin_frequency(peak, 4096, fs), f, fs / 4096.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AcrossBand, ToneFrequencySweep,
                         ::testing::Values(200.0, 1000.0, 2500.0, 5500.0, 7000.0));

class LowPassCutoffSweep : public ::testing::TestWithParam<double> {};

// Property: any RBJ low-pass passes DC and attenuates 4x its cutoff.
TEST_P(LowPassCutoffSweep, PassbandAndStopband) {
  const double cutoff = GetParam();
  Biquad lp = Biquad::low_pass(cutoff, 16000.0);
  EXPECT_NEAR(lp.magnitude_at(cutoff / 20.0, 16000.0), 1.0, 0.05);
  EXPECT_LT(lp.magnitude_at(std::min(cutoff * 4.0, 7900.0), 16000.0), 0.3);
}

INSTANTIATE_TEST_SUITE_P(Cutoffs, LowPassCutoffSweep,
                         ::testing::Values(250.0, 1000.0, 1900.0));

}  // namespace
}  // namespace sb::dsp
