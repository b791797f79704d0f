// Frequency-group definitions and banded feature extraction.
//
// The paper identifies three characteristic frequency groups in rotor noise
// (Fig. 2a): blade passing (~200 Hz), mechanical/ESC (~2.5 kHz) and
// aerodynamic (~5.5 kHz), and low-passes everything above 6 kHz so that
// ultrasonic IMU-injection attacks cannot reach the pipeline.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <string>

#include "dsp/spectrogram.hpp"

namespace sb::dsp {

struct FrequencyBand {
  std::string name;
  double lo_hz;
  double hi_hz;
};

enum class FreqGroup { kBladePassing = 0, kMechanical = 1, kAerodynamic = 2, kOther = 3 };

inline constexpr int kNumFreqGroups = 4;

// Canonical SoundBoost band layout; the pipeline cutoff is 6 kHz.
const FrequencyBand& band_of(FreqGroup group);
inline constexpr double kPipelineCutoffHz = 6000.0;

// Feature value of a silent band: log(0 + 1e-6).  Counterfactual band
// removal writes this (not 0.0) so "removed" means "silence", consistent
// with the log-magnitude feature scale.
inline constexpr double kSilenceFeature = -13.815510557964274;

// Per-frame banded log-magnitude features.  The spectrum below `cutoff_hz`
// is divided into `bands_per_frame` equal-width bands; each feature is
// log(mean magnitude in band + 1e-6).  These are the model inputs.
struct BandFeatureConfig {
  std::size_t bands_per_frame = 32;
  double cutoff_hz = kPipelineCutoffHz;
};

// Writes [num_frames x bands_per_frame] row-major features into
// caller-owned storage of exactly that size (throws on size mismatch).  The
// per-band bin sums stay strict ascending scalar accumulations — this
// routine is deliberately NOT vectorized, because reassociating the sums
// would perturb log-magnitude features that detection thresholds sit on.
void band_features_into(const Spectrogram& spec, const BandFeatureConfig& config,
                        std::span<double> out);

// Maps an equal-width feature band index to the frequency group containing
// its centre frequency, for counterfactual importance analysis (§IV-A).
FreqGroup group_of_band(std::size_t band, const BandFeatureConfig& config);

}  // namespace sb::dsp
