#include "dsp/features.hpp"

#include <cmath>
#include <stdexcept>

namespace sb::dsp {
namespace {

const std::array<FrequencyBand, kNumFreqGroups>& bands() {
  static const std::array<FrequencyBand, kNumFreqGroups> kBands{{
      {"blade_passing", 100.0, 900.0},
      {"mechanical", 2000.0, 3000.0},
      {"aerodynamic", 4500.0, 6000.0},
      {"other", 0.0, 0.0},  // everything not covered by the above
  }};
  return kBands;
}

}  // namespace

const FrequencyBand& band_of(FreqGroup group) {
  return bands()[static_cast<std::size_t>(group)];
}

void band_features_into(const Spectrogram& spec, const BandFeatureConfig& config,
                        std::span<double> out) {
  if (config.bands_per_frame == 0)
    throw std::invalid_argument{"band_features: bands_per_frame must be positive"};
  if (out.size() != spec.num_frames * config.bands_per_frame)
    throw std::invalid_argument{"band_features_into: output size mismatch"};
  if (spec.num_frames == 0) return;

  const double band_hz = config.cutoff_hz / static_cast<double>(config.bands_per_frame);
  for (std::size_t f = 0; f < spec.num_frames; ++f) {
    for (std::size_t b = 0; b < config.bands_per_frame; ++b) {
      const double lo = static_cast<double>(b) * band_hz;
      const double hi = lo + band_hz;
      auto k_lo = static_cast<std::size_t>(lo / spec.bin_hz);
      auto k_hi = static_cast<std::size_t>(hi / spec.bin_hz);
      k_hi = std::min(std::max(k_hi, k_lo + 1), spec.num_bins);
      k_lo = std::min(k_lo, spec.num_bins - 1);
      double s = 0.0;
      for (std::size_t k = k_lo; k < k_hi; ++k) s += spec.at(f, k);
      const double mean_mag = s / static_cast<double>(k_hi - k_lo);
      // Log magnitude with a floor: rotor tones sit orders of magnitude
      // apart from the noise floor, and downstream models need the dB-like
      // scale to see relative (percent-level) amplitude changes.
      out[f * config.bands_per_frame + b] = std::log(mean_mag + 1e-6);
    }
  }
}

FreqGroup group_of_band(std::size_t band, const BandFeatureConfig& config) {
  const double band_hz = config.cutoff_hz / static_cast<double>(config.bands_per_frame);
  const double center = (static_cast<double>(band) + 0.5) * band_hz;
  for (auto g : {FreqGroup::kBladePassing, FreqGroup::kMechanical,
                 FreqGroup::kAerodynamic}) {
    const auto& fb = band_of(g);
    if (center >= fb.lo_hz && center < fb.hi_hz) return g;
  }
  return FreqGroup::kOther;
}

}  // namespace sb::dsp
