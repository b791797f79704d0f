// Minimal RIFF/WAVE export (16-bit PCM), so synthesized microphone
// recordings can be written out for listening and inspection.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "acoustics/propagation.hpp"

namespace sb::io {

struct WavData {
  double sample_rate = 16000.0;
  // channels[c][i]: normalized samples in [-1, 1].
  std::vector<std::vector<double>> channels;

  std::size_t num_samples() const { return channels.empty() ? 0 : channels[0].size(); }
  std::size_t num_channels() const { return channels.size(); }
};

// Writes interleaved 16-bit PCM.  Samples are clipped to [-1, 1].
// Returns false on I/O failure or empty input.
bool write_wav(const std::string& path, const WavData& data);

// Convenience: export a microphone-array recording (scaled by `gain`).
bool write_wav(const std::string& path, const acoustics::MultiChannelAudio& audio,
               double gain = 1.0);

}  // namespace sb::io
