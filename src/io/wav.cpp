#include "io/wav.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "util/binary_io.hpp"

namespace sb::io {

using util::io::write_pod;

bool write_wav(const std::string& path, const WavData& data) {
  if (data.channels.empty() || data.num_samples() == 0) return false;
  for (const auto& ch : data.channels)
    if (ch.size() != data.num_samples()) return false;

  std::ofstream os{path, std::ios::binary};
  if (!os) return false;

  const auto channels = static_cast<std::uint16_t>(data.num_channels());
  const auto rate = static_cast<std::uint32_t>(data.sample_rate);
  const std::uint32_t data_bytes =
      static_cast<std::uint32_t>(data.num_samples() * channels * 2);

  os.write("RIFF", 4);
  write_pod<std::uint32_t>(os, 36 + data_bytes);
  os.write("WAVE", 4);
  os.write("fmt ", 4);
  write_pod<std::uint32_t>(os, 16);           // fmt chunk size
  write_pod<std::uint16_t>(os, 1);            // PCM
  write_pod<std::uint16_t>(os, channels);
  write_pod<std::uint32_t>(os, rate);
  write_pod<std::uint32_t>(os, rate * channels * 2);  // byte rate
  write_pod<std::uint16_t>(os, static_cast<std::uint16_t>(channels * 2));
  write_pod<std::uint16_t>(os, 16);           // bits per sample
  os.write("data", 4);
  write_pod<std::uint32_t>(os, data_bytes);

  for (std::size_t i = 0; i < data.num_samples(); ++i)
    for (std::size_t c = 0; c < data.num_channels(); ++c) {
      const double x = std::clamp(data.channels[c][i], -1.0, 1.0);
      write_pod<std::int16_t>(os, static_cast<std::int16_t>(std::lround(x * 32767.0)));
    }
  return static_cast<bool>(os);
}

bool write_wav(const std::string& path, const acoustics::MultiChannelAudio& audio,
               double gain) {
  WavData data;
  data.sample_rate = audio.sample_rate;
  for (const auto& ch : audio.channels) {
    std::vector<double> scaled(ch.size());
    for (std::size_t i = 0; i < ch.size(); ++i) scaled[i] = ch[i] * gain;
    data.channels.push_back(std::move(scaled));
  }
  return write_wav(path, data);
}

}  // namespace sb::io
