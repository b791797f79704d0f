#include "io/wav.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>

#include "util/binary_io.hpp"

namespace sb::io {

using util::io::read_pod;
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

bool read_wav(const std::string& path, WavData& out) {
  std::ifstream is{path, std::ios::binary};
  if (!is) return false;

  // Every declared chunk size is checked against the bytes actually left in
  // the file before it is trusted, so a truncated or hostile header can
  // neither seek backwards nor drive a multi-gigabyte allocation.
  char tag[5] = {};
  is.read(tag, 4);
  if (!is || std::strncmp(tag, "RIFF", 4) != 0) return false;
  std::uint32_t riff_size = 0;
  if (!read_pod(is, riff_size)) return false;
  is.read(tag, 4);
  if (!is || std::strncmp(tag, "WAVE", 4) != 0) return false;

  std::uint16_t channels = 0, bits = 0;
  std::uint32_t rate = 0;
  bool have_fmt = false;

  while (is.read(tag, 4)) {
    std::uint32_t chunk_size = 0;
    if (!read_pod(is, chunk_size)) return false;
    if (chunk_size > util::io::bytes_left(is)) return false;
    if (std::strncmp(tag, "fmt ", 4) == 0) {
      // The PCM fmt payload is 16 bytes; a smaller declaration would make
      // the skip below seek backwards into the chunk header.
      if (chunk_size < 16) return false;
      std::uint16_t format = 0, block_align = 0;
      std::uint32_t byte_rate = 0;
      if (!read_pod(is, format) || !read_pod(is, channels) || !read_pod(is, rate) ||
          !read_pod(is, byte_rate) || !read_pod(is, block_align) ||
          !read_pod(is, bits))
        return false;
      if (format != 1 || bits != 16 || channels == 0) return false;
      is.seekg(chunk_size - 16, std::ios::cur);
      have_fmt = true;
    } else if (std::strncmp(tag, "data", 4) == 0) {
      if (!have_fmt) return false;
      const std::size_t frames = chunk_size / (channels * 2u);
      out.sample_rate = rate;
      out.channels.assign(channels, std::vector<double>(frames));
      for (std::size_t i = 0; i < frames; ++i)
        for (std::size_t c = 0; c < channels; ++c) {
          std::int16_t sample = 0;
          if (!read_pod(is, sample)) return false;
          out.channels[c][i] = static_cast<double>(sample) / 32767.0;
        }
      return true;
    } else {
      is.seekg(chunk_size + (chunk_size & 1u), std::ios::cur);
    }
  }
  return false;
}

}  // namespace sb::io
