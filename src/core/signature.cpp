#include "core/signature.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "dsp/biquad.hpp"
#include "util/scratch.hpp"
#include "util/thread_pool.hpp"

namespace sb::core {

std::string signature_schema_tag() {
  // v2: real-input transform with sqrt(re² + im²) magnitudes (v1 ran an
  // n-point complex transform and took std::abs, which is hypot).
  return "sg2";
}

SignatureShape signature_shape(const SignatureConfig& config) {
  return {static_cast<std::size_t>(sensors::kNumMics), config.target_frames,
          config.bands.bands_per_frame};
}

std::vector<WindowSpan> window_grid(double settle, double stride,
                                    double window_seconds, double duration) {
  std::vector<WindowSpan> grid;
  if (stride <= 0.0 || window_seconds <= 0.0) return grid;
  for (double t0 = settle; t0 + window_seconds <= duration; t0 += stride)
    grid.push_back({t0, t0 + window_seconds});
  return grid;
}

acoustics::AudioView recording_window(acoustics::AudioView recording, double t0,
                                      double seconds) {
  const double fs = recording.sample_rate;
  const auto begin = static_cast<std::size_t>(std::llround(std::max(t0, 0.0) * fs));
  const auto n = static_cast<std::size_t>(std::llround(seconds * fs));
  if (begin + n > recording.num_samples()) return {};
  return recording.slice(begin, n);
}

ml::Tensor compute_signature(acoustics::AudioView audio,
                             const SignatureConfig& config) {
  const std::size_t n = audio.num_samples();
  if (n < config.frame_size)
    throw std::invalid_argument{"compute_signature: window shorter than one frame"};

  // Stretch the hop so any capture length yields target_frames frames.
  const std::size_t span = n - config.frame_size;
  const std::size_t hop =
      std::max<std::size_t>(1, span / std::max<std::size_t>(config.target_frames - 1, 1));

  dsp::StftConfig stft_cfg;
  stft_cfg.frame_size = config.frame_size;
  stft_cfg.hop_size = hop;
  stft_cfg.sample_rate = audio.sample_rate;

  const auto shape = signature_shape(config);
  ml::Tensor out({1, shape.channels, shape.frames, shape.bands});

  // 6 kHz anti-spoofing low-pass before analysis, every channel in one pass
  // (lane = mic on the vector backend).  Filtered samples and band features
  // live in workspace scratch (fully overwritten below), so the per-window
  // signature path stays off the heap in steady state.
  static_assert(sensors::kNumMics == dsp::kLaneChannels);
  util::Scratch<double> filtered{sensors::kNumMics * n};
  std::array<std::span<double>, sensors::kNumMics> channel;
  for (std::size_t ci = 0; ci < channel.size(); ++ci)
    channel[ci] = filtered.span().subspan(ci * n, n);
  dsp::BiquadCascade::low_pass(config.lowpass_hz, audio.sample_rate,
                               config.lowpass_sections)
      .process_channels_into(audio.channels, channel);

  // Channels are analysed independently and fill disjoint slices of the
  // output tensor.
  util::parallel_for(channel.size(), [&](std::size_t ci) {
    const auto spec = dsp::stft(channel[ci], stft_cfg);
    util::Scratch<double> feats{spec.num_frames * config.bands.bands_per_frame};
    dsp::band_features_into(spec, config.bands, feats.span());
    const std::size_t frames = std::min<std::size_t>(spec.num_frames, shape.frames);
    for (std::size_t f = 0; f < frames; ++f)
      for (std::size_t b = 0; b < shape.bands; ++b)
        out[(ci * shape.frames + f) * shape.bands + b] =
            static_cast<float>(feats[f * config.bands.bands_per_frame + b]);
    // If the STFT produced fewer frames than the target (rounding), repeat
    // the last frame so the grid is always dense.
    for (std::size_t f = frames; f < shape.frames && frames > 0; ++f)
      for (std::size_t b = 0; b < shape.bands; ++b)
        out[(ci * shape.frames + f) * shape.bands + b] =
            out[(ci * shape.frames + frames - 1) * shape.bands + b];
  }, 1);
  return out;
}

}  // namespace sb::core
