// Sound propagation: mixes per-rotor source signals into per-microphone
// channels using the fixed on-frame geometry (gain + TDoA delay per
// mic/rotor pair), and models external interferers for the adversarial
// experiments (§IV-D).
#pragma once

#include <array>
#include <span>
#include <vector>

#include "acoustics/gaussian.hpp"
#include "sensors/mic_array.hpp"

namespace sb::acoustics {

struct MultiChannelAudio {
  double sample_rate = sensors::kMicSampleRate;
  std::array<std::vector<double>, sensors::kNumMics> channels;

  std::size_t num_samples() const { return channels[0].size(); }
};

// Non-owning view of a recording or of a slice of one: the sample rate plus
// one span per channel, all the same length.  Built implicitly from a
// MultiChannelAudio, so analysis windows of a flight's one recording are
// read in place instead of copied.  The viewed audio must outlive the view.
struct AudioView {
  double sample_rate = sensors::kMicSampleRate;
  std::array<std::span<const double>, sensors::kNumMics> channels;

  AudioView() = default;
  AudioView(const MultiChannelAudio& audio);  // NOLINT(google-explicit-constructor)

  std::size_t num_samples() const { return channels[0].size(); }
  // Samples [begin, begin + n) of every channel; the range must lie inside
  // the view.
  AudioView slice(std::size_t begin, std::size_t n) const;
  // Owning copy, for transforms that mutate audio.
  MultiChannelAudio copy() const;
};

// Ground-effect reflection (image-source approximation, environment
// profiles): every direct mic/rotor tap gains ONE reflected sibling delayed
// by `delay_samples` and scaled by `gain_scale` relative to the direct tap.
// gain_scale == 0 disables the tap entirely — synthesis is then bitwise
// identical to the no-reflection path.
struct GroundReflection {
  double gain_scale = 0.0;
  std::size_t delay_samples = 0;
};

// Body-frame air velocity held over a run of output samples: a segment
// covers [begin, next segment's begin), the last one to the end of the
// block, and the first begins at 0 (mix_block throws std::invalid_argument
// otherwise).  The synthesizer emits one per physics step (400 Hz), so
// airflow is computed once per step rather than once per audio sample.
struct FlowSegment {
  std::size_t begin = 0;
  Vec3 v;
};

// Mixes one block of rotor streams into the microphone channels: out[m]
// (all the same length n) is overwritten with the superposition of every
// rotor stream at its mic gain and TDoA delay, plus ambient noise drawn
// from that channel's own generator.  Each rotor stream holds n + lead
// samples; output sample k reads stream sample k + lead - delay, so `lead`
// must cover the largest delay including the ground-reflection tap (the
// caller validates this).  Channels mix in parallel and each draws only its
// own noise stream, so the result is the same at any thread count.  The
// vector backend mixes each channel in one pass with lanes across output
// samples (a flow segment's samples past its last full vector take a scalar
// tail); the scalar backend adds one tap at a time over the whole channel.
// Both keep each element's order — +0, then per rotor the direct tap and
// the reflected tap, then the ambient draw — so they agree bit for bit.
//
// `flow` (optional) models airflow directivity: rotor turbulence noise
// convects downwind, so the gain of rotor r at mic m is scaled by
// max(1 + directivity * (v_body . dir[m][r]), 0.1).  This per-channel
// anisotropy is what lets the learned model recover the horizontal motion
// state.  The reflected tap arrives off the ground, diffuse, and is not
// flow-modulated.
void mix_block(std::span<const std::span<double>> out,
               std::span<const std::span<const double>> rotor_streams,
               std::size_t lead_samples, const sensors::MicGeometry& geometry,
               double sample_rate, double ambient_noise,
               std::span<GaussianNoise> mic_noise,
               std::span<const FlowSegment> flow, double directivity,
               const GroundReflection& ground);

// Adds an external interfering source (replay speaker / second UAV) at the
// given body-frame position.  The interferer couples into every mic with
// 1/(1+r/r0) attenuation from its distance — at >=0.5 m it arrives far
// weaker than the on-frame rotors (the paper measured 46% intensity at
// 0.5 m; our near-field law gives the same order).
void add_external_source(MultiChannelAudio& audio, std::span<const double> source,
                         const Vec3& source_pos_body,
                         const sensors::MicGeometry& geometry);

// Free-field attenuation factor used for external sources.
double external_attenuation(double distance_m);

}  // namespace sb::acoustics
