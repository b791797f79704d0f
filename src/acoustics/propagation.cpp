#include "acoustics/propagation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/scratch.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace sb::acoustics {

AudioView::AudioView(const MultiChannelAudio& audio) : sample_rate(audio.sample_rate) {
  for (std::size_t c = 0; c < sensors::kNumMics; ++c) channels[c] = audio.channels[c];
}

AudioView AudioView::slice(std::size_t begin, std::size_t n) const {
  AudioView out;
  out.sample_rate = sample_rate;
  for (std::size_t c = 0; c < sensors::kNumMics; ++c)
    out.channels[c] = channels[c].subspan(begin, n);
  return out;
}

MultiChannelAudio AudioView::copy() const {
  MultiChannelAudio out;
  out.sample_rate = sample_rate;
  for (std::size_t c = 0; c < sensors::kNumMics; ++c)
    out.channels[c].assign(channels[c].begin(), channels[c].end());
  return out;
}

namespace {

namespace simd = util::simd;
using simd::VDouble;
constexpr std::size_t kLanes = simd::kDoubleLanes;

// The direct gain of rotor r at mic m over one flow segment: the pair's
// gain, scaled by the airflow directivity when flow is on.
double direct_gain(const sensors::MicGeometry& geometry, std::size_t m, std::size_t r,
                   const FlowSegment* segment, double directivity) {
  const double gain = geometry.gain[m][r];
  if (segment == nullptr) return gain;
  return gain * std::max(1.0 + directivity * segment->v.dot(geometry.dir[m][r]), 0.1);
}

// One mic's taps in the one-pass mix: rotor r's direct tap src[r] at gain
// gain[r] (the current flow segment's) and, with ground reflection, its
// reflected tap rsrc[r] at rgain[r], each pointing at the stream sample
// that output sample 0 reads; then the mic's ambient draws, null without
// ambient noise.
struct MicTaps {
  std::size_t rotors = 0;
  bool ground = false;
  std::array<const double*, sim::kMaxRotors> src{}, rsrc{};
  std::array<double, sim::kMaxRotors> gain{}, rgain{};
  const double* ambient = nullptr;
  double ambient_noise = 0.0;
};

// Output samples [begin, end) of one mic in one pass, lanes across samples
// and a scalar tail.  Every element keeps the multi-pass order: +0, then per
// rotor the direct tap and the reflected tap, then the ambient draw.
void mix_run(const MicTaps& t, double* ch, std::size_t begin, std::size_t end) {
  std::size_t i = begin;
  for (; i + kLanes <= end; i += kLanes) {
    VDouble acc = simd::broadcastd(0.0);
    for (std::size_t r = 0; r < t.rotors; ++r) {
      acc = simd::addd(
          acc, simd::muld(simd::broadcastd(t.gain[r]), simd::loadd(t.src[r] + i)));
      if (t.ground)
        acc = simd::addd(
            acc, simd::muld(simd::broadcastd(t.rgain[r]), simd::loadd(t.rsrc[r] + i)));
    }
    if (t.ambient != nullptr)
      acc = simd::addd(acc, simd::muld(simd::broadcastd(t.ambient_noise),
                                       simd::loadd(t.ambient + i)));
    simd::stored(ch + i, acc);
  }
  for (; i < end; ++i) {
    double acc = 0.0;
    for (std::size_t r = 0; r < t.rotors; ++r) {
      acc += t.gain[r] * t.src[r][i];
      if (t.ground) acc += t.rgain[r] * t.rsrc[r][i];
    }
    if (t.ambient != nullptr) acc += t.ambient_noise * t.ambient[i];
    ch[i] = acc;
  }
}

}  // namespace

void mix_block(std::span<const std::span<double>> out,
               std::span<const std::span<const double>> rotor_streams,
               std::size_t lead_samples, const sensors::MicGeometry& geometry,
               double sample_rate, double ambient_noise,
               std::span<GaussianNoise> mic_noise,
               std::span<const FlowSegment> flow, double directivity,
               const GroundReflection& ground) {
  const bool with_flow = directivity != 0.0 && !flow.empty();
  if (with_flow && flow.front().begin != 0)
    throw std::invalid_argument{"mix_block: the first flow segment must begin at 0"};
  const bool with_ground = ground.gain_scale != 0.0;
  const std::size_t rotors = rotor_streams.size();
  const bool vector = util::simd_enabled();
  util::parallel_for(out.size(), [&](std::size_t mi) {
    const std::span<double> ch = out[mi];
    const std::size_t n = ch.size();
    const auto tap = [&](std::size_t ri) {
      const auto delay = static_cast<std::size_t>(
          std::llround(geometry.delay_s[mi][ri] * sample_rate));
      return rotor_streams[ri].data() + lead_samples - delay;
    };
    // The ambient draws come from a local copy of the mic's generator, which
    // is written back once: the generators of neighbouring mics share cache
    // lines, and a per-draw write would bounce them between the mic tasks.
    GaussianNoise noise = mic_noise[mi];
    if (vector) {
      util::Scratch<double> ambient{ambient_noise > 0.0 ? n : 0};
      for (std::size_t i = 0; i < ambient.size(); ++i) ambient[i] = noise.next();
      MicTaps taps;
      taps.rotors = rotors;
      taps.ground = with_ground;
      taps.ambient = ambient.data();  // null when empty
      taps.ambient_noise = ambient_noise;
      for (std::size_t ri = 0; ri < rotors; ++ri) {
        taps.src[ri] = tap(ri);
        taps.rsrc[ri] = taps.src[ri] - ground.delay_samples;
        taps.rgain[ri] = geometry.gain[mi][ri] * ground.gain_scale;
      }
      const std::size_t segments = with_flow ? flow.size() : 1;
      for (std::size_t s = 0; s < segments; ++s) {
        const std::size_t end = s + 1 < segments ? flow[s + 1].begin : n;
        for (std::size_t ri = 0; ri < rotors; ++ri)
          taps.gain[ri] = direct_gain(geometry, mi, ri, with_flow ? &flow[s] : nullptr,
                                      directivity);
        mix_run(taps, ch.data(), with_flow ? flow[s].begin : 0, end);
      }
    } else {
      // The oracle: one pass per rotor tap, then one for the ambient noise.
      std::fill(ch.begin(), ch.end(), 0.0);
      for (std::size_t ri = 0; ri < rotors; ++ri) {
        const double* src = tap(ri);
        if (with_flow) {
          for (std::size_t s = 0; s < flow.size(); ++s) {
            const std::size_t end = s + 1 < flow.size() ? flow[s + 1].begin : n;
            const double g = direct_gain(geometry, mi, ri, &flow[s], directivity);
            for (std::size_t i = flow[s].begin; i < end; ++i) ch[i] += g * src[i];
          }
        } else {
          const double gain = geometry.gain[mi][ri];
          for (std::size_t i = 0; i < n; ++i) ch[i] += gain * src[i];
        }
        if (with_ground) {
          const double rgain = geometry.gain[mi][ri] * ground.gain_scale;
          const double* rsrc = src - ground.delay_samples;
          for (std::size_t i = 0; i < n; ++i) ch[i] += rgain * rsrc[i];
        }
      }
      if (ambient_noise > 0.0)
        for (double& x : ch) x += ambient_noise * noise.next();
    }
    mic_noise[mi] = noise;
  }, 1);
}

double external_attenuation(double distance_m) {
  // Same near-field law as the on-frame rotors.  At 0.5 m this yields ~45%
  // of the level a rotor-distance (~0.2 m) source produces — matching the
  // paper's measurement that the aerodynamic-band magnitude drops to 46% of
  // its on-frame value 0.5 m away (§IV-D).
  return 1.0 / (1.0 + distance_m / 0.05);
}

void add_external_source(MultiChannelAudio& audio, std::span<const double> source,
                         const Vec3& source_pos_body,
                         const sensors::MicGeometry& geometry) {
  for (int m = 0; m < sensors::kNumMics; ++m) {
    const auto mi = static_cast<std::size_t>(m);
    const double dist = (geometry.mic_pos[mi] - source_pos_body).norm();
    const double gain = external_attenuation(dist);
    const auto delay = static_cast<std::size_t>(
        std::llround(dist / sensors::kSpeedOfSound * audio.sample_rate));
    auto& ch = audio.channels[mi];
    for (std::size_t i = delay; i < ch.size() && i - delay < source.size(); ++i)
      ch[i] += gain * source[i - delay];
  }
}

}  // namespace sb::acoustics
