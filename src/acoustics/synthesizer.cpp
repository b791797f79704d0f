#include "acoustics/synthesizer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "obs/trace.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace sb::acoustics {

std::string synth_schema_tag() {
  // v2: one continuous recording per flight (v1 synthesized each window on
  // its own, seeded by the window start).
  return "sy2";
}

AudioSynthesizer::AudioSynthesizer(const SynthesizerConfig& config,
                                   const sim::QuadrotorParams& quad,
                                   std::uint64_t seed)
    : config_(config),
      quad_(quad),
      geometry_(sensors::compute_geometry(config.mic_array, quad)),
      seed_(seed) {
  if (!config_.rotor_detune.empty() &&
      config_.rotor_detune.size() != static_cast<std::size_t>(quad_.num_rotors))
    throw std::invalid_argument{
        "AudioSynthesizer: rotor_detune needs one entry per rotor"};
}

namespace {

// Samples rendered per block.  Rotor streams, physics-step runs and the mic
// mix are sized to one block, so a render's transient memory is O(block)
// however long the recording is; the output does not depend on this value.
constexpr std::size_t kBlockSamples = 4096;

// A run of block samples that share one physics step (the 400 Hz timeline
// is sample-and-held): block-relative start and step index.
struct StepRun {
  std::size_t begin;
  std::size_t step;
};

}  // namespace

MultiChannelAudio AudioSynthesizer::synthesize(const sim::FlightLog& log, double t0,
                                               double t1) const {
  obs::ScopedSpan span{"synthesize", obs::Stage::kSynthesis};
  const double fs = sensors::kMicSampleRate;
  const double physics_dt = log.rates.physics_dt();
  const auto num_rotors = static_cast<std::size_t>(quad_.num_rotors);
  const auto first = static_cast<std::size_t>(std::max(std::llround(t0 * fs), 0LL));
  const auto last = std::max(
      static_cast<std::size_t>(std::max(std::llround(t1 * fs), 0LL)), first);

  // Ground-effect reflection (environment profiles): one image-source tap per
  // mic/rotor pair, delayed by the extra bounce path (~2x altitude) and
  // scaled by the profile coefficient times the spreading loss of the longer
  // path relative to a typical on-frame direct distance (0.25 m).
  GroundReflection ground;
  if (config_.ground_reflect != 0.0 && config_.ground_altitude_m > 0.0) {
    const double extra_path = 2.0 * config_.ground_altitude_m;
    ground.delay_samples = static_cast<std::size_t>(
        std::llround(extra_path / sensors::kSpeedOfSound * fs));
    ground.gain_scale = config_.ground_reflect * 0.25 / (0.25 + extra_path);
  }

  // Rotor streams run `lead` samples ahead of the mics: enough to cover the
  // largest mic/rotor delay (plus the reflected tap's extra delay when
  // ground effect is on).
  double max_delay = 0.0;
  for (const auto& per_mic : geometry_.delay_s)
    for (double d : per_mic) max_delay = std::max(max_delay, d);
  const auto lead = static_cast<std::size_t>(std::ceil(max_delay * fs)) + 1 +
                    (ground.gain_scale != 0.0 ? ground.delay_samples : 0);

  // One recording per flight, seeded by the flight alone.  Every stream is
  // split up front — rotors in order, then one ambient-noise stream per mic —
  // so the parallel rotor and mic loops below draw fixed sequences.
  // Per-rotor tone detuning (manufacturing spread; see RotorSoundConfig):
  // the legacy table is the measured X500 fingerprint and stays the default
  // when the config carries no explicit per-rotor offsets.
  static constexpr std::array<double, sim::kNumRotors> kDetune{-0.10, -0.035, 0.035,
                                                               0.10};
  Rng base{seed_};
  std::vector<RotorSound> rotors;
  rotors.reserve(num_rotors);
  for (std::size_t r = 0; r < num_rotors; ++r) {
    RotorSoundConfig rotor_cfg = config_.rotor;
    rotor_cfg.detune += config_.rotor_detune.empty() ? kDetune[r % kDetune.size()]
                                                     : config_.rotor_detune[r];
    rotors.emplace_back(rotor_cfg, fs, quad_.hover_omega(), base.split());
  }
  std::array<GaussianNoise, sensors::kNumMics> mic_noise;
  for (auto& noise : mic_noise) noise = GaussianNoise{base.split()};

  // Physics step of recording sample i: the 400 Hz timeline is
  // sample-and-held (steps past the log's end clamp to its last one).
  const auto last_step =
      static_cast<double>(std::max(log.rotor_omega.size(), log.t.size()));
  const auto step_of = [&](std::size_t i) {
    return static_cast<std::size_t>(
        std::clamp(static_cast<double>(i) / fs / physics_dt, 0.0, last_step));
  };
  const double samples_per_step = fs * physics_dt;
  const auto omega_at = [&](std::size_t step, std::size_t r) {
    if (log.rotor_omega.empty()) return quad_.hover_omega();
    return log.rotor_omega[std::min(step, log.rotor_omega.size() - 1)][r];
  };

  // Each rotor stream holds the `lead` samples carried from the previous
  // block, then the current block.  Rotors render in fixed groups, one
  // parallel task each: the lanes of one double vector on the vector
  // backend (RotorSound::render_lanes), one rotor on the scalar backend.
  // render_group(g, step, offset, len) renders samples [offset, offset +
  // len) of group g's streams at physics step `step`.
  std::vector<std::vector<double>> streams(num_rotors,
                                           std::vector<double>(lead + kBlockSamples));
  constexpr std::size_t kLanes = util::simd::kDoubleLanes;
  const std::size_t width = util::simd_enabled() ? kLanes : 1;
  const std::size_t num_groups = (num_rotors + width - 1) / width;
  const auto render_group = [&](std::size_t g, std::size_t step, std::size_t offset,
                                std::size_t len) {
    const std::size_t r0 = g * width;
    const std::size_t count = std::min(width, num_rotors - r0);
    std::array<double, kLanes> omega;
    std::array<double*, kLanes> out;
    for (std::size_t l = 0; l < count; ++l) {
      omega[l] = omega_at(step, r0 + l);
      out[l] = streams[r0 + l].data() + offset;
    }
    RotorSound::render_lanes(std::span{rotors}.subspan(r0, count),
                             std::span{omega}.first(count), std::span{out}.first(count),
                             len);
  };
  // Before t = 0 the rotors spin at the first physics step's speed.
  util::parallel_for(num_groups, [&](std::size_t g) { render_group(g, 0, 0, lead); }, 1);

  const bool with_flow = config_.flow_directivity != 0.0 && !log.t.empty();
  std::vector<StepRun> runs;
  std::vector<FlowSegment> flow;
  std::vector<std::span<const double>> stream_views(num_rotors);
  std::array<std::vector<double>, sensors::kNumMics> mic_block;
  std::array<std::span<double>, sensors::kNumMics> mic_views;
  for (auto& ch : mic_block) ch.resize(kBlockSamples);

  // One task per channel zero-fills it: a 40 s recording is 20 MB of fresh
  // pages, and faulting them in on one thread took 11–14 ms, a fifth of the
  // whole synthesis.
  MultiChannelAudio out;
  out.sample_rate = fs;
  util::parallel_for(sensors::kNumMics, [&](std::size_t m) {
    out.channels[m].resize(last - first);
  }, 1);

  for (std::size_t b0 = 0; b0 < last; b0 += kBlockSamples) {
    const std::size_t n = std::min(kBlockSamples, last - b0);
    runs.clear();
    for (std::size_t k = 0; k < n;) {
      const std::size_t step = step_of(b0 + k);
      runs.push_back({k, step});
      // First sample of the next step: guess from the step length, then
      // settle it exactly with step_of, which never decreases with the
      // sample index (a few divisions per step instead of one per sample).
      const auto guess = static_cast<std::size_t>(
          std::ceil(static_cast<double>(step + 1) * samples_per_step));
      std::size_t next = std::clamp(guess, b0 + k + 1, b0 + n) - b0;
      while (next > k + 1 && step_of(b0 + next - 1) != step) --next;
      while (next < n && step_of(b0 + next) == step) ++next;
      k = next;
    }

    util::parallel_for(num_groups, [&](std::size_t g) {
      for (std::size_t j = 0; j < runs.size(); ++j) {
        const std::size_t end = j + 1 < runs.size() ? runs[j + 1].begin : n;
        render_group(g, runs[j].step, lead + runs[j].begin, end - runs[j].begin);
      }
    }, 1);

    // Body-frame air velocity, once per physics step.
    flow.clear();
    if (with_flow)
      for (const StepRun& run : runs) {
        const std::size_t idx = std::min(run.step, log.t.size() - 1);
        const Vec3& e = log.true_euler[idx];
        flow.push_back({run.begin, rotation_from_euler(e.x, e.y, e.z).transposed() *
                                       log.true_vel[idx]});
      }

    // A block inside the requested [first, last) mixes straight into the
    // output; one that starts before `first` mixes into a block buffer and
    // keeps its overlap.
    const bool inside = b0 >= first;
    for (std::size_t r = 0; r < num_rotors; ++r)
      stream_views[r] = std::span<const double>{streams[r]}.first(lead + n);
    for (std::size_t m = 0; m < sensors::kNumMics; ++m)
      mic_views[m] = inside ? std::span{out.channels[m]}.subspan(b0 - first, n)
                            : std::span{mic_block[m]}.first(n);
    mix_block(mic_views, stream_views, lead, geometry_, fs,
              config_.mic_array.ambient_noise, mic_noise, flow,
              config_.flow_directivity, ground);
    if (!inside && b0 + n > first)
      for (std::size_t m = 0; m < sensors::kNumMics; ++m)
        std::copy(mic_block[m].begin() + static_cast<std::ptrdiff_t>(first - b0),
                  mic_block[m].begin() + static_cast<std::ptrdiff_t>(n),
                  out.channels[m].begin());
    // The block's last `lead` rotor samples lead into the next block.
    for (auto& stream : streams)
      std::copy(stream.begin() + static_cast<std::ptrdiff_t>(n),
                stream.begin() + static_cast<std::ptrdiff_t>(n + lead), stream.begin());
  }
  return out;
}

}  // namespace sb::acoustics
