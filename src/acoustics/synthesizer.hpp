// Flight-audio synthesizer: turns a FlightLog's rotor-speed timeline into
// the 4-channel microphone recording SoundBoost analyzes.
#pragma once

#include <cstdint>
#include <string>

#include "acoustics/propagation.hpp"
#include "acoustics/rotor_sound.hpp"
#include "sensors/mic_array.hpp"
#include "sim/simulator.hpp"

namespace sb::acoustics {

struct SynthesizerConfig {
  RotorSoundConfig rotor;
  sensors::MicArrayConfig mic_array;
  // Airflow directivity coefficient per (m/s) of body-frame air velocity;
  // see mix_block.
  double flow_directivity = 0.10;
  // Per-rotor detune offsets added to rotor.detune (one entry per rotor of
  // the airframe, or the synthesizer throws std::invalid_argument; the
  // scenario catalog derives them via motor_unit_detune).
  // EMPTY keeps the legacy measured X500 table {-0.10, -0.035, 0.035, 0.10}
  // (indexed rotor % 4) — the pre-scenario default, bitwise identical for the
  // default quad.
  std::vector<double> rotor_detune;
  // Ground-effect reflection (environment profiles): amplitude coefficient of
  // the ground-bounced image source (0 = off, bitwise identical to the
  // no-reflection path) and the above-ground altitude the bounce path is
  // computed for.
  double ground_reflect = 0.0;
  double ground_altitude_m = 0.0;
};

// Provenance tag of the audio this build synthesizes.  Bump it whenever the
// recording rendered for a given (config, flight log, seed) changes: model
// caches key their filenames on it (bench::cache_tag), so a synthesis change
// retrains instead of loading weights fitted to superseded audio.
std::string synth_schema_tag();

class AudioSynthesizer {
 public:
  AudioSynthesizer(const SynthesizerConfig& config, const sim::QuadrotorParams& quad,
                   std::uint64_t seed);

  // Returns samples [llround(t0 * fs), llround(t1 * fs)) of the flight's one
  // continuous microphone recording, which starts at t = 0 and is seeded by
  // the flight seed alone.  A window is therefore a slice of that recording:
  // synthesize(log, a, c) equals synthesize(log, a, b) followed by
  // synthesize(log, b, c) bit for bit, and a stream of the whole recording
  // re-slices to exactly the offline windows.  The recording is rendered
  // from t = 0 in fixed-size blocks (transient memory O(block)) and is
  // bitwise independent of the block size, SB_THREADS and SB_SIMD.  Render
  // the whole flight once and slice it (AudioView) rather than calling this
  // per window: each call renders from t = 0.
  MultiChannelAudio synthesize(const sim::FlightLog& log, double t0, double t1) const;

  const sensors::MicGeometry& geometry() const { return geometry_; }
  const SynthesizerConfig& config() const { return config_; }

 private:
  SynthesizerConfig config_;
  sim::QuadrotorParams quad_;
  sensors::MicGeometry geometry_;
  std::uint64_t seed_;
};

}  // namespace sb::acoustics
