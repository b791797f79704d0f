// Four-microphone array model (ReSpeaker-style), mounted OFF-CENTRE on the
// airframe so each microphone hears each rotor at a different level and
// delay — the asymmetry that makes per-rotor inference possible (paper §II-D).
#pragma once

#include <array>

#include "sim/quadrotor.hpp"
#include "util/vec3.hpp"

namespace sb::sensors {

inline constexpr int kNumMics = 4;
// Every microphone samples at 16 kHz: Nyquist comfortably above the 6 kHz
// pipeline cutoff.  Synthesis, the offline windows and the serving stream
// all run at this one rate.
inline constexpr double kMicSampleRate = 16000.0;
inline constexpr double kSpeedOfSound = 343.0;  // m/s

struct MicArrayConfig {
  // Array centre in the body frame (m); deliberately off-centre.
  Vec3 mount{0.09, 0.05, -0.04};
  // Mic ring radius around the mount point (ReSpeaker USB array ~32 mm;
  // widened slightly to strengthen per-rotor level differences).
  double ring_radius = 0.05;
  double ambient_noise = 0.002;  // white ambient noise amplitude per mic
};

struct MicGeometry {
  std::array<Vec3, kNumMics> mic_pos;                       // body frame
  // Rotor count of the airframe this geometry was computed for; entries at
  // rotor index >= num_rotors are unused (zero).
  int num_rotors = sim::kNumRotors;
  // Per (mic, rotor) propagation gain (1/(1+r)) and delay (seconds).
  std::array<std::array<double, sim::kMaxRotors>, kNumMics> gain{};
  std::array<std::array<double, sim::kMaxRotors>, kNumMics> delay_s{};
  // Unit vector from rotor to mic (body frame) — used for the airflow
  // directivity of rotor noise (turbulence convects downwind, so a mic
  // downstream of a rotor hears it louder).
  std::array<std::array<Vec3, sim::kMaxRotors>, kNumMics> dir{};
};

// Computes the fixed propagation geometry for a given quadrotor frame.
MicGeometry compute_geometry(const MicArrayConfig& config,
                             const sim::QuadrotorParams& quad);

}  // namespace sb::sensors
