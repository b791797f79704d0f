// Physics-based rotor sound synthesis.
//
// Reproduces the three noise mechanisms the paper identifies (§II-D, Fig. 2a):
//  * blade passing noise  — low-frequency harmonics of blades x rotation rate
//    (~200 Hz group at hover),
//  * mechanical/ESC noise — mid-frequency tones tracking motor electrical
//    frequency (~2.5 kHz group),
//  * aerodynamic noise    — high-frequency broadband from blade-air
//    interaction (~5.5 kHz group), with amplitude rising steeply with RPM.
//
// Amplitude and pitch of every component are functions of rotor speed, which
// is what makes the acoustic side-channel informative about actuation.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "acoustics/gaussian.hpp"
#include "dsp/biquad.hpp"
#include "util/rng.hpp"

namespace sb::acoustics {

struct RotorSoundConfig {
  int blade_count = 2;
  int blade_harmonics = 3;
  double blade_amp = 0.30;       // at hover RPM; scales with (w/w_hover)^2
  double mech_ratio = 20.0;      // mechanical tone frequency / rotation rate
  double mech_amp = 0.25;        // scales with (w/w_hover)
  double aero_center_hz = 5250;  // aerodynamic band centre
  double aero_bandwidth_q = 3.0;
  double aero_amp = 0.35;        // scales with (w/w_hover)^3
  double aero_tone_ratio = 44.0; // vortex-shedding tone / rotation rate
  double aero_tone_amp = 0.20;
  // Per-rotor frequency detuning of the mechanical and vortex tones.  Real
  // motor/ESC/propeller units are never identical — slightly different pole
  // counts, blade wear and mounting give each rotor a recognizably shifted
  // tone, which is what lets a single microphone attribute sound to
  // individual rotors (the paper localizes rotors via TDoA + level
  // differences; spectral fingerprints serve the same role here).
  double detune = 0.0;           // fractional shift, e.g. -0.10 .. +0.10
};

// Deterministic manufacturing-spread detune of one motor/ESC/propeller unit:
// hashes (airframe motor-unit seed, rotor index) through a splitmix64
// finalizer and maps the result uniformly onto [-spread, +spread].  The same
// seed and rotor index always yield the same fingerprint, so every rotor of a
// scenario airframe gets a distinct, reproducible spectral signature without
// hand-maintained tables (the scenario catalog feeds these into
// SynthesizerConfig::rotor_detune).
double motor_unit_detune(std::uint64_t motor_seed, int rotor, double spread);

// Sample-by-sample synthesizer for ONE rotor; keeps oscillator phases and
// filter state continuous across calls.
//
// The three tones are unit phasors advanced by one complex rotation per
// sample; blade harmonics 2..N come from the Chebyshev recurrence
// sin((h+1)x) = 2 cos(x) sin(hx) - sin((h-1)x) (the double- and triple-angle
// identities for the default three).  Rotor speed is sample-and-held from
// the physics timeline, so the rotations and amplitudes are recomputed only
// when omega changes; the phasors are renormalized then, and at least every
// kRenormInterval samples, which bounds magnitude drift on constant-speed
// runs of any length.
class RotorSound {
 public:
  static constexpr std::size_t kRenormInterval = 4096;

  RotorSound(const RotorSoundConfig& config, double sample_rate, double hover_omega,
             Rng rng);

  // Fills `out` with the next out.size() samples at one rotor speed
  // (rad/s) — identical to out.size() one-sample calls.  The synthesizer
  // renders one physics step (40 samples at 16 kHz) per call.
  void render(double omega, std::span<double> out);

  // Lanes form of render for a group of 1 to util::simd::kDoubleLanes
  // rotors: renders `len` samples of rotor r at speed omega[r] into
  // out[r][0, len), bitwise what group[r].render(omega[r], {out[r], len})
  // writes.  The vector backend runs the rotors as lanes of a double vector
  // (lane = rotor; a short group pads lanes whose output is discarded), each
  // lane in render's operation order: retune stays scalar, each rotor's
  // aero noise is drawn ahead from its own generator, and a lane whose
  // phasors are due for renormalization splits the run at that sample.
  // The scalar backend, and a group whose harmonic counts differ, call
  // render per rotor.  Throws std::invalid_argument on a bad group size.
  static void render_lanes(std::span<RotorSound> group, std::span<const double> omega,
                           std::span<double* const> out, std::size_t len);

  // Largest |1 - |z|| over the three oscillator phasors.
  double phasor_error() const;

 private:
  struct Phasor {
    double re = 1.0;
    double im = 0.0;
    static Phasor at(double angle) { return {std::cos(angle), std::sin(angle)}; }
    void rotate(const Phasor& w) {
      const double r = re * w.re - im * w.im;
      im = re * w.im + im * w.re;
      re = r;
    }
    void normalize() {
      const double inv = 1.0 / std::sqrt(re * re + im * im);
      re *= inv;
      im *= inv;
    }
  };

  // Recomputes the per-sample rotations and amplitudes for `omega` and
  // renormalizes the phasors.
  void retune(double omega);

  RotorSoundConfig config_;
  double sample_rate_;
  double hover_omega_;
  GaussianNoise noise_;
  dsp::Biquad aero_filter_;
  Phasor blade_, mech_, tone_;
  // Per-sample rotations and amplitudes at omega_ (NaN until the first
  // sample, so it always retunes).
  Phasor blade_step_, mech_step_, tone_step_;
  double omega_ = std::numeric_limits<double>::quiet_NaN();
  double blade_amp_ = 0.0;
  double mech_amp_ = 0.0;
  double aero_gain_ = 0.0;
  double tone_amp_ = 0.0;
  std::size_t since_renorm_ = 0;
};

}  // namespace sb::acoustics
