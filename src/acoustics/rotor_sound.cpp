#include "acoustics/rotor_sound.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace sb::acoustics {
namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;
}

double motor_unit_detune(std::uint64_t motor_seed, int rotor, double spread) {
  // splitmix64 finalizer over (seed, rotor) — avalanche so that adjacent
  // rotor indices land far apart in [-spread, +spread].
  std::uint64_t z = motor_seed + 0x9E3779B97F4A7C15ULL *
                                     (static_cast<std::uint64_t>(rotor) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  const double unit =
      static_cast<double>(z >> 11) * 0x1.0p-53;  // [0, 1), 53-bit
  return (2.0 * unit - 1.0) * spread;
}

RotorSound::RotorSound(const RotorSoundConfig& config, double sample_rate,
                       double hover_omega, Rng rng)
    : config_(config),
      sample_rate_(sample_rate),
      hover_omega_(hover_omega),
      aero_filter_(dsp::Biquad::band_pass(config.aero_center_hz, sample_rate,
                                          config.aero_bandwidth_q)) {
  // Randomize initial phases so rotors are mutually incoherent; the aero
  // noise then draws from the rest of the same stream.
  blade_ = Phasor::at(rng.uniform(0.0, kTwoPi));
  mech_ = Phasor::at(rng.uniform(0.0, kTwoPi));
  tone_ = Phasor::at(rng.uniform(0.0, kTwoPi));
  noise_ = GaussianNoise{rng};
}

void RotorSound::retune(double omega) {
  omega_ = omega;
  const double rot_hz = omega / kTwoPi;  // rotation rate, Hz
  const double ratio = omega / hover_omega_;
  const double dt = 1.0 / sample_rate_;
  // Blade passing: harmonics of blade_count x rotation rate; thrust-like
  // quadratic amplitude dependence.
  blade_step_ = Phasor::at(kTwoPi * config_.blade_count * rot_hz * dt);
  blade_amp_ = config_.blade_amp * ratio * ratio;
  // Mechanical/ESC tone tracking the electrical frequency.
  mech_step_ =
      Phasor::at(kTwoPi * config_.mech_ratio * (1.0 + config_.detune) * rot_hz * dt);
  mech_amp_ = config_.mech_amp * ratio;
  // Aerodynamic: band-passed noise + vortex tone; steep cubic amplitude
  // dependence makes this band the dominant acceleration cue (§IV-A).
  tone_step_ = Phasor::at(kTwoPi * config_.aero_tone_ratio * (1.0 + config_.detune) *
                          rot_hz * dt);
  aero_gain_ = config_.aero_amp * ratio * ratio * ratio;
  tone_amp_ = config_.aero_tone_amp * ratio * ratio * ratio;
  blade_.normalize();
  mech_.normalize();
  tone_.normalize();
  since_renorm_ = 0;
}

double RotorSound::sample(double omega) {
  double y = 0.0;
  render(omega, {&y, 1});
  return y;
}

void RotorSound::render(double omega, std::span<double> out) {
  if (omega != omega_) retune(omega);
  // The loop runs on local copies: stores to `out` could otherwise alias
  // the oscillator state and force a reload per sample.
  Phasor blade = blade_, mech = mech_, tone = tone_;
  const Phasor blade_step = blade_step_, mech_step = mech_step_, tone_step = tone_step_;
  const double blade_amp = blade_amp_, mech_amp = mech_amp_, aero_gain = aero_gain_,
               tone_amp = tone_amp_;
  const int harmonics = config_.blade_harmonics;
  dsp::Biquad filter = aero_filter_;
  GaussianNoise noise = noise_;
  std::size_t since_renorm = since_renorm_;
  for (double& x : out) {
    if (since_renorm == kRenormInterval) {
      blade.normalize();
      mech.normalize();
      tone.normalize();
      since_renorm = 0;
    }
    ++since_renorm;
    blade.rotate(blade_step);
    mech.rotate(mech_step);
    tone.rotate(tone_step);

    // sin(h x) for h = 1..N from sin(x) and cos(x); each harmonic at 0.45x
    // the previous one's amplitude.
    const double two_cos = 2.0 * blade.re;
    double sin_prev = 0.0;
    double sin_h = blade.im;
    double harmonic_amp = blade_amp;
    double blade_sum = 0.0;
    for (int h = 1; h <= harmonics; ++h) {
      blade_sum += harmonic_amp * sin_h;
      harmonic_amp *= 0.45;
      const double sin_next = two_cos * sin_h - sin_prev;
      sin_prev = sin_h;
      sin_h = sin_next;
    }

    const double mech_out = mech_amp * mech.im;
    const double aero_noise = filter.process(noise.next()) * aero_gain;
    const double aero_tone = tone_amp * tone.im;
    x = blade_sum + mech_out + aero_noise + aero_tone;
  }
  blade_ = blade;
  mech_ = mech;
  tone_ = tone;
  aero_filter_ = filter;
  noise_ = noise;
  since_renorm_ = since_renorm;
}

double RotorSound::phasor_error() const {
  double worst = 0.0;
  for (const Phasor* p : {&blade_, &mech_, &tone_})
    worst = std::max(worst, std::abs(1.0 - std::sqrt(p->re * p->re + p->im * p->im)));
  return worst;
}

}  // namespace sb::acoustics
