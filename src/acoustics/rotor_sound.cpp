#include "acoustics/rotor_sound.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "util/scratch.hpp"
#include "util/simd.hpp"

namespace sb::acoustics {
namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;

namespace simd = util::simd;
using simd::VDouble;
constexpr std::size_t kLanes = simd::kDoubleLanes;

// render_lanes' per-lane values: row f holds quantity f of every lane (lane
// l = rotor l of the group; pad lanes copy rotor 0).
enum Field : std::size_t {
  kBladeRe, kBladeIm, kMechRe, kMechIm, kToneRe, kToneIm,
  kBladeStepRe, kBladeStepIm, kMechStepRe, kMechStepIm, kToneStepRe, kToneStepIm,
  kBladeAmp, kMechAmp, kAeroGain, kToneAmp,
  kB0, kB1, kB2, kA1, kA2, kX1, kX2, kY1, kY2,
  kFields
};
using LaneRows = double[kFields][kLanes];

// Phasor::rotate per lane: re' = re*w.re - im*w.im, im' = re*w.im + im*w.re.
void rotate(VDouble& re, VDouble& im, VDouble w_re, VDouble w_im) {
  const VDouble r = simd::subd(simd::muld(re, w_re), simd::muld(im, w_im));
  im = simd::addd(simd::muld(re, w_im), simd::muld(im, w_re));
  re = r;
}

// Samples [begin, end) of every lane, with render's loop body per lane:
// the lane state comes from `rows` into registers and goes back at the end,
// so the stores to `out` cannot alias it.  `noise` holds the lanes' aero
// noise draws interleaved, sample i of lane l at [i * kLanes + l].
void render_lane_run(LaneRows& rows, int harmonics, const double* noise,
                     std::span<double* const> out, std::size_t begin, std::size_t end) {
  VDouble blade_re = simd::loadd(rows[kBladeRe]), blade_im = simd::loadd(rows[kBladeIm]);
  VDouble mech_re = simd::loadd(rows[kMechRe]), mech_im = simd::loadd(rows[kMechIm]);
  VDouble tone_re = simd::loadd(rows[kToneRe]), tone_im = simd::loadd(rows[kToneIm]);
  const VDouble blade_step_re = simd::loadd(rows[kBladeStepRe]);
  const VDouble blade_step_im = simd::loadd(rows[kBladeStepIm]);
  const VDouble mech_step_re = simd::loadd(rows[kMechStepRe]);
  const VDouble mech_step_im = simd::loadd(rows[kMechStepIm]);
  const VDouble tone_step_re = simd::loadd(rows[kToneStepRe]);
  const VDouble tone_step_im = simd::loadd(rows[kToneStepIm]);
  const VDouble blade_amp = simd::loadd(rows[kBladeAmp]);
  const VDouble mech_amp = simd::loadd(rows[kMechAmp]);
  const VDouble aero_gain = simd::loadd(rows[kAeroGain]);
  const VDouble tone_amp = simd::loadd(rows[kToneAmp]);
  const VDouble b0 = simd::loadd(rows[kB0]), b1 = simd::loadd(rows[kB1]),
                b2 = simd::loadd(rows[kB2]), a1 = simd::loadd(rows[kA1]),
                a2 = simd::loadd(rows[kA2]);
  VDouble x1 = simd::loadd(rows[kX1]), x2 = simd::loadd(rows[kX2]);
  VDouble y1 = simd::loadd(rows[kY1]), y2 = simd::loadd(rows[kY2]);
  const VDouble zero = simd::broadcastd(0.0);
  const VDouble two = simd::broadcastd(2.0);
  const VDouble decay = simd::broadcastd(0.45);
  const std::size_t count = out.size();
  double sample[kLanes];
  for (std::size_t i = begin; i < end; ++i) {
    rotate(blade_re, blade_im, blade_step_re, blade_step_im);
    rotate(mech_re, mech_im, mech_step_re, mech_step_im);
    rotate(tone_re, tone_im, tone_step_re, tone_step_im);

    const VDouble two_cos = simd::muld(two, blade_re);
    VDouble sin_prev = zero;
    VDouble sin_h = blade_im;
    VDouble harmonic_amp = blade_amp;
    VDouble blade_sum = zero;
    for (int h = 1; h <= harmonics; ++h) {
      blade_sum = simd::addd(blade_sum, simd::muld(harmonic_amp, sin_h));
      harmonic_amp = simd::muld(harmonic_amp, decay);
      const VDouble sin_next = simd::subd(simd::muld(two_cos, sin_h), sin_prev);
      sin_prev = sin_h;
      sin_h = sin_next;
    }

    const VDouble mech_out = simd::muld(mech_amp, mech_im);
    // dsp::Biquad::process, left to right.
    const VDouble x = simd::loadd(noise + i * kLanes);
    const VDouble y = simd::subd(
        simd::subd(simd::addd(simd::addd(simd::muld(b0, x), simd::muld(b1, x1)),
                              simd::muld(b2, x2)),
                   simd::muld(a1, y1)),
        simd::muld(a2, y2));
    x2 = x1;
    x1 = x;
    y2 = y1;
    y1 = y;
    const VDouble aero_noise = simd::muld(y, aero_gain);
    const VDouble aero_tone = simd::muld(tone_amp, tone_im);
    simd::stored(sample, simd::addd(simd::addd(simd::addd(blade_sum, mech_out),
                                               aero_noise),
                                    aero_tone));
    for (std::size_t l = 0; l < count; ++l) out[l][i] = sample[l];
  }
  simd::stored(rows[kBladeRe], blade_re);
  simd::stored(rows[kBladeIm], blade_im);
  simd::stored(rows[kMechRe], mech_re);
  simd::stored(rows[kMechIm], mech_im);
  simd::stored(rows[kToneRe], tone_re);
  simd::stored(rows[kToneIm], tone_im);
  simd::stored(rows[kX1], x1);
  simd::stored(rows[kX2], x2);
  simd::stored(rows[kY1], y1);
  simd::stored(rows[kY2], y2);
}

}  // namespace

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

void RotorSound::render_lanes(std::span<RotorSound> group, std::span<const double> omega,
                              std::span<double* const> out, std::size_t len) {
  const std::size_t count = group.size();
  if (count == 0 || count > kLanes || omega.size() != count || out.size() != count)
    throw std::invalid_argument{"RotorSound::render_lanes: bad group"};
  const int harmonics = group[0].config_.blade_harmonics;
  const bool same_harmonics = std::all_of(group.begin(), group.end(), [&](const auto& s) {
    return s.config_.blade_harmonics == harmonics;
  });
  if (!util::simd_enabled() || !same_harmonics) {
    for (std::size_t r = 0; r < count; ++r) group[r].render(omega[r], {out[r], len});
    return;
  }

  for (std::size_t r = 0; r < count; ++r)
    if (omega[r] != group[r].omega_) group[r].retune(omega[r]);
  alignas(64) LaneRows rows;
  std::size_t since[kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) {
    const RotorSound& s = group[l < count ? l : 0];
    const dsp::Biquad::Coefficients k = s.aero_filter_.coefficients();
    const dsp::Biquad::State f = s.aero_filter_.state();
    const double values[kFields] = {
        s.blade_.re,      s.blade_.im,      s.mech_.re,      s.mech_.im,
        s.tone_.re,       s.tone_.im,       s.blade_step_.re, s.blade_step_.im,
        s.mech_step_.re,  s.mech_step_.im,  s.tone_step_.re, s.tone_step_.im,
        s.blade_amp_,     s.mech_amp_,      s.aero_gain_,    s.tone_amp_,
        k.b0,             k.b1,             k.b2,            k.a1,
        k.a2,             f.x1,             f.x2,            f.y1,
        f.y2};
    for (std::size_t q = 0; q < kFields; ++q) rows[q][l] = values[q];
    since[l] = s.since_renorm_;
  }
  // Each rotor's `len` aero-noise draws, from a local copy of its generator
  // (the same stream in the same order as render); pad lanes filter zeros.
  util::Scratch<double> noise{len * kLanes};
  for (std::size_t l = 0; l < kLanes; ++l) {
    if (l >= count) {
      for (std::size_t i = 0; i < len; ++i) noise[i * kLanes + l] = 0.0;
      continue;
    }
    GaussianNoise gen = group[l].noise_;
    for (std::size_t i = 0; i < len; ++i) noise[i * kLanes + l] = gen.next();
    group[l].noise_ = gen;
  }

  // Runs end where a lane is due for renormalization, which then happens
  // before that lane's next sample, as in render.
  for (std::size_t begin = 0; begin < len;) {
    std::size_t end = len;
    for (std::size_t l = 0; l < kLanes; ++l) {
      if (since[l] == kRenormInterval) {
        for (const Field re : {kBladeRe, kMechRe, kToneRe}) {
          Phasor p{rows[re][l], rows[re + 1][l]};
          p.normalize();
          rows[re][l] = p.re;
          rows[re + 1][l] = p.im;
        }
        since[l] = 0;
      }
      end = std::min(end, begin + (kRenormInterval - since[l]));
    }
    render_lane_run(rows, harmonics, noise.data(), out, begin, end);
    for (std::size_t& s : since) s += end - begin;
    begin = end;
  }

  for (std::size_t l = 0; l < count; ++l) {
    RotorSound& s = group[l];
    s.blade_ = {rows[kBladeRe][l], rows[kBladeIm][l]};
    s.mech_ = {rows[kMechRe][l], rows[kMechIm][l]};
    s.tone_ = {rows[kToneRe][l], rows[kToneIm][l]};
    s.aero_filter_.set_state({rows[kX1][l], rows[kX2][l], rows[kY1][l], rows[kY2][l]});
    s.since_renorm_ = since[l];
  }
}

double RotorSound::phasor_error() const {
  double worst = 0.0;
  for (const Phasor* p : {&blade_, &mech_, &tone_})
    worst = std::max(worst, std::abs(1.0 - std::sqrt(p->re * p->re + p->im * p->im)));
  return worst;
}

}  // namespace sb::acoustics
