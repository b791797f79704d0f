#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "acoustics/propagation.hpp"
#include "acoustics/rotor_sound.hpp"
#include "acoustics/synthesizer.hpp"
#include "core/flight_lab.hpp"
#include "dsp/fft.hpp"
#include "dsp/spectrogram.hpp"
#include "scenario/airframe.hpp"
#include "scenario/environment.hpp"
#include "util/checksum.hpp"
#include "util/simd.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace sb::acoustics {
namespace {

constexpr double kFs = 16000.0;

std::vector<double> render(RotorSound& synth, double omega, std::size_t n) {
  std::vector<double> out(n);
  synth.render(omega, out);
  return out;
}

// mix_block into fresh channels of the streams' length minus `lead`, with
// ambient noise off.
std::array<std::vector<double>, sensors::kNumMics> mix(
    std::span<const std::vector<double>> rotors, std::size_t lead,
    const sensors::MicGeometry& geom, std::span<const FlowSegment> flow = {},
    double directivity = 0.0) {
  std::array<std::vector<double>, sensors::kNumMics> out;
  std::array<std::span<double>, sensors::kNumMics> out_views;
  for (std::size_t m = 0; m < sensors::kNumMics; ++m) {
    out[m].assign(rotors[0].size() - lead, std::nan(""));
    out_views[m] = out[m];
  }
  std::array<GaussianNoise, sensors::kNumMics> noise;
  const std::vector<std::span<const double>> streams(rotors.begin(), rotors.end());
  mix_block(out_views, streams, lead, geom, kFs, 0.0, noise, flow, directivity, {});
  return out;
}

double band_rms(std::span<const double> signal, double lo, double hi) {
  dsp::StftConfig cfg;
  cfg.frame_size = 2048;
  cfg.hop_size = 1024;
  cfg.sample_rate = kFs;
  const auto spec = dsp::stft(signal, cfg);
  const auto amps = dsp::band_amplitude_over_time(spec, lo, hi);
  double s = 0;
  for (double a : amps) s += a * a;
  return std::sqrt(s / static_cast<double>(amps.size()));
}

TEST(RotorSound, EmitsAllThreeFrequencyGroups) {
  const double hover = sim::QuadrotorParams{}.hover_omega();
  RotorSound synth{{}, kFs, hover, Rng{1}};
  const auto sig = render(synth, hover, 16000);
  // Each group's characteristic region is compared against a quiet
  // neighbouring region of the same width.  (The aerodynamic band-pass has
  // a broad skirt, so the 3.3-4.3 kHz gap is not silent; the reference
  // regions below sit clear of it.)
  const double blade = band_rms(sig, 100, 600);
  const double mech = band_rms(sig, 2300, 2700);
  const double aero = band_rms(sig, 4800, 5800);
  const double ref_low = band_rms(sig, 900, 1400);    // above blade harmonics
  const double ref_mid = band_rms(sig, 1500, 1900);   // below the mech tone
  EXPECT_GT(blade, 2.0 * ref_low);
  EXPECT_GT(mech, 2.0 * ref_mid);
  EXPECT_GT(aero, 2.0 * ref_mid);
}

TEST(RotorSound, AmplitudeRisesWithRotorSpeed) {
  const double hover = sim::QuadrotorParams{}.hover_omega();
  RotorSound slow{{}, kFs, hover, Rng{2}};
  RotorSound fast{{}, kFs, hover, Rng{2}};
  const auto s_slow = render(slow, hover * 0.9, 16000);
  const auto s_fast = render(fast, hover * 1.1, 16000);
  EXPECT_GT(band_rms(s_fast, 4500, 6000), 1.5 * band_rms(s_slow, 4500, 6000));
  EXPECT_GT(band_rms(s_fast, 100, 600), 1.2 * band_rms(s_slow, 100, 600));
}

TEST(RotorSound, PitchTracksRotorSpeed) {
  // The mechanical tone frequency scales with rotation rate.
  const double hover = sim::QuadrotorParams{}.hover_omega();
  RotorSoundConfig cfg;
  RotorSound synth{cfg, kFs, hover, Rng{3}};
  const auto sig = render(synth, hover * 1.1, 32768);
  const auto mags = dsp::magnitude_spectrum(sig);
  // Expected tone: mech_ratio * rot_hz * 1.1
  const double rot_hz = hover / (2.0 * M_PI);
  const double expect_hz = cfg.mech_ratio * rot_hz * 1.1;
  std::size_t peak = 0;
  const auto lo = static_cast<std::size_t>((expect_hz - 400) / kFs * 32768);
  const auto hi = static_cast<std::size_t>((expect_hz + 400) / kFs * 32768);
  for (std::size_t k = lo; k < hi; ++k)
    if (mags[k] > mags[peak]) peak = k;
  EXPECT_NEAR(dsp::bin_frequency(peak, 32768, kFs), expect_hz, 60.0);
}

TEST(RotorSound, DetuneShiftsTone) {
  const double hover = sim::QuadrotorParams{}.hover_omega();
  RotorSoundConfig a, b;
  b.detune = 0.1;
  RotorSound sa{a, kFs, hover, Rng{4}};
  RotorSound sb{b, kFs, hover, Rng{4}};
  const auto siga = render(sa, hover, 32768);
  const auto sigb = render(sb, hover, 32768);
  const double rot_hz = hover / (2.0 * M_PI);
  const double fa = a.mech_ratio * rot_hz;
  const double fb = a.mech_ratio * 1.1 * rot_hz;
  EXPECT_GT(dsp::goertzel(siga, fa, kFs), 3.0 * dsp::goertzel(siga, fb, kFs));
  EXPECT_GT(dsp::goertzel(sigb, fb, kFs), 3.0 * dsp::goertzel(sigb, fa, kFs));
}

TEST(Propagation, MixAppliesGains) {
  const auto geom = sensors::compute_geometry({}, sim::QuadrotorParams{});
  std::array<std::vector<double>, sim::kNumRotors> rotors;
  // Only rotor 0 active, constant signal.
  for (auto& r : rotors) r.assign(200, 0.0);
  std::fill(rotors[0].begin(), rotors[0].end(), 1.0);
  const auto audio = mix(rotors, 100, geom);
  for (std::size_t m = 0; m < sensors::kNumMics; ++m)
    EXPECT_NEAR(audio[m].back(), geom.gain[m][0], 1e-12);
}

TEST(Propagation, MixAppliesDelays) {
  const auto geom = sensors::compute_geometry({}, sim::QuadrotorParams{});
  std::array<std::vector<double>, sim::kNumRotors> rotors;
  for (auto& r : rotors) r.assign(120, 0.0);
  rotors[0][100] = 1.0;  // impulse exactly at the window start (lead = 100)
  const auto audio = mix(rotors, 100, geom);
  for (std::size_t m = 0; m < sensors::kNumMics; ++m) {
    const auto expected_delay =
        static_cast<std::size_t>(std::llround(geom.delay_s[m][0] * kFs));
    // The impulse lands `expected_delay` samples into the output.
    ASSERT_LT(expected_delay, audio[m].size());
    EXPECT_NEAR(audio[m][expected_delay], geom.gain[m][0], 1e-12);
  }
}

// One flow segment per output sample: every segment is shorter than a
// vector, so the vector backend mixes each one in its scalar tail.
TEST(Propagation, FlowDirectivityBreaksChannelBalance) {
  const auto geom = sensors::compute_geometry({}, sim::QuadrotorParams{});
  std::array<std::vector<double>, sim::kNumRotors> rotors;
  for (auto& r : rotors) r.assign(300, 1.0);
  const auto still = mix(rotors, 100, geom);
  std::vector<FlowSegment> flow;
  for (std::size_t i = 0; i < 200; ++i) flow.push_back({i, Vec3{5, 0, 0}});
  const auto moving = mix(rotors, 100, geom, flow, 0.1);
  double max_change = 0.0;
  for (std::size_t m = 0; m < sensors::kNumMics; ++m) {
    ASSERT_EQ(moving[m], std::vector<double>(200, moving[m].back())) << "mic " << m;
    max_change = std::max(max_change, std::abs(moving[m].back() - still[m].back()));
  }
  EXPECT_GT(max_change, 0.01);
}

TEST(Propagation, ExternalAttenuationMatchesPaper) {
  // The paper measured ~46% of on-frame intensity at 0.5 m (§IV-D); the
  // rotor-to-mic distance is ~0.2 m.
  const double on_frame = external_attenuation(0.2);
  const double at_half_meter = external_attenuation(0.5);
  EXPECT_NEAR(at_half_meter / on_frame, 0.46, 0.08);
}

TEST(Propagation, ExternalSourceAddsDelayedEnergy) {
  const auto geom = sensors::compute_geometry({}, sim::QuadrotorParams{});
  MultiChannelAudio audio;
  audio.sample_rate = kFs;
  for (auto& ch : audio.channels) ch.assign(200, 0.0);
  std::vector<double> source(200, 1.0);
  add_external_source(audio, source, Vec3{0, 0, -0.5}, geom);
  for (const auto& ch : audio.channels) {
    EXPECT_NEAR(ch.front(), 0.0, 1e-12);  // before the propagation delay
    EXPECT_GT(ch.back(), 0.01);
  }
}

TEST(Synthesizer, DeterministicPerWindow) {
  sim::QuadrotorParams quad;
  AudioSynthesizer synth{{}, quad, 42};
  sim::FlightLog log;
  log.rates = sim::SimRates{};
  const double w = quad.hover_omega();
  for (int i = 0; i < 2000; ++i) {
    log.t.push_back(i * log.rates.physics_dt());
    log.rotor_omega.push_back({w, w, w, w});
    log.true_euler.push_back({});
    log.true_vel.push_back({});
  }
  const auto a = synth.synthesize(log, 1.0, 1.5);
  const auto b = synth.synthesize(log, 1.0, 1.5);
  ASSERT_EQ(a.num_samples(), b.num_samples());
  for (std::size_t i = 0; i < a.num_samples(); ++i)
    EXPECT_DOUBLE_EQ(a.channels[0][i], b.channels[0][i]);
}

TEST(Synthesizer, DifferentSeedsDiffer) {
  sim::QuadrotorParams quad;
  AudioSynthesizer s1{{}, quad, 42};
  AudioSynthesizer s2{{}, quad, 43};
  sim::FlightLog log;
  log.rates = sim::SimRates{};
  const double w = quad.hover_omega();
  for (int i = 0; i < 1000; ++i) {
    log.t.push_back(i * log.rates.physics_dt());
    log.rotor_omega.push_back({w, w, w, w});
    log.true_euler.push_back({});
    log.true_vel.push_back({});
  }
  const auto a = s1.synthesize(log, 0.5, 1.0);
  const auto b = s2.synthesize(log, 0.5, 1.0);
  double diff = 0.0;
  for (std::size_t i = 0; i < a.num_samples(); ++i)
    diff += std::abs(a.channels[0][i] - b.channels[0][i]);
  EXPECT_GT(diff, 1.0);
}

TEST(Synthesizer, WindowLengthMatchesRequest) {
  sim::QuadrotorParams quad;
  AudioSynthesizer synth{{}, quad, 1};
  sim::FlightLog log;
  log.rates = sim::SimRates{};
  const double w = quad.hover_omega();
  for (int i = 0; i < 2000; ++i) {
    log.t.push_back(i * log.rates.physics_dt());
    log.rotor_omega.push_back({w, w, w, w});
    log.true_euler.push_back({});
    log.true_vel.push_back({});
  }
  const auto audio = synth.synthesize(log, 0.0, 0.5);
  EXPECT_EQ(audio.num_samples(), 8000u);
}

TEST(Synthesizer, FasterRotorsAreLouder) {
  sim::QuadrotorParams quad;
  AudioSynthesizer synth{{}, quad, 9};
  const double w = quad.hover_omega();
  auto make_log = [&](double scale) {
    sim::FlightLog log;
    log.rates = sim::SimRates{};
    for (int i = 0; i < 1000; ++i) {
      log.t.push_back(i * log.rates.physics_dt());
      log.rotor_omega.push_back({w * scale, w * scale, w * scale, w * scale});
      log.true_euler.push_back({});
      log.true_vel.push_back({});
    }
    return log;
  };
  const auto slow = synth.synthesize(make_log(0.9), 0.5, 1.5);
  const auto fast = synth.synthesize(make_log(1.1), 0.5, 1.5);
  double e_slow = 0, e_fast = 0;
  for (double x : slow.channels[0]) e_slow += x * x;
  for (double x : fast.channels[0]) e_fast += x * x;
  EXPECT_GT(e_fast, 1.5 * e_slow);
}

TEST(MotorUnitDetune, DeterministicDistinctAndBounded) {
  const double spread = 0.08;
  for (int r = 0; r < 8; ++r) {
    const double d = motor_unit_detune(0xB700, r, spread);
    EXPECT_DOUBLE_EQ(d, motor_unit_detune(0xB700, r, spread));  // pure function
    EXPECT_LE(std::abs(d), spread);
  }
  // Distinct across rotors of one unit and across units.
  EXPECT_NE(motor_unit_detune(0xB700, 0, spread), motor_unit_detune(0xB700, 1, spread));
  EXPECT_NE(motor_unit_detune(0xB700, 0, spread), motor_unit_detune(0xC900, 0, spread));
  // Spread scales the same unit draw linearly.
  EXPECT_DOUBLE_EQ(motor_unit_detune(7, 3, 0.16), 2.0 * motor_unit_detune(7, 3, 0.08));
}

sim::FlightLog hover_log(const sim::QuadrotorParams& quad, int steps) {
  sim::FlightLog log;
  log.rates = sim::SimRates{};
  const double w = quad.hover_omega();
  for (int i = 0; i < steps; ++i) {
    log.t.push_back(i * log.rates.physics_dt());
    log.rotor_omega.push_back({w, w, w, w});
    log.true_euler.push_back({});
    log.true_vel.push_back({});
  }
  return log;
}

TEST(Synthesizer, ExplicitLegacyDetuneTableIsBitwiseIdentical) {
  // An empty rotor_detune vector means "the measured X500 table"; spelling
  // that table out must produce the identical waveform, sample for sample.
  sim::QuadrotorParams quad;
  const auto log = hover_log(quad, 2000);
  SynthesizerConfig explicit_cfg;
  explicit_cfg.rotor_detune = {-0.10, -0.035, 0.035, 0.10};
  AudioSynthesizer legacy{{}, quad, 42};
  AudioSynthesizer spelled{explicit_cfg, quad, 42};
  const auto a = legacy.synthesize(log, 1.0, 1.5);
  const auto b = spelled.synthesize(log, 1.0, 1.5);
  ASSERT_EQ(a.num_samples(), b.num_samples());
  for (std::size_t m = 0; m < a.channels.size(); ++m)
    for (std::size_t i = 0; i < a.num_samples(); ++i)
      ASSERT_EQ(a.channels[m][i], b.channels[m][i]);
}

TEST(Synthesizer, RotorDetuneNeedsOneEntryPerRotor) {
  const sim::QuadrotorParams quad;  // four rotors
  SynthesizerConfig cfg;
  for (const std::size_t size : {1, 3, 5, 8}) {
    cfg.rotor_detune.assign(size, 0.01);
    EXPECT_THROW((AudioSynthesizer{cfg, quad, 42}), std::invalid_argument) << size;
  }
  cfg.rotor_detune.assign(4, 0.01);
  EXPECT_NO_THROW((AudioSynthesizer{cfg, quad, 42}));
  cfg.rotor_detune.clear();  // the legacy table
  EXPECT_NO_THROW((AudioSynthesizer{cfg, quad, 42}));
}

TEST(Synthesizer, GroundReflectionOffIsBitwiseIdentical) {
  // Either field at zero gates the image source off entirely — the output
  // must be bit-identical to the default free-field path.
  sim::QuadrotorParams quad;
  const auto log = hover_log(quad, 2000);
  SynthesizerConfig altitude_only;
  altitude_only.ground_altitude_m = 2.5;  // coefficient still 0
  AudioSynthesizer base{{}, quad, 42};
  AudioSynthesizer gated{altitude_only, quad, 42};
  const auto a = base.synthesize(log, 1.0, 1.5);
  const auto b = gated.synthesize(log, 1.0, 1.5);
  for (std::size_t m = 0; m < a.channels.size(); ++m)
    for (std::size_t i = 0; i < a.num_samples(); ++i)
      ASSERT_EQ(a.channels[m][i], b.channels[m][i]);
}

TEST(Synthesizer, GroundReflectionChangesWaveform) {
  sim::QuadrotorParams quad;
  const auto log = hover_log(quad, 2000);
  SynthesizerConfig ground_cfg;
  ground_cfg.ground_reflect = 0.7;
  ground_cfg.ground_altitude_m = 2.5;
  AudioSynthesizer base{{}, quad, 42};
  AudioSynthesizer grounded{ground_cfg, quad, 42};
  const auto a = base.synthesize(log, 1.0, 1.5);
  const auto b = grounded.synthesize(log, 1.0, 1.5);
  double diff = 0.0;
  for (std::size_t i = 0; i < a.num_samples(); ++i)
    diff += std::abs(a.channels[0][i] - b.channels[0][i]);
  EXPECT_GT(diff, 0.1);
}

TEST(RotorSound, PhasorMagnitudeStaysUnitOverTenMinutes) {
  // A constant speed never retunes, so only the periodic renormalization
  // keeps rounding from growing the oscillator phasors.
  const double hover = sim::QuadrotorParams{}.hover_omega();
  RotorSound synth{{}, kFs, hover, Rng{5}};
  std::vector<double> block(16000);
  double worst = 0.0;
  for (int second = 0; second < 600; ++second) {
    synth.render(hover, block);
    worst = std::max(worst, synth.phasor_error());
  }
  EXPECT_LT(worst, 1e-9);
}

TEST(RotorSound, RenderMatchesPerSampleCalls) {
  const double hover = sim::QuadrotorParams{}.hover_omega();
  RotorSound a{{}, kFs, hover, Rng{6}};
  RotorSound b{{}, kFs, hover, Rng{6}};
  std::vector<double> block(100);
  for (const double omega : {hover, 1.1 * hover, 0.95 * hover}) {
    a.render(omega, block);
    for (double x : block) {
      double y = 0.0;
      b.render(omega, {&y, 1});
      ASSERT_EQ(x, y);
    }
  }
}

// render_lanes against per-rotor render on both backends, for groups of
// every size up to the lane width (short groups pad lanes): each rotor has
// its own detune and speed schedule, runs are 0 to 9000 samples long, and
// in the long constant-speed runs the lanes renormalize at different
// samples (rotor 0 holds its speed from run 5, the others from run 6).
TEST(RotorSound, RenderLanesMatchesRender) {
  const double hover = sim::QuadrotorParams{}.hover_omega();
  const std::size_t lens[] = {40, 0, 1, 7, 40, 40, 5000, 9000, 40};
  for (const auto backend : {util::SimdBackend::kVector, util::SimdBackend::kScalar}) {
    const util::SimdBackend saved = util::simd_backend();
    util::set_simd_backend(backend);
    for (std::size_t count = 1; count <= util::simd::kDoubleLanes; ++count) {
      SCOPED_TRACE(count);
      std::vector<RotorSound> lanes, solo;
      Rng base{100 + count};
      for (std::size_t r = 0; r < count; ++r) {
        RotorSoundConfig cfg;
        cfg.detune = 0.03 * static_cast<double>(r);
        const Rng rng = base.split();
        lanes.emplace_back(cfg, kFs, hover, rng);
        solo.emplace_back(cfg, kFs, hover, rng);
      }
      for (std::size_t j = 0; j < std::size(lens); ++j) {
        std::vector<double> omega(count);
        std::vector<std::vector<double>> got(count, std::vector<double>(lens[j]));
        std::vector<double*> out(count);
        for (std::size_t r = 0; r < count; ++r) {
          const double jr = static_cast<double>((j * 3 + r) % 5);
          omega[r] = j < 5    ? hover * (1.0 + 0.01 * jr)
                     : r == 0 ? hover * 1.05
                     : j == 5 ? hover * 0.97
                              : hover * 0.99;
          out[r] = got[r].data();
        }
        RotorSound::render_lanes(lanes, omega, out, lens[j]);
        for (std::size_t r = 0; r < count; ++r) {
          std::vector<double> want(lens[j]);
          solo[r].render(omega[r], want);
          ASSERT_EQ(got[r], want) << "run " << j << " rotor " << r;
        }
      }
    }
    util::set_simd_backend(saved);
  }
}

TEST(RotorSound, RenderLanesWithMixedHarmonicsOrBadGroups) {
  const double hover = sim::QuadrotorParams{}.hover_omega();
  RotorSoundConfig five;
  five.blade_harmonics = 5;
  std::vector<RotorSound> lanes{{{}, kFs, hover, Rng{1}}, {five, kFs, hover, Rng{2}}};
  std::vector<RotorSound> solo = lanes;
  std::vector<double> a(300), b(300), want(300);
  const double omega[] = {hover, 1.1 * hover};
  double* const out[] = {a.data(), b.data()};
  RotorSound::render_lanes(lanes, omega, out, 300);  // every ISA has >= 2 lanes
  solo[0].render(omega[0], want);
  EXPECT_EQ(a, want);
  solo[1].render(omega[1], want);
  EXPECT_EQ(b, want);

  EXPECT_THROW(RotorSound::render_lanes({}, {}, {}, 8), std::invalid_argument);
  EXPECT_THROW(RotorSound::render_lanes(std::span{lanes}.first(1), omega,
                                        std::span{out}.first(1), 8),
               std::invalid_argument);
  std::vector<RotorSound> wide(util::simd::kDoubleLanes + 1, lanes[0]);
  std::vector<double> omegas(wide.size(), hover);
  std::vector<double*> outs(wide.size(), a.data());
  EXPECT_THROW(RotorSound::render_lanes(wide, omegas, outs, 8), std::invalid_argument);
}

// mix_block's one-pass vector mix against the multi-pass scalar oracle, on
// six rotors: flow segments whose boundaries fall off the lane grid, the
// reflected tap, ambient noise, each on and off, and the mic generators'
// state afterwards.
TEST(Propagation, MixBlockIsIdenticalAcrossSimdBackends) {
  const auto quad = scenario::find_airframe("hexa-700")->quad_params();
  const auto geom = sensors::compute_geometry({}, quad);
  constexpr std::size_t kLead = 300, kN = 1003;
  Rng rng{77};
  std::vector<std::vector<double>> streams(static_cast<std::size_t>(quad.num_rotors),
                                           std::vector<double>(kLead + kN));
  for (auto& s : streams)
    for (double& x : s) x = rng.normal();
  const std::vector<std::span<const double>> views(streams.begin(), streams.end());
  std::vector<FlowSegment> flow;
  for (const std::size_t begin : {0, 3, 40, 41, 77, 500, 1001})
    flow.push_back({begin, Vec3{rng.normal(), rng.normal(), rng.normal()}});
  const auto mix = [&](util::SimdBackend backend, double directivity, double ambient,
                       const GroundReflection& ground) {
    const util::SimdBackend saved = util::simd_backend();
    util::set_simd_backend(backend);
    std::array<std::vector<double>, sensors::kNumMics> out;
    std::array<std::span<double>, sensors::kNumMics> out_views;
    std::array<GaussianNoise, sensors::kNumMics> noise;
    Rng seed{5};
    for (std::size_t m = 0; m < sensors::kNumMics; ++m) {
      out[m].assign(kN, std::nan(""));
      out_views[m] = out[m];
      noise[m] = GaussianNoise{seed.split()};
    }
    mix_block(out_views, views, kLead, geom, kFs, ambient, noise, flow, directivity,
              ground);
    util::set_simd_backend(saved);
    for (std::size_t m = 0; m < sensors::kNumMics; ++m)
      out[m].push_back(noise[m].next());  // the generator's next draw
    return out;
  };
  for (const double directivity : {0.0, 0.1})
    for (const double ambient : {0.0, 0.002})
      for (const GroundReflection ground :
           {GroundReflection{}, GroundReflection{0.3, 233}}) {
        SCOPED_TRACE(testing::Message() << "directivity " << directivity << " ambient "
                                        << ambient << " ground " << ground.gain_scale);
        const auto vector = mix(util::SimdBackend::kVector, directivity, ambient, ground);
        const auto scalar = mix(util::SimdBackend::kScalar, directivity, ambient, ground);
        for (std::size_t m = 0; m < sensors::kNumMics; ++m)
          ASSERT_EQ(vector[m], scalar[m]) << "mic " << m;
      }
  flow.front().begin = 1;  // throws before it mixes, on the current backend
  EXPECT_THROW(mix(util::simd_backend(), 0.1, 0.0, {}), std::invalid_argument);
}

// A real closed-loop flight: rotor speeds change every physics step and the
// body moves, so the recording exercises retuning, airflow and every block
// boundary.
const core::Flight& line_flight() {
  static const core::Flight kFlight = [] {
    core::FlightLab lab;
    core::FlightScenario s;
    s.mission = sim::Mission::line({0, 0, -10}, {15, 0, -10}, 3.0, 4.0);
    s.wind.gust_stddev = 0.3;
    s.seed = 17;
    return lab.fly(s);
  }();
  return kFlight;
}

void expect_same_audio(const MultiChannelAudio& a, const MultiChannelAudio& b) {
  ASSERT_EQ(a.num_samples(), b.num_samples());
  for (std::size_t m = 0; m < a.channels.size(); ++m)
    ASSERT_EQ(a.channels[m], b.channels[m]) << "mic " << m;
}

TEST(Synthesizer, AdjacentSlicesConcatenateToTheRecordingBitwise) {
  const auto& flight = line_flight();
  const auto synth = core::FlightLab{}.synthesizer(flight);
  // Cut points off the render's block grid and off the physics grid.
  const double a = 0.3, b = 1.2371, c = 3.5;
  const auto whole = synth.synthesize(flight.log, a, c);
  const auto left = synth.synthesize(flight.log, a, b);
  const auto right = synth.synthesize(flight.log, b, c);
  ASSERT_EQ(left.num_samples() + right.num_samples(), whole.num_samples());
  for (std::size_t m = 0; m < whole.channels.size(); ++m) {
    std::vector<double> joined = left.channels[m];
    joined.insert(joined.end(), right.channels[m].begin(), right.channels[m].end());
    ASSERT_EQ(joined, whole.channels[m]) << "mic " << m;
  }
  // A slice is the recording's samples [llround(t0 fs), llround(t1 fs)).
  const auto recording = synth.synthesize(flight.log, 0.0, c);
  for (std::size_t m = 0; m < whole.channels.size(); ++m)
    ASSERT_TRUE(std::equal(whole.channels[m].begin(), whole.channels[m].end(),
                           recording.channels[m].begin() + std::llround(a * kFs)));
}

// Recordings that GoldenQuad's flight never reaches, each a slice [t0, t1)
// of one flight's recording: six and eight rotors with their catalog
// detunes, the pad environment's ground-reflected tap, a constant-omega
// hover whose phasors renormalize inside a physics step, and an explicit
// rotor_detune list with airflow off.  Slices that start off the render's
// block grid also mix the blocks before t0.
struct SynthCase {
  std::string name;
  AudioSynthesizer synth;
  sim::FlightLog log;
  double t0, t1;
};

const std::vector<SynthCase>& synth_cases() {
  static const std::vector<SynthCase> kCases = [] {
    std::vector<SynthCase> out;
    const auto fly = [&](const std::string& name, const core::FlightLab::Config& cfg,
                         double t0, double t1) {
      const core::FlightLab lab{cfg};
      core::FlightScenario s;
      s.mission = sim::Mission::line({0, 0, -10}, {15, 0, -10}, 3.0, 4.0);
      s.wind.gust_stddev = 0.3;
      s.seed = 17;
      const auto flight = lab.fly(s);
      out.push_back({name, lab.synthesizer(flight), flight.log, t0, t1});
    };
    for (const char* frame : {"hexa-700", "octo-900"})
      fly(frame, scenario::find_airframe(frame)->lab_config(), 0.0, 3.0);
    fly("low-hover-pad", scenario::find_environment("low-hover-pad")->apply({}),
        0.4213, 3.5);
    core::FlightLab::Config detuned;
    detuned.synth.rotor_detune = {0.07, -0.02, 0.045, -0.09};
    detuned.synth.flow_directivity = 0.0;
    fly("rotor-detune-no-flow", detuned, 1.0, 2.7);
    // 2.5 s at one speed: the phasors renormalize at sample 4096, 16
    // samples into physics step 102.
    const sim::QuadrotorParams quad;
    out.push_back({"constant-omega-hover", AudioSynthesizer{{}, quad, 23},
                   hover_log(quad, 1000), 0.0, 2.5});
    return out;
  }();
  return kCases;
}

std::uint32_t audio_crc(const MultiChannelAudio& audio) {
  std::uint32_t crc = 0;
  for (const auto& ch : audio.channels)
    crc = util::crc32(ch.data(), ch.size() * sizeof(double), crc);
  return crc;
}

TEST(Synthesizer, RecordingIsIdenticalAcrossThreadsAndSimdBackends) {
  const auto& flight = line_flight();
  std::vector<SynthCase> cases{
      {"line", core::FlightLab{}.synthesizer(flight), flight.log, 0.0,
       flight.log.duration()}};
  cases.insert(cases.end(), synth_cases().begin(), synth_cases().end());
  const util::SimdBackend backend = util::simd_backend();
  for (const SynthCase& c : cases) {
    SCOPED_TRACE(c.name);
    util::ThreadPool::set_threads(1);
    const auto one = c.synth.synthesize(c.log, c.t0, c.t1);
    util::ThreadPool::set_threads(4);
    const auto four = c.synth.synthesize(c.log, c.t0, c.t1);
    util::set_simd_backend(util::SimdBackend::kScalar);
    const auto scalar = c.synth.synthesize(c.log, c.t0, c.t1);
    util::set_simd_backend(backend);
    util::ThreadPool::set_threads(0);
    expect_same_audio(one, four);
    expect_same_audio(one, scalar);
  }
}

// Pins the double samples of synth_cases() under both SIMD backends.
TEST(Synthesizer, CatalogAndEdgeRecordingsArePinned) {
  const std::map<std::string, std::uint32_t> pinned{
      {"hexa-700", 0xbc0c71e4u},
      {"octo-900", 0xed4b0260u},
      {"low-hover-pad", 0xd801e4bau},
      {"rotor-detune-no-flow", 0x55b7ff9bu},
      {"constant-omega-hover", 0x62d6b80bu},
  };
  const util::SimdBackend saved = util::simd_backend();
  for (const auto backend : {util::SimdBackend::kVector, util::SimdBackend::kScalar}) {
    util::set_simd_backend(backend);
    for (const SynthCase& c : synth_cases())
      EXPECT_EQ(audio_crc(c.synth.synthesize(c.log, c.t0, c.t1)), pinned.at(c.name))
          << c.name << (backend == util::SimdBackend::kVector ? " vector" : " scalar");
  }
  util::set_simd_backend(saved);
}

TEST(Synthesizer, ConstantOmegaPeaksAtBladeMechanicalAndVortexTones) {
  sim::QuadrotorParams quad;
  SynthesizerConfig cfg;
  cfg.rotor_detune = {0.0, 0.0, 0.0, 0.0};  // every rotor on the same tones
  AudioSynthesizer synth{cfg, quad, 11};
  const auto audio = synth.synthesize(hover_log(quad, 1200), 0.5, 2.5);
  const double rot_hz = quad.hover_omega() / (2.0 * M_PI);
  const auto& rc = cfg.rotor;
  const auto& mic = audio.channels[0];
  for (const double tone : {rc.blade_count * rot_hz, rc.mech_ratio * rot_hz,
                            rc.aero_tone_ratio * rot_hz}) {
    const double peak = dsp::goertzel(mic, tone, kFs);
    for (const double off : {-0.06, 0.06})
      EXPECT_GT(peak, 5.0 * dsp::goertzel(mic, tone * (1.0 + off), kFs))
          << "tone " << tone << " Hz";
  }
}

// Golden pin of the default quad's audio: samples [3 s, 4 s) of the flight's
// one continuous recording.  Re-pinned when synthesis moved from per-window
// captures to one recording per flight (phasor oscillators, per-mic noise
// streams); see sim_test's GoldenQuad for the flight-side pins.
TEST(GoldenQuad, AudioBitwiseIdenticalToSeed) {
  core::FlightLab lab;
  core::FlightScenario s;
  s.mission = sim::Mission::hover({0, 0, -10}, 10.0);
  s.wind.mean = {1.0, 0.5, 0.0};
  s.wind.gust_stddev = 0.4;
  s.seed = 42;
  const auto flight = lab.fly(s);
  const auto synth = lab.synthesizer(flight);
  const auto audio = synth.synthesize(flight.log, 3.0, 4.0);
  std::uint32_t crc = 0;
  for (const auto& ch : audio.channels)
    for (double x : ch) crc = util::crc32(&x, sizeof x, crc);
  EXPECT_EQ(crc, 0xb62e8ee4u);
}

}  // namespace
}  // namespace sb::acoustics
