#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "core/dataset.hpp"
#include "core/flight_lab.hpp"
#include "core/imu_rca.hpp"
#include "core/rca_engine.hpp"
#include "core/sensory_mapper.hpp"
#include "core/signature.hpp"
#include "io/decision_trace.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"
#include "util/checksum.hpp"
#include "util/simd.hpp"

namespace sb::core {
namespace {

acoustics::MultiChannelAudio tone_audio(double freq, std::size_t n = 8000,
                                        double amp = 0.5) {
  acoustics::MultiChannelAudio audio;
  audio.sample_rate = 16000.0;
  for (auto& ch : audio.channels) {
    ch.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      ch[i] = amp * std::sin(2.0 * M_PI * freq * static_cast<double>(i) / 16000.0);
  }
  return audio;
}

TEST(Signature, ShapeMatchesConfig) {
  SignatureConfig cfg;
  const auto shape = signature_shape(cfg);
  EXPECT_EQ(shape.channels, 4u);
  EXPECT_EQ(shape.frames, 14u);
  EXPECT_EQ(shape.bands, 32u);

  const auto sig = compute_signature(tone_audio(1000.0), cfg);
  ASSERT_EQ(sig.ndim(), 4u);
  EXPECT_EQ(sig.dim(0), 1u);
  EXPECT_EQ(sig.dim(1), 4u);
  EXPECT_EQ(sig.dim(2), 14u);
  EXPECT_EQ(sig.dim(3), 32u);
}

TEST(Signature, StretchedCaptureKeepsShape) {
  SignatureConfig cfg;
  // 5x time-shift augmentation window: 2.5 s of audio -> same grid.
  const auto sig = compute_signature(tone_audio(1000.0, 40000), cfg);
  EXPECT_EQ(sig.dim(2), 14u);
  EXPECT_EQ(sig.dim(3), 32u);
}

TEST(Signature, TooShortWindowThrows) {
  SignatureConfig cfg;
  EXPECT_THROW(compute_signature(tone_audio(1000.0, 512), cfg),
               std::invalid_argument);
}

TEST(Signature, LowPassSuppressesAbove6kHz) {
  SignatureConfig cfg;
  const auto in_band = compute_signature(tone_audio(5000.0), cfg);
  const auto out_band = compute_signature(tone_audio(7500.0), cfg);
  // Feature energy above the silence floor.
  auto energy = [](const ml::Tensor& t) {
    double s = 0;
    for (float v : t.flat()) s += v - dsp::kSilenceFeature;
    return s;
  };
  EXPECT_GT(energy(in_band), 1.5 * energy(out_band));
}

TEST(Signature, ToneLandsInItsBand) {
  SignatureConfig cfg;
  const auto sig = compute_signature(tone_audio(2500.0), cfg);
  // Band 13 covers 2437-2625 Hz; compare against a distant band.
  const std::size_t frames = sig.dim(2), bands = sig.dim(3);
  const double hit = sig[(0 * frames + 5) * bands + 13];
  const double miss = sig[(0 * frames + 5) * bands + 25];
  EXPECT_GT(hit, miss + 2.0);
}

TEST(FlightLab, DeterministicForSameSeed) {
  const auto f1 = test::hover_flight(5.0, 99);
  const auto f2 = test::hover_flight(5.0, 99);
  ASSERT_EQ(f1.log.t.size(), f2.log.t.size());
  for (std::size_t i = 0; i < f1.log.t.size(); i += 100) {
    EXPECT_DOUBLE_EQ(f1.log.true_pos[i].x, f2.log.true_pos[i].x);
    EXPECT_DOUBLE_EQ(f1.log.true_pos[i].z, f2.log.true_pos[i].z);
  }
  EXPECT_EQ(f1.audio_seed, f2.audio_seed);
}

TEST(FlightLab, DifferentSeedsDiffer) {
  const auto f1 = test::hover_flight(5.0, 1);
  const auto f2 = test::hover_flight(5.0, 2);
  EXPECT_NE(f1.audio_seed, f2.audio_seed);
}

TEST(FlightLab, LogStreamsHaveExpectedRates) {
  const auto f = test::hover_flight(5.0, 3);
  const auto& log = f.log;
  EXPECT_NEAR(static_cast<double>(log.t.size()), 5.0 * 400, 2);
  EXPECT_NEAR(static_cast<double>(log.imu.size()), 5.0 * 200, 2);
  EXPECT_NEAR(static_cast<double>(log.gps.size()), 5.0 * 5, 2);
  EXPECT_EQ(log.nav.size(), log.gps.size());
  EXPECT_EQ(log.setpoint.size(), log.t.size());
}

TEST(FlightLab, BenignFlightHasNoAttackMetadata) {
  const auto f = test::hover_flight(4.0, 4);
  EXPECT_FALSE(f.log.imu_attacked);
  EXPECT_FALSE(f.log.gps_attacked);
  EXPECT_LT(f.log.attack_start, 0.0);
}

TEST(FlightLab, AttackMetadataRecorded) {
  FlightScenario s;
  s.mission = sim::Mission::hover({0, 0, -10}, 8.0);
  attacks::ImuAttackConfig a;
  a.start = 3.0;
  a.end = 6.0;
  s.imu_attack = a;
  s.seed = 5;
  const auto f = test::lab().fly(s);
  EXPECT_TRUE(f.log.imu_attacked);
  EXPECT_DOUBLE_EQ(f.log.attack_start, 3.0);
  EXPECT_DOUBLE_EQ(f.log.attack_end, 6.0);
}

TEST(FlightLab, HoverStaysNearSetpoint) {
  const auto f = test::hover_flight(8.0, 6);
  double max_err = 0;
  for (std::size_t i = 1600; i < f.log.t.size(); ++i)
    max_err = std::max(max_err, (f.log.true_pos[i] - Vec3{0, 0, -10}).norm());
  EXPECT_LT(max_err, 2.0);
}

TEST(FlightLab, TrainingScenariosCoverSixFamilies) {
  const auto scenarios = test::lab().training_scenarios(6, 30.0);
  EXPECT_EQ(scenarios.size(), 36u);  // the paper's 36 training flights
  std::set<std::string> names;
  for (const auto& s : scenarios) names.insert(s.mission.name());
  EXPECT_GE(names.size(), 5u);
}

TEST(FlightLab, MotorHealthShiftsRotorSpeeds) {
  FlightScenario healthy;
  healthy.mission = sim::Mission::hover({0, 0, -10}, 6.0);
  healthy.seed = 7;
  FlightScenario degraded = healthy;
  degraded.motor_health = 0.85;
  const auto f1 = test::lab().fly(healthy);
  const auto f2 = test::lab().fly(degraded);
  const double w1 = f1.log.mean_omega(3, 6)[0];
  const double w2 = f2.log.mean_omega(3, 6)[0];
  EXPECT_GT(w2, w1 * 1.04);  // degraded motors must spin faster to hover
}

TEST(Dataset, WindowCountMatchesStride) {
  DatasetConfig cfg;
  cfg.stride = 0.5;
  cfg.settle_time = 2.0;
  DatasetBuilder builder{cfg, test::lab()};
  const auto f = test::hover_flight(7.0, 8);
  builder.add_flight(f);
  // Windows start at 2.0, 2.5, ..., last with t0+0.5 <= ~7.0.
  EXPECT_NEAR(static_cast<double>(builder.size()), 9.0, 1.0);
}

TEST(Dataset, AugmentationMultipliesWindows) {
  DatasetConfig plain;
  plain.stride = 0.5;
  DatasetBuilder b1{plain, test::lab()};
  DatasetConfig aug = plain;
  aug.augmentation_factors = {2.0};
  DatasetBuilder b2{aug, test::lab()};
  const auto f = test::hover_flight(8.0, 9);
  b1.add_flight(f);
  b2.add_flight(f);
  EXPECT_GT(b2.size(), b1.size());
  EXPECT_LE(b2.size(), 2 * b1.size());
}

TEST(Dataset, BuildShapes) {
  DatasetConfig cfg;
  cfg.stride = 0.5;
  DatasetBuilder builder{cfg, test::lab()};
  builder.add_flight(test::hover_flight(6.0, 10));
  const auto data = builder.build();
  ASSERT_EQ(data.x.ndim(), 4u);
  EXPECT_EQ(data.x.dim(0), builder.size());
  EXPECT_EQ(data.y.dim(1), kLabelDim);
}

TEST(Dataset, HoverLabelsAreNearZeroAccel) {
  DatasetConfig cfg;
  cfg.stride = 0.5;
  DatasetBuilder builder{cfg, test::lab()};
  builder.add_flight(test::hover_flight(6.0, 11));
  const auto data = builder.build();
  for (std::size_t i = 0; i < data.y.dim(0); ++i) {
    EXPECT_LT(std::abs(data.y[i * kLabelDim + 0]), 1.5);
    EXPECT_LT(std::abs(data.y[i * kLabelDim + 2]), 1.5);
  }
}

TEST(FlightLab, ActuatorDosSlowsRotorsAndCostsAltitude) {
  // §V-B extension: the PWM block waveform audibly collapses the attacked
  // rotors' speed and the vehicle loses altitude during the attack.
  FlightScenario s;
  s.mission = sim::Mission::hover({0, 0, -30}, 20.0);
  attacks::ActuatorDosConfig a;
  a.start = 8.0;
  a.end = 14.0;
  s.actuator_attack = a;
  s.seed = 15;
  const auto f = test::lab().fly(s);

  double min_omega = 1e9, max_sink = -1e9;
  for (std::size_t i = 0; i < f.log.t.size(); ++i) {
    if (f.log.t[i] > 8.3 && f.log.t[i] < 14.0) {
      min_omega = std::min(min_omega, f.log.rotor_omega[i][0]);
      max_sink = std::max(max_sink, f.log.true_pos[i].z);
    }
  }
  EXPECT_LT(min_omega, 0.7 * test::lab().config().quad.hover_omega());
  EXPECT_GT(max_sink, -30.0 + 0.3);  // sank at least 0.3 m (NED z down)
}

TEST(FlightLab, BenignFlightUnaffectedByInactiveActuatorConfig) {
  FlightScenario s;
  s.mission = sim::Mission::hover({0, 0, -10}, 8.0);
  attacks::ActuatorDosConfig a;
  a.start = 100.0;  // never active within the flight
  a.end = 200.0;
  s.actuator_attack = a;
  s.seed = 16;
  const auto attacked_cfg = test::lab().fly(s);
  s.actuator_attack.reset();
  const auto clean = test::lab().fly(s);
  ASSERT_EQ(attacked_cfg.log.t.size(), clean.log.t.size());
  EXPECT_DOUBLE_EQ(attacked_cfg.log.true_pos.back().z, clean.log.true_pos.back().z);
}

TEST(Signature, DeterministicForSameAudio) {
  SignatureConfig cfg;
  const auto audio = tone_audio(2500.0);
  const auto a = compute_signature(audio, cfg);
  const auto b = compute_signature(audio, cfg);
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

// Pins the signature's output bits: the signatures of a base window and of
// a 5x stretched (time-shift augmented) window of one synthesized recording,
// computed under both SIMD backends.
TEST(Signature, OutputBitsArePinned) {
  const auto flight = test::line_flight(6.0, 7);
  const auto recording =
      test::lab().synthesizer(flight).synthesize(flight.log, 0.0, 6.0);
  const SignatureConfig cfg;
  const auto crc_of = [&](util::SimdBackend backend) {
    const util::SimdBackend saved = util::simd_backend();
    util::set_simd_backend(backend);
    std::uint32_t crc = 0;
    for (const double seconds : {0.5, 2.5}) {
      const auto sig =
          compute_signature(recording_window(recording, 2.0, seconds), cfg);
      crc = util::crc32(sig.data(), sig.numel() * sizeof(float), crc);
    }
    util::set_simd_backend(saved);
    return crc;
  };
  for (const auto backend :
       {util::SimdBackend::kVector, util::SimdBackend::kScalar}) {
    SCOPED_TRACE(backend == util::SimdBackend::kVector ? "vector" : "scalar");
    EXPECT_EQ(crc_of(backend), 0xa9c8c30au);
  }
}

TEST(ImuRca, ResidualWindowsCarryImuRateSamples) {
  const auto f = test::hover_flight(6.0, 12);
  std::vector<TimedPrediction> preds;
  for (double t0 = 2.0; t0 + 0.5 <= 6.0; t0 += 0.5)
    preds.push_back({t0, t0 + 0.5, {}, {}});
  const auto windows = ImuRcaDetector::residuals(f, preds);
  ASSERT_FALSE(windows.empty());
  for (const auto& w : windows) EXPECT_NEAR(static_cast<double>(w.samples.size()), 100, 3);
}

TEST(ImuRca, BaseliningRemovesConstantOffset) {
  // More windows than the baseline horizon, so the windows after it are
  // baselined by a mean they did not enter.
  const auto f = test::hover_flight(10.0, 13);
  std::vector<TimedPrediction> preds;
  // Predictions biased by a constant +2 in x relative to the IMU.
  for (double t0 = 2.0; t0 + 0.5 <= 10.0; t0 += 0.5) {
    const Vec3 imu = f.log.mean_imu_accel(t0, t0 + 0.5);
    preds.push_back({t0, t0 + 0.5, imu + Vec3{2.0, 0, 0}, {}});
  }
  ASSERT_GT(preds.size(), kReferenceWindows);
  const auto windows = ImuRcaDetector::residuals(f, preds);
  double mean_x = 0;
  std::size_t n = 0;
  for (const auto& w : windows)
    for (const auto& r : w.samples) {
      mean_x += r.x;
      ++n;
    }
  EXPECT_NEAR(mean_x / static_cast<double>(n), 0.0, 0.2);
}

TEST(ImuRca, AnalyzeRequiresCalibration) {
  ImuRcaDetector det{{}};
  std::vector<WindowResiduals> windows;
  EXPECT_THROW(det.analyze(windows), std::logic_error);
}

TEST(ImuRca, DetectsSyntheticSpreadInflation) {
  // Build synthetic benign windows (residual std 0.1) and attack windows
  // (std 1.5); the detector must flag only the latter.
  Rng rng{14};
  auto make_window = [&](double t, double std, double mean) {
    WindowResiduals w;
    w.t0 = t;
    w.t1 = t + 0.5;
    for (int i = 0; i < 100; ++i)
      w.samples.push_back({rng.normal(mean, std), rng.normal(mean, std),
                           rng.normal(mean, std)});
    return w;
  };
  std::vector<WindowResiduals> benign;
  for (int i = 0; i < 200; ++i)
    benign.push_back(make_window(i * 0.5, 0.1, 0.0));
  ImuRcaDetector det{{}};
  det.calibrate(benign);

  std::vector<WindowResiduals> attack = benign;
  for (int i = 100; i < 120; ++i)
    attack[static_cast<std::size_t>(i)] =
        make_window(i * 0.5, 1.5, 0.0);
  const auto r_benign = det.analyze(benign);
  const auto r_attack = det.analyze(attack);
  EXPECT_FALSE(r_benign.attacked);
  EXPECT_TRUE(r_attack.attacked);
  EXPECT_GE(r_attack.detect_time, 50.0);
  EXPECT_LE(r_attack.detect_time, 52.0);
}

TEST(ImuRca, DetectsSyntheticMeanShift) {
  Rng rng{15};
  auto make_window = [&](double t, double mean) {
    WindowResiduals w;
    w.t0 = t;
    w.t1 = t + 0.5;
    for (int i = 0; i < 100; ++i)
      w.samples.push_back({rng.normal(mean, 0.1), rng.normal(0, 0.1),
                           rng.normal(0, 0.1)});
    return w;
  };
  std::vector<WindowResiduals> benign;
  for (int i = 0; i < 200; ++i) benign.push_back(make_window(i * 0.5, 0.0));
  ImuRcaDetector det{{}};
  det.calibrate(benign);

  std::vector<WindowResiduals> attack = benign;
  for (int i = 100; i < 120; ++i)
    attack[static_cast<std::size_t>(i)] = make_window(i * 0.5, 0.8);
  EXPECT_TRUE(det.analyze(attack).attacked);
}

TEST(ImuRca, ThresholdFloorEngagesOnDegenerateCalibration) {
  // Near-identical residual windows calibrate an absurdly tight threshold;
  // the min_threshold floor keeps ordinary sensor jitter from becoming an
  // alert storm.
  Rng rng{17};
  std::vector<WindowResiduals> degenerate;
  for (int i = 0; i < 50; ++i) {
    WindowResiduals w;
    w.t0 = i * 0.5;
    w.t1 = w.t0 + 0.5;
    for (int j = 0; j < 100; ++j)
      w.samples.push_back({rng.normal(0.0, 1e-7), rng.normal(0.0, 1e-7),
                           rng.normal(0.0, 1e-7)});
    degenerate.push_back(std::move(w));
  }
  ImuRcaConfig cfg;
  ImuRcaDetector det{cfg};
  det.calibrate(degenerate);
  EXPECT_TRUE(std::isfinite(det.score_threshold()));
  EXPECT_GE(det.score_threshold(), cfg.min_threshold);
}

TEST(ImuRca, ShortWindowsAreSkippedAndCounted) {
  Rng rng{18};
  auto make_window = [&](double t, int n) {
    WindowResiduals w;
    w.t0 = t;
    w.t1 = t + 0.5;
    for (int i = 0; i < n; ++i)
      w.samples.push_back({rng.normal(0, 0.1), rng.normal(0, 0.1),
                           rng.normal(0, 0.1)});
    return w;
  };
  std::vector<WindowResiduals> benign;
  for (int i = 0; i < 100; ++i) benign.push_back(make_window(i * 0.5, 100));
  ImuRcaDetector det{{}};
  det.calibrate(benign);

  std::vector<WindowResiduals> gappy = benign;
  gappy[10] = make_window(5.0, 2);  // dropout leaves 2 usable samples
  gappy[11] = make_window(5.5, 0);  // total dropout
  const auto r = det.analyze(gappy);
  EXPECT_EQ(r.windows_skipped, 2u);
  EXPECT_EQ(r.windows_tested, gappy.size() - 2);
  EXPECT_FALSE(r.attacked);
}

TEST(ImuRca, WindowKsIsLargeUnderAttackDistribution) {
  Rng rng{16};
  auto make_window = [&](double std) {
    WindowResiduals w;
    w.t1 = 0.5;
    for (int i = 0; i < 100; ++i)
      w.samples.push_back({rng.normal(0, std), rng.normal(0, std), rng.normal(0, std)});
    return w;
  };
  std::vector<WindowResiduals> benign;
  for (int i = 0; i < 100; ++i) benign.push_back(make_window(0.3));
  ImuRcaDetector det{{}};
  det.calibrate(benign);
  const double ks_benign = det.window_ks(make_window(0.3));
  const double ks_attack = det.window_ks(make_window(2.8));
  EXPECT_GT(ks_attack, 3.0 * ks_benign);
}


// ---------------------------------------------------------------------------
// RcaEngine::Monitor: the one two-stage decision path.  No trained model is
// needed — predictions are the flight's own window means, and the detectors
// are calibrated on benign windows built the same way.

// Predictions a perfect sensory mapper would make: the window's mean IMU
// acceleration and navigation velocity.
std::vector<TimedPrediction> synthetic_predictions(const Flight& f) {
  std::vector<TimedPrediction> preds;
  for (const WindowSpan& w : window_grid(1.0, 0.25, 0.5, f.log.duration()))
    preds.push_back({w.t0, w.t1, f.log.mean_imu_accel(w.t0, w.t1),
                     f.log.mean_nav_vel(w.t0, w.t1)});
  return preds;
}

const CalibratedDetectors& monitor_detectors() {
  static const CalibratedDetectors det = [] {
    std::vector<Flight> flights;
    std::vector<std::vector<TimedPrediction>> preds;
    for (std::uint64_t seed : {31, 32}) {
      flights.push_back(test::hover_flight(20.0, seed));
      preds.push_back(synthetic_predictions(flights.back()));
    }
    return calibrate_detectors(flights, preds);
  }();
  return det;
}

struct MonitorRun {
  RcaReport report;
  RcaDecisionTrace trace;
};

// Feeds one flight through a monitor: either the whole sensor logs up front
// (RcaEngine::decide's feed) or, window by window, only the samples up to
// each window's end (a streaming session's feed).
MonitorRun feed_monitor(const Flight& f, std::span<const TimedPrediction> preds,
                        bool incremental) {
  const auto& det = monitor_detectors();
  RcaEngine::Monitor monitor{det.imu, det.gps};
  if (!incremental) {
    monitor.push_imu(f.log.imu);
    monitor.push_gps(f.log.gps);
  }
  std::size_t imu_i = 0, gps_i = 0;
  for (const auto& p : preds) {
    if (incremental) {
      std::size_t imu_end = imu_i, gps_end = gps_i;
      while (imu_end < f.log.imu.size() && f.log.imu[imu_end].t <= p.t1) ++imu_end;
      while (gps_end < f.log.gps.size() && f.log.gps[gps_end].t <= p.t1) ++gps_end;
      monitor.push_imu(std::span{f.log.imu}.subspan(imu_i, imu_end - imu_i));
      monitor.push_gps(std::span{f.log.gps}.subspan(gps_i, gps_end - gps_i));
      imu_i = imu_end;
      gps_i = gps_end;
    }
    monitor.deliver(p);
  }
  MonitorRun run;
  run.report = monitor.finish({}, &run.trace);
  return run;
}

// EXPECT_EQ on doubles is exact: any drift fails.
void expect_same_health(const faults::HealthReport& a,
                        const faults::HealthReport& b) {
  EXPECT_EQ(a.imu_samples_total, b.imu_samples_total);
  EXPECT_EQ(a.imu_samples_nonfinite, b.imu_samples_nonfinite);
  EXPECT_EQ(a.imu_windows_skipped, b.imu_windows_skipped);
  EXPECT_EQ(a.gps_fixes_total, b.gps_fixes_total);
  EXPECT_EQ(a.gps_fixes_nonfinite, b.gps_fixes_nonfinite);
  EXPECT_EQ(a.gps_coast_intervals, b.gps_coast_intervals);
  EXPECT_EQ(a.gps_coast_seconds, b.gps_coast_seconds);
  EXPECT_EQ(a.kf_fallback_steps, b.kf_fallback_steps);
}

void expect_same_run(const MonitorRun& a, const MonitorRun& b) {
  EXPECT_EQ(a.report.imu_attacked, b.report.imu_attacked);
  EXPECT_EQ(a.report.imu_detect_time, b.report.imu_detect_time);
  EXPECT_EQ(a.report.gps_attacked, b.report.gps_attacked);
  EXPECT_EQ(a.report.gps_detect_time, b.report.gps_detect_time);
  EXPECT_EQ(a.report.gps_mode_used, b.report.gps_mode_used);
  expect_same_health(a.report.health, b.report.health);
  expect_same_health(a.trace.health, b.trace.health);
  EXPECT_EQ(a.trace.imu_attacked, b.trace.imu_attacked);
  EXPECT_EQ(a.trace.gps_attacked, b.trace.gps_attacked);
  EXPECT_EQ(a.trace.gps_mode, b.trace.gps_mode);
  ASSERT_EQ(a.trace.imu.size(), b.trace.imu.size());
  for (std::size_t i = 0; i < a.trace.imu.size(); ++i) {
    const auto& x = a.trace.imu[i];
    const auto& y = b.trace.imu[i];
    EXPECT_EQ(x.t0, y.t0) << i;
    EXPECT_EQ(x.t1, y.t1) << i;
    EXPECT_EQ(x.mean_z, y.mean_z) << i;
    EXPECT_EQ(x.spread_z, y.spread_z) << i;
    EXPECT_EQ(x.score, y.score) << i;
    EXPECT_EQ(x.threshold, y.threshold) << i;
    EXPECT_EQ(x.flagged, y.flagged) << i;
    EXPECT_EQ(x.alert, y.alert) << i;
  }
  ASSERT_EQ(a.trace.gps.size(), b.trace.gps.size());
  for (std::size_t i = 0; i < a.trace.gps.size(); ++i) {
    const auto& x = a.trace.gps[i];
    const auto& y = b.trace.gps[i];
    EXPECT_EQ(x.t, y.t) << i;
    EXPECT_EQ(x.running_mean_err, y.running_mean_err) << i;
    EXPECT_EQ(x.pos_dev, y.pos_dev) << i;
    EXPECT_EQ(x.vel_threshold, y.vel_threshold) << i;
    EXPECT_EQ(x.pos_threshold, y.pos_threshold) << i;
    EXPECT_EQ(x.vel_hit, y.vel_hit) << i;
    EXPECT_EQ(x.pos_hit, y.pos_hit) << i;
    EXPECT_EQ(x.alert, y.alert) << i;
    EXPECT_EQ(x.coast_reset, y.coast_reset) << i;
  }
}

// The monitor's stage verdicts equal the batch detectors' over the same
// predictions: one residual baseline, one GPS seeding.
void expect_matches_batch_detectors(const Flight& f,
                                    std::span<const TimedPrediction> preds,
                                    const MonitorRun& run) {
  const auto& det = monitor_detectors();
  const auto imu = det.imu.analyze(ImuRcaDetector::residuals(f, preds));
  EXPECT_EQ(run.report.imu_attacked, imu.attacked);
  EXPECT_EQ(run.report.imu_detect_time, imu.detect_time);
  EXPECT_EQ(run.trace.imu.size(), imu.windows_tested);
  EXPECT_EQ(run.report.health.imu_windows_skipped, imu.windows_skipped);
  const auto gps = det.gps.analyze(f, preds, run.report.gps_mode_used);
  EXPECT_EQ(run.report.gps_attacked, gps.attacked);
  EXPECT_EQ(run.report.gps_detect_time, gps.detect_time);
}

TEST(RcaMonitor, WindowByWindowFeedMatchesWholeLogFeedBitwise) {
  auto f = test::hover_flight(24.0, 33);
  const auto preds = synthetic_predictions(f);
  // Post-hoc attacks on the recorded streams (the predictions stay clean):
  // an accelerometer bias from 10 s, a GPS drag from 14 s.
  for (auto& s : f.log.imu)
    if (s.t >= 10.0 && s.t < 13.0) s.accel_ned += Vec3{3.0, 0.0, 0.0};
  for (auto& fix : f.log.gps)
    if (fix.t >= 14.0) {
      fix.pos += Vec3{2.0 * (fix.t - 14.0), 0.0, 0.0};
      fix.vel += Vec3{2.0, 0.0, 0.0};
    }
  const auto incremental = feed_monitor(f, preds, true);
  const auto upfront = feed_monitor(f, preds, false);
  EXPECT_TRUE(upfront.report.imu_attacked);
  EXPECT_FALSE(upfront.trace.gps.empty());
  expect_same_run(incremental, upfront);
  expect_matches_batch_detectors(f, preds, upfront);

  const auto& det = monitor_detectors();
  SensoryMapperConfig cfg;
  cfg.model = ml::ModelKind::kMlp;
  const SensoryMapper unused{cfg};  // decide() never touches the mapper
  const RcaEngine engine{unused, det.imu, det.gps};
  MonitorRun decided;
  decided.report = engine.decide(f, preds, {}, &decided.trace);
  expect_same_run(decided, upfront);
}

TEST(RcaMonitor, ShortFlightFeedsBitwise) {
  // Fewer windows than the baseline horizon: the baseline freezes at
  // finish() over every window seen.
  const auto short_flight = test::hover_flight(3.5, 34);
  const auto short_preds = synthetic_predictions(short_flight);
  ASSERT_LT(short_preds.size(), kReferenceWindows);
  const auto a = feed_monitor(short_flight, short_preds, true);
  const auto b = feed_monitor(short_flight, short_preds, false);
  EXPECT_EQ(a.trace.imu.size(), short_preds.size());
  expect_same_run(a, b);
  expect_matches_batch_detectors(short_flight, short_preds, b);
}

TEST(RcaMonitor, CheckpointRoundTripResumesBitwise) {
  const auto f = test::hover_flight(12.0, 36);
  const auto preds = synthetic_predictions(f);
  const auto& det = monitor_detectors();
  RcaEngine::Monitor first{det.imu, det.gps};
  first.push_imu(f.log.imu);
  first.push_gps(f.log.gps);
  const std::size_t half = preds.size() / 2;
  for (std::size_t i = 0; i < half; ++i) first.deliver(preds[i]);
  std::stringstream state{std::ios::in | std::ios::out | std::ios::binary};
  first.save_state(state);

  RcaEngine::Monitor resumed{det.imu, det.gps};
  ASSERT_TRUE(resumed.load_state(state));
  for (std::size_t i = half; i < preds.size(); ++i) resumed.deliver(preds[i]);
  MonitorRun a;
  a.report = resumed.finish({}, &a.trace);
  expect_same_run(a, feed_monitor(f, preds, false));

  // A different baseline horizon is a configuration mismatch.  The IMU
  // stage's state opens with it, after the IMU threshold.
  std::string bytes = state.str();
  std::uint64_t horizon = 0;
  std::memcpy(&horizon, bytes.data() + sizeof(double), sizeof horizon);
  ASSERT_EQ(horizon, kReferenceWindows);
  const std::uint64_t other_horizon = kReferenceWindows - 1;
  std::memcpy(bytes.data() + sizeof(double), &other_horizon, sizeof other_horizon);
  std::istringstream forged{bytes, std::ios::binary};
  RcaEngine::Monitor other{det.imu, det.gps};
  EXPECT_FALSE(other.load_state(forged));
}

// A checkpoint is a function of the monitor's state: the decision records'
// padding is written as zeros, so two monitors fed the same flight and the
// same predictions write the same bytes.
TEST(RcaMonitor, IdenticalFeedsWriteIdenticalCheckpoints) {
  const auto f = test::hover_flight(12.0, 36);
  const auto preds = synthetic_predictions(f);
  const auto& det = monitor_detectors();
  std::string states[2];
  for (std::string& bytes : states) {
    RcaEngine::Monitor m{det.imu, det.gps};
    m.push_imu(f.log.imu);
    m.push_gps(f.log.gps);
    for (std::size_t i = 0; i < preds.size() / 2; ++i) m.deliver(preds[i]);
    ASSERT_FALSE(m.imu_decisions().empty());
    std::ostringstream os{std::ios::binary};
    m.save_state(os);
    bytes = os.str();
  }
  ASSERT_EQ(states[0].size(), states[1].size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < states[0].size(); ++i)
    differing += states[0][i] != states[1][i] ? 1 : 0;
  EXPECT_EQ(differing, 0u) << "of " << states[0].size() << " bytes";
}

// The `faults.*` counters count decisions only: a detector run on its own
// (calibration, a bench's per-variant analyze) adds nothing, and a decision
// adds exactly its report's tally.  An IMU NaN burst makes the fused GPS
// filter fall back to the audio acceleration.
TEST(RcaMonitor, FaultCountersCountOnlyTheDecision) {
  auto f = test::hover_flight(12.0, 38);
  const auto preds = synthetic_predictions(f);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (auto& s : f.log.imu)
    if (s.t >= 4.0 && s.t < 6.0) s.accel_ned = Vec3{nan, nan, nan};
  const auto& det = monitor_detectors();
  const obs::Counter& fallbacks =
      obs::Registry::instance().counter("faults.kf_fallback_steps");
  const std::uint64_t before = fallbacks.value();
  (void)det.gps.analyze(f, preds, GpsDetectorMode::kAudioImu);
  EXPECT_EQ(fallbacks.value(), before);

  SensoryMapperConfig cfg;
  cfg.model = ml::ModelKind::kMlp;
  const SensoryMapper unused{cfg};  // decide() never touches the mapper
  const RcaEngine engine{unused, det.imu, det.gps};
  const RcaReport report = engine.decide(f, preds);
  EXPECT_EQ(report.gps_mode_used, GpsDetectorMode::kAudioImu);
  EXPECT_GT(report.health.kf_fallback_steps, 0u);
  EXPECT_EQ(fallbacks.value() - before, report.health.kf_fallback_steps);
}

// Pins what the two stages decide, not just that two feeds agree: the
// CRC-32 of the decision-trace JSONL (every score, threshold and alert at
// %.17g) of a benign, an IMU-attack and a GPS-spoof flight.  Each trace is
// computed twice — through RcaEngine::decide, and through a monitor fed
// window by window (the samples up to each window's end, as a streaming
// session feeds it) whose state is saved and loaded into a fresh monitor
// halfway — and both must hit the pin.
TEST(RcaMonitor, DecisionTracesArePinned) {
  const auto& det = monitor_detectors();
  SensoryMapperConfig cfg;
  cfg.model = ml::ModelKind::kMlp;
  const SensoryMapper unused{cfg};  // decide() never touches the mapper
  const RcaEngine engine{unused, det.imu, det.gps};

  const auto streamed = [&](const Flight& f, std::span<const TimedPrediction> preds) {
    auto monitor = std::make_unique<RcaEngine::Monitor>(det.imu, det.gps);
    std::size_t imu_i = 0, gps_i = 0;
    for (std::size_t w = 0; w < preds.size(); ++w) {
      if (w == preds.size() / 2) {
        std::stringstream state{std::ios::in | std::ios::out | std::ios::binary};
        monitor->save_state(state);
        monitor = std::make_unique<RcaEngine::Monitor>(det.imu, det.gps);
        EXPECT_TRUE(monitor->load_state(state));
      }
      std::size_t imu_end = imu_i, gps_end = gps_i;
      while (imu_end < f.log.imu.size() && f.log.imu[imu_end].t <= preds[w].t1) ++imu_end;
      while (gps_end < f.log.gps.size() && f.log.gps[gps_end].t <= preds[w].t1) ++gps_end;
      monitor->push_imu(std::span{f.log.imu}.subspan(imu_i, imu_end - imu_i));
      monitor->push_gps(std::span{f.log.gps}.subspan(gps_i, gps_end - gps_i));
      imu_i = imu_end;
      gps_i = gps_end;
      monitor->deliver(preds[w]);
    }
    RcaDecisionTrace trace;
    monitor->finish({}, &trace);
    return io::decision_trace_jsonl(trace);
  };

  struct Case {
    const char* name;
    std::uint64_t seed;
    bool imu_attacked;
    bool gps_attacked;
    std::uint32_t crc;
  };
  const Case cases[] = {
      {"benign", 43, false, false, 0x3453ca05u},
      {"imu attack", 41, true, false, 0xd4d2c44eu},
      {"gps spoof", 42, false, true, 0x89829cdbu},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto f = test::hover_flight(16.0, c.seed);
    // The predictions stay clean; the attacks act on the recorded streams.
    const auto preds = synthetic_predictions(f);
    if (c.imu_attacked)
      for (auto& s : f.log.imu)
        if (s.t >= 8.0 && s.t < 11.0) s.accel_ned += Vec3{3.0, 0.0, 0.0};
    if (c.gps_attacked)
      for (auto& fix : f.log.gps)
        if (fix.t >= 8.0) {
          fix.pos += Vec3{2.0 * (fix.t - 8.0), 0.0, 0.0};
          fix.vel += Vec3{2.0, 0.0, 0.0};
        }
    RcaDecisionTrace trace;
    engine.decide(f, preds, {}, &trace);
    EXPECT_EQ(trace.imu_attacked, c.imu_attacked);
    EXPECT_EQ(trace.gps_attacked, c.gps_attacked);
    const std::string decided = io::decision_trace_jsonl(trace);
    EXPECT_EQ(util::crc32(decided.data(), decided.size()), c.crc);
    EXPECT_EQ(streamed(f, preds), decided);
  }
}

// ---------------------------------------------------------------------------
// SBMAPF02 payloads that pass the CRC but are malformed must be rejected
// without throwing: the files come from outside the program.

TEST(SensoryMapperLoad, RejectsRecrcedPayloadWithWrongFeatureCount) {
  SensoryMapperConfig cfg;
  cfg.model = ml::ModelKind::kMlp;
  cfg.dataset.stride = 0.5;
  cfg.train.epochs = 1;
  SensoryMapper mapper{cfg};
  const auto flight = test::hover_flight(6.0, 37);
  const std::vector<Flight> flights{flight};
  mapper.fit(test::lab(), flights);
  std::ostringstream saved{std::ios::binary};
  ASSERT_TRUE(mapper.save(saved));
  const std::string file = saved.str();

  // Frame: magic(8) version(4) size(8) crc(4), then the payload, which ends
  // with feat(8), feat means, feat inverse stddevs and the output
  // calibration (2 x kLabelDim doubles).
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::memcpy(&magic, file.data(), sizeof magic);
  std::memcpy(&version, file.data() + 8, sizeof version);
  const std::string payload = file.substr(24);
  const auto shape = signature_shape(cfg.dataset.signature);
  const std::size_t feat = shape.channels * shape.frames * shape.bands;
  const std::size_t feat_at =
      payload.size() - 2 * kLabelDim * sizeof(double) - 2 * feat * sizeof(float) - 8;
  std::uint64_t stored = 0;
  std::memcpy(&stored, payload.data() + feat_at, sizeof stored);
  ASSERT_EQ(stored, feat);

  // A crafted file: patched payload, valid frame around it.
  const auto reframed = [&](std::uint64_t patched, std::size_t trailing) {
    std::string p = payload + std::string(trailing, '\0');
    std::memcpy(p.data() + feat_at, &patched, sizeof patched);
    const std::uint64_t size = p.size();
    const std::uint32_t crc = util::crc32(p.data(), p.size());
    std::string out(24, '\0');
    std::memcpy(out.data(), &magic, 8);
    std::memcpy(out.data() + 8, &version, 4);
    std::memcpy(out.data() + 12, &size, 8);
    std::memcpy(out.data() + 20, &crc, 4);
    return out + p;
  };
  const auto rejects = [&](const std::string& bytes, const char* what) {
    SensoryMapper loaded{cfg};
    std::istringstream is{bytes, std::ios::binary};
    bool ok = true;
    EXPECT_NO_THROW(ok = loaded.load(is)) << what;
    EXPECT_FALSE(ok) << what;
    EXPECT_FALSE(loaded.trained()) << what;
  };
  rejects(reframed(8, 0), "feature count too short");
  rejects(reframed(std::numeric_limits<std::uint64_t>::max() / 8, 0),
          "feature count huge");
  rejects(reframed(feat, 8), "trailing bytes");

  // The untouched payload re-framed the same way still loads.
  SensoryMapper loaded{cfg};
  std::istringstream is{reframed(feat, 0), std::ios::binary};
  EXPECT_TRUE(loaded.load(is));
}

}  // namespace
}  // namespace sb::core
