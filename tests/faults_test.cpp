// Fault-injection subsystem tests: determinism of the injectors, strict
// severity-0 no-ops, the channel-health rules, and the graceful-degradation
// behavior of the detector stages on degenerate inputs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "core/imu_rca.hpp"
#include "faults/fault_injector.hpp"
#include "faults/health.hpp"
#include "test_helpers.hpp"

namespace sb::faults {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

bool same_imu(const std::vector<sim::ImuSample>& a,
              const std::vector<sim::ImuSample>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(sim::ImuSample)) == 0);
}

bool same_gps(const std::vector<sim::GpsSample>& a,
              const std::vector<sim::GpsSample>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(sim::GpsSample)) == 0);
}

// Synthetic deterministic audio (sum of incommensurate oscillators + ramp):
// no plateaus, nonzero on every channel.
acoustics::MultiChannelAudio synth_audio(std::size_t n = 4096, double fs = 16000.0) {
  acoustics::MultiChannelAudio audio;
  audio.sample_rate = fs;
  for (std::size_t c = 0; c < sensors::kNumMics; ++c) {
    auto& ch = audio.channels[c];
    ch.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double t = static_cast<double>(i) / fs;
      ch[i] = 0.4 * std::sin(2.0 * M_PI * (440.0 + 17.0 * static_cast<double>(c)) * t) +
              0.1 * std::sin(2.0 * M_PI * 1337.7 * t + static_cast<double>(c));
    }
  }
  return audio;
}

// ---------------------------------------------------------------------------
// Injector determinism and severity-0 contract.

TEST(FaultInjector, SeverityZeroIsStrictNoOpOnLog) {
  const auto flight = test::hover_flight(6.0, 11);
  for (auto imu_type : {ImuFaultType::kDropout, ImuFaultType::kStuckAt,
                        ImuFaultType::kNanBurst}) {
    auto log = flight.log;
    FaultPlan plan;
    plan.seed = 5;
    plan.imu.push_back({imu_type, 0.0, 0.0, 1e9});
    EXPECT_FALSE(plan.any_active());
    apply_to_log(log, plan);
    EXPECT_TRUE(same_imu(log.imu, flight.log.imu));
  }
  for (auto gps_type : {GpsFaultType::kOutage, GpsFaultType::kLatencyJitter}) {
    auto log = flight.log;
    FaultPlan plan;
    plan.gps.push_back({gps_type, 0.0, 0.0, 1e9});
    apply_to_log(log, plan);
    EXPECT_TRUE(same_gps(log.gps, flight.log.gps));
  }
}

TEST(FaultInjector, SeverityZeroIsStrictNoOpOnAudio) {
  const auto original = synth_audio();
  for (auto type : {MicFaultType::kChannelDead, MicFaultType::kClipping,
                    MicFaultType::kDcOffset, MicFaultType::kSampleDrop}) {
    auto audio = original;
    FaultPlan plan;
    plan.mic.push_back({type, 1, 0.0, 0.0, 1e9});
    apply_to_audio(audio, 0.0, plan);
    for (std::size_t c = 0; c < sensors::kNumMics; ++c)
      EXPECT_EQ(audio.channels[c], original.channels[c]);
  }
}

class FaultSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultSeedTest, SamePlanSameOutcomeOnLog) {
  const auto flight = test::hover_flight(6.0, 12);
  FaultPlan plan;
  plan.seed = GetParam();
  plan.imu.push_back({ImuFaultType::kDropout, 0.5, 1.0, 4.0});
  plan.imu.push_back({ImuFaultType::kNanBurst, 0.8, 2.0, 5.0});
  plan.gps.push_back({GpsFaultType::kLatencyJitter, 0.7, 0.0, 1e9});

  auto a = flight.log;
  auto b = flight.log;
  apply_to_log(a, plan);
  apply_to_log(b, plan);
  EXPECT_EQ(a.imu.size(), b.imu.size());
  EXPECT_EQ(a.gps.size(), b.gps.size());
  EXPECT_TRUE(same_gps(a.gps, b.gps));
  // NaN != NaN, so compare the IMU stream bytewise.
  EXPECT_TRUE(same_imu(a.imu, b.imu));
  EXPECT_LT(a.imu.size(), flight.log.imu.size());  // dropout really dropped
}

TEST_P(FaultSeedTest, OverlappingWindowsCorruptSharedSamplesIdentically) {
  // Two analysis windows over the same recording, offset by a stride: the
  // per-sample decisions key on absolute sample index, so the overlap region
  // must come out identical in both.
  const auto fs = 16000.0;
  const auto full = synth_audio(8192, fs);
  const std::size_t stride = 2048;

  FaultPlan plan;
  plan.seed = GetParam();
  plan.mic.push_back({MicFaultType::kSampleDrop, 0, 0.9, 0.0, 1e9});

  auto w0 = full;  // window starting at t=0
  acoustics::MultiChannelAudio w1;  // window starting at stride samples
  w1.sample_rate = fs;
  for (std::size_t c = 0; c < sensors::kNumMics; ++c)
    w1.channels[c].assign(full.channels[c].begin() + stride, full.channels[c].end());

  apply_to_audio(w0, 0.0, plan);
  apply_to_audio(w1, static_cast<double>(stride) / fs, plan);
  for (std::size_t i = 0; i < w1.channels[0].size(); ++i)
    ASSERT_EQ(w0.channels[0][stride + i], w1.channels[0][i]) << "sample " << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultSeedTest, ::testing::Values(1u, 42u, 977u));

TEST(FaultInjector, DeadChannelSilencesOnlyTargetInterval) {
  auto audio = synth_audio();
  const auto original = audio;
  FaultPlan plan;
  plan.mic.push_back({MicFaultType::kChannelDead, 2, 1.0, 0.05, 0.1});
  apply_to_audio(audio, 0.0, plan);
  const auto fs = audio.sample_rate;
  for (std::size_t i = 0; i < audio.channels[2].size(); ++i) {
    const double t = static_cast<double>(i) / fs;
    if (t >= 0.05 && t < 0.1)
      EXPECT_EQ(audio.channels[2][i], 0.0);
    else
      EXPECT_EQ(audio.channels[2][i], original.channels[2][i]);
  }
  EXPECT_EQ(audio.channels[0], original.channels[0]);
}

TEST(FaultInjector, GpsJitterPreservesTimeOrder) {
  const auto flight = test::hover_flight(6.0, 13);
  auto log = flight.log;
  FaultPlan plan;
  plan.seed = 3;
  plan.gps.push_back({GpsFaultType::kLatencyJitter, 1.0, 0.0, 1e9});
  apply_to_log(log, plan);
  ASSERT_EQ(log.gps.size(), flight.log.gps.size());
  bool any_delayed = false;
  for (std::size_t i = 0; i < log.gps.size(); ++i) {
    EXPECT_GE(log.gps[i].t, flight.log.gps[i].t);  // forward-only
    if (i > 0) {
      EXPECT_LT(log.gps[i - 1].t, log.gps[i].t);
    }
    any_delayed = any_delayed || log.gps[i].t > flight.log.gps[i].t;
  }
  EXPECT_TRUE(any_delayed);
}

TEST(FaultInjector, GpsOutageRemovesSeverityFractionOfInterval) {
  const auto flight = test::hover_flight(8.0, 14);
  auto log = flight.log;
  FaultPlan plan;
  plan.gps.push_back({GpsFaultType::kOutage, 0.5, 2.0, 6.0});
  apply_to_log(log, plan);
  // severity 0.5 of [2, 6) -> all fixes in [2, 4) gone, the rest intact.
  for (const auto& s : log.gps) EXPECT_FALSE(s.t >= 2.0 && s.t < 4.0);
  EXPECT_LT(log.gps.size(), flight.log.gps.size());
}

TEST(FaultInjector, StuckAtFreezesAtLastPreFaultReading) {
  const auto flight = test::hover_flight(6.0, 15);
  auto log = flight.log;
  FaultPlan plan;
  plan.imu.push_back({ImuFaultType::kStuckAt, 1.0, 2.0, 4.0});
  apply_to_log(log, plan);
  ASSERT_EQ(log.imu.size(), flight.log.imu.size());
  const sim::ImuSample* held = nullptr;
  for (const auto& s : flight.log.imu)
    if (s.t < 2.0) held = &s;
  ASSERT_NE(held, nullptr);
  for (std::size_t i = 0; i < log.imu.size(); ++i) {
    EXPECT_EQ(log.imu[i].t, flight.log.imu[i].t);  // timestamps advance
    if (log.imu[i].t >= 2.0 && log.imu[i].t < 4.0) {
      EXPECT_EQ(log.imu[i].accel_ned.x, held->accel_ned.x);
    }
  }
}

TEST(FaultInjector, SingleSampleLogSurvivesEveryFault) {
  sim::FlightLog log;
  log.rates = test::lab().config().rates;
  log.imu.push_back({1.0, {0, 0, 0.1}, {0, 0, -9.8}, {0.1, 0, 0}});
  log.gps.push_back({});
  log.gps.back().t = 1.0;
  FaultPlan plan;
  plan.seed = 99;
  plan.imu.push_back({ImuFaultType::kDropout, 1.0, 0.0, 1e9});
  plan.imu.push_back({ImuFaultType::kStuckAt, 1.0, 0.0, 1e9});
  plan.imu.push_back({ImuFaultType::kNanBurst, 1.0, 0.0, 1e9});
  plan.gps.push_back({GpsFaultType::kOutage, 1.0, 0.0, 1e9});
  plan.gps.push_back({GpsFaultType::kLatencyJitter, 1.0, 0.0, 1e9});
  apply_to_log(log, plan);  // must not crash
  EXPECT_TRUE(log.imu.empty());  // dropout at severity 1 removes everything
  EXPECT_TRUE(log.gps.empty());
}

// ---------------------------------------------------------------------------
// Channel-health rules.

TEST(ChannelHealth, PureToneIsNotClipped) {
  // 500 Hz spans exactly 128 periods of the 4096-sample buffer, so the DC
  // estimate is clean.
  std::vector<double> tone(4096);
  for (std::size_t i = 0; i < tone.size(); ++i)
    tone[i] = 0.8 * std::sin(2.0 * M_PI * 500.0 * static_cast<double>(i) / 16000.0);
  const auto stats = analyze_channel(tone);
  EXPECT_NEAR(stats.peak, 0.8, 1e-3);
  EXPECT_NEAR(stats.dc, 0.0, 1e-3);
  EXPECT_EQ(stats.clip_fraction, 0.0);
}

TEST(ChannelHealth, HardLimitedAudioIsClipped) {
  std::vector<double> tone(4096);
  for (std::size_t i = 0; i < tone.size(); ++i) {
    const double v =
        0.8 * std::sin(2.0 * M_PI * 440.0 * static_cast<double>(i) / 16000.0);
    tone[i] = std::clamp(v, -0.3, 0.3);  // severe flat-topping
  }
  const auto stats = analyze_channel(tone);
  EXPECT_GT(stats.clip_fraction, 0.3);
}

TEST(ChannelHealth, AllZeroAudioHasZeroStatsAndNoClip) {
  const std::vector<double> silence(4096, 0.0);
  const auto stats = analyze_channel(silence);
  EXPECT_EQ(stats.rms, 0.0);
  EXPECT_EQ(stats.peak, 0.0);
  EXPECT_EQ(stats.clip_fraction, 0.0);  // peak 0 -> the plateau rule is off
}

TEST(ChannelHealth, DeadAndDcChannelsAreUnhealthy) {
  const auto audio = synth_audio();
  std::vector<ChannelStats> stats;
  for (const auto& ch : audio.channels) stats.push_back(analyze_channel(ch));
  const auto all = healthy_channels(stats);
  for (bool h : all) EXPECT_TRUE(h);

  auto dead = stats;
  dead[1].rms = 1e-9;
  dead[1].peak = 1e-9;
  const auto with_dead = healthy_channels(dead);
  EXPECT_FALSE(with_dead[1]);
  EXPECT_TRUE(with_dead[0]);

  auto dc = stats;
  dc[2].dc = 10.0 * dc[2].rms;
  dc[2].rms = std::sqrt(dc[2].rms * dc[2].rms + dc[2].dc * dc[2].dc);
  const auto with_dc = healthy_channels(dc);
  EXPECT_FALSE(with_dc[2]);
}

// ---------------------------------------------------------------------------
// Detector-stage degradation on degenerate inputs.

core::WindowResiduals residual_window(double t0, std::size_t n, double scale,
                                      double poison_fraction = 0.0) {
  core::WindowResiduals w;
  w.t0 = t0;
  w.t1 = t0 + 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x =
        scale * std::sin(0.7 * static_cast<double>(i) + 13.0 * t0);  // benign-ish
    if (poison_fraction > 0.0 &&
        static_cast<double>(i % 10) < 10.0 * poison_fraction)
      w.samples.push_back({kNan, kNan, kNan});
    else
      w.samples.push_back({x, -0.5 * x, 0.25 * x});
  }
  return w;
}

TEST(ImuDegradation, EmptyCalibrationDisablesDetectionInsteadOfAlertStorm) {
  core::ImuRcaDetector det{core::ImuRcaConfig{}};
  std::vector<core::WindowResiduals> starved;
  for (int i = 0; i < 20; ++i)
    starved.push_back(residual_window(static_cast<double>(i), 3, 0.2));  // < 8 samples
  det.calibrate(starved);

  std::vector<core::WindowResiduals> test_windows;
  for (int i = 0; i < 40; ++i)
    test_windows.push_back(residual_window(static_cast<double>(i), 32, 0.2));
  const auto r = det.analyze(test_windows);
  EXPECT_FALSE(r.attacked);
  EXPECT_EQ(r.windows_flagged, 0u);
}

TEST(ImuDegradation, ThresholdStaysFiniteUnderNanPoisonedCalibration) {
  // NaN residuals are dropped before any statistic; calibration on a heavily
  // poisoned benign set must still produce a finite threshold and no alert
  // storm on clean benign windows.
  core::ImuRcaDetector det{core::ImuRcaConfig{}};
  std::vector<core::WindowResiduals> cal;
  for (int i = 0; i < 30; ++i)
    cal.push_back(residual_window(static_cast<double>(i), 48, 0.2, 0.5));
  // The NaNs never reach WindowResiduals through residuals(); simulate that
  // hygiene here by filtering like residuals() does.
  faults::HealthReport health;
  for (auto& w : cal) {
    std::erase_if(w.samples, [&](const Vec3& r) {
      const bool bad =
          !(std::isfinite(r.x) && std::isfinite(r.y) && std::isfinite(r.z));
      if (bad) ++health.imu_samples_nonfinite;
      return bad;
    });
  }
  EXPECT_GT(health.imu_samples_nonfinite, 0u);
  det.calibrate(cal);

  std::vector<core::WindowResiduals> benign;
  for (int i = 0; i < 40; ++i)
    benign.push_back(residual_window(40.0 + static_cast<double>(i), 32, 0.2));
  const auto r = det.analyze(benign);
  EXPECT_TRUE(std::isfinite(r.max_score));
  EXPECT_FALSE(r.attacked);
}

TEST(ImuDegradation, ResidualsDropNonFiniteSamplesAndRecordWhy) {
  auto flight = test::hover_flight(8.0, 16);
  FaultPlan plan;
  plan.seed = 7;
  plan.imu.push_back({ImuFaultType::kNanBurst, 1.0, 2.0, 6.0});
  apply_to_log(flight.log, plan);

  // Predictions are irrelevant to the hygiene logic; use zero-accel windows.
  std::size_t total = 0, nonfinite = 0, lo = 0;
  for (double t = 0.0; t < 7.0; t += 1.0) {
    const auto w = core::ImuRcaDetector::window_residuals(
        {t, t + 1.0, {}, {}}, flight.log.imu, lo, &total, &nonfinite);
    for (const auto& r : w.samples) {
      EXPECT_TRUE(std::isfinite(r.x));
      EXPECT_TRUE(std::isfinite(r.z));
    }
  }
  EXPECT_GT(nonfinite, 0u);
  EXPECT_GT(total, nonfinite);
}

TEST(HealthReport, AliveAndDegradedRules) {
  HealthReport h;
  EXPECT_EQ(h.mics_alive(), sensors::kNumMics);
  EXPECT_FALSE(h.degraded());
  h.windows_total = 10;
  h.mic_windows_masked[3] = 6;  // masked in more than half the windows
  h.windows_degraded = 6;
  EXPECT_FALSE(h.mic_alive(3));
  EXPECT_TRUE(h.mic_alive(0));
  EXPECT_EQ(h.mics_alive(), sensors::kNumMics - 1);
  EXPECT_TRUE(h.degraded());
}

}  // namespace
}  // namespace sb::faults
