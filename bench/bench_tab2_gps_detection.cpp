// Tab. II reproduction: GPS spoofing detection, SoundBoost (audio-only and
// audio+IMU) against the Failsafe IMU-only, Control-Invariant (LTI
// yaw/vx/vy) and DNN (LSTM) baselines.
//
// 30 benign + 19 attacked flight periods; each detector is fitted and
// calibrated on its own disjoint benign data, then the alert counts, TPR and
// FPR are tabulated exactly as the paper reports them.  The shape claimed in
// EXPERIMENTS.md is gated: audio+IMU is no noisier than audio-only, detects
// at least as much as Failsafe and every LTI output, and the DNN stays
// unspecific; a broken relation is a nonzero exit.
//
// Paper Tab. II:  audio 0.79/0.23 | audio+IMU 0.89/0.10 | Failsafe 0.58/0.17
//                 LTI yaw 0.26/0.10 | LTI vx 0.05/0.00 | LTI vy 0.05/0.03
//                 DNN 0.68/0.73
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "baselines/dnn_lstm.hpp"
#include "baselines/failsafe_kf.hpp"
#include "baselines/lti_invariant.hpp"
#include "bench_common.hpp"
#include "util/table.hpp"

using namespace sb;

namespace {

struct Tally {
  int benign_alerts = 0;
  int attack_alerts = 0;
  double delay_sum = 0.0;
  int delay_n = 0;

  void record(bool attacked_flight, bool alerted, double detect_time,
              double attack_start) {
    if (attacked_flight) {
      if (alerted) {
        ++attack_alerts;
        if (detect_time >= attack_start) {
          delay_sum += detect_time - attack_start;
          ++delay_n;
        }
      }
    } else if (alerted) {
      ++benign_alerts;
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  sb::bench::bench_init(argc, argv);
  bench::BenchReport report{"tab2_gps_detection"};
  constexpr int kBenign = 30;
  constexpr int kAttacks = 19;
  std::printf("=== Tab. II: GPS spoofing detection (%d benign + %d attacks) ===\n",
              kBenign, kAttacks);

  auto mapper = bench::standard_mapper();
  auto det = bench::calibrate_detectors(mapper);

  // Baselines fit/calibrate on their own benign flights (disjoint seeds).
  std::vector<core::Flight> baseline_benign;
  for (int i = 0; i < 10; ++i) {
    auto s = bench::benign_scenario(i, 40.0);
    s.seed += 700000;
    baseline_benign.push_back(bench::lab().fly(s));
  }

  baselines::FailsafeImuDetector failsafe{{}};
  {
    std::vector<baselines::FailsafeImuDetector::Result> results;
    for (const auto& f : baseline_benign) results.push_back(failsafe.analyze(f));
    failsafe.calibrate(results);
  }

  baselines::LtiInvariantDetector lti_yaw{{}, baselines::LtiOutput::kYaw};
  baselines::LtiInvariantDetector lti_vx{{}, baselines::LtiOutput::kVx};
  baselines::LtiInvariantDetector lti_vy{{}, baselines::LtiOutput::kVy};
  for (auto* lti : {&lti_yaw, &lti_vx, &lti_vy}) {
    lti->fit(baseline_benign);
    std::vector<baselines::LtiInvariantDetector::Result> results;
    for (const auto& f : baseline_benign) results.push_back(lti->analyze(f));
    lti->calibrate(results);
  }

  baselines::DnnLstmDetector dnn{{}};
  {
    obs::logf(obs::LogLevel::kInfo, "setup", "training DNN (LSTM) baseline...");
    dnn.fit(baseline_benign);
    std::vector<baselines::DnnLstmDetector::Result> results;
    for (const auto& f : baseline_benign) results.push_back(dnn.analyze(f));
    dnn.calibrate(results);
  }

  Tally audio_only, audio_imu, t_failsafe, t_yaw, t_vx, t_vy, t_dnn;

  auto run_flight = [&](const core::Flight& f, bool attacked) {
    const double a0 = f.log.attack_start;
    const auto preds = mapper.predict_flight(bench::lab(), f);
    const auto ra = det.gps.analyze(f, preds, core::GpsDetectorMode::kAudioOnly);
    const auto rf = det.gps.analyze(f, preds, core::GpsDetectorMode::kAudioImu);
    audio_only.record(attacked, ra.attacked, ra.detect_time, a0);
    audio_imu.record(attacked, rf.attacked, rf.detect_time, a0);
    const auto rfs = failsafe.analyze(f);
    t_failsafe.record(attacked, rfs.attacked, rfs.detect_time, a0);
    const auto ry = lti_yaw.analyze(f);
    t_yaw.record(attacked, ry.attacked, ry.detect_time, a0);
    const auto rx = lti_vx.analyze(f);
    t_vx.record(attacked, rx.attacked, rx.detect_time, a0);
    const auto rv = lti_vy.analyze(f);
    t_vy.record(attacked, rv.attacked, rv.detect_time, a0);
    const auto rd = dnn.analyze(f);
    t_dnn.record(attacked, rd.attacked, rd.detect_time, a0);
  };

  obs::logf(obs::LogLevel::kInfo, "run", "evaluating %d benign periods...", kBenign);
  for (int i = 0; i < kBenign; ++i)
    run_flight(bench::lab().fly(bench::benign_scenario(i, 40.0)), false);
  obs::logf(obs::LogLevel::kInfo, "run", "evaluating %d attack periods...", kAttacks);
  for (int i = 0; i < kAttacks; ++i)
    run_flight(bench::lab().fly(bench::gps_attack_scenario(i, 60.0)), true);

  Table table({"System Inputs", "# Benign", "# Alerted", "# Attack", "# Alerted",
               "TPR", "FPR", "mean delay (s)"});
  auto add = [&](const char* name, const Tally& t) {
    table.add_row({name, std::to_string(kBenign), std::to_string(t.benign_alerts),
                   std::to_string(kAttacks), std::to_string(t.attack_alerts),
                   Table::fmt(static_cast<double>(t.attack_alerts) / kAttacks, 2),
                   Table::fmt(static_cast<double>(t.benign_alerts) / kBenign, 2),
                   t.delay_n > 0 ? Table::fmt(t.delay_sum / t.delay_n, 1) : "-"});
  };
  add("SoundBoost audio only", audio_only);
  add("SoundBoost audio & IMU", audio_imu);
  add("Failsafe IMU only", t_failsafe);
  add("LTI yaw", t_yaw);
  add("LTI vx", t_vx);
  add("LTI vy", t_vy);
  add("DNN (LSTM)", t_dnn);
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "(paper: audio 0.79/0.23 | audio+IMU 0.89/0.10 | Failsafe 0.58/0.17 |\n"
      " LTI yaw 0.26/0.10, vx 0.05/0.00, vy 0.05/0.03 | DNN 0.68/0.73;\n"
      " expected SHAPE: audio+IMU best, audio-only strong but noisier,\n"
      " Failsafe mid, LTI weak, DNN sensitive but unspecific)\n");

  auto tpr = [&](const Tally& t) { return static_cast<double>(t.attack_alerts) / kAttacks; };
  auto fpr = [&](const Tally& t) { return static_cast<double>(t.benign_alerts) / kBenign; };
  const std::pair<const char*, const Tally*> rows[] = {
      {"audio_only", &audio_only}, {"audio_imu", &audio_imu},
      {"failsafe", &t_failsafe},   {"lti_yaw", &t_yaw},
      {"lti_vx", &t_vx},           {"lti_vy", &t_vy},
      {"dnn", &t_dnn}};
  for (const auto& [name, t] : rows) {
    report.metric(std::string{name} + "_tpr", tpr(*t));
    report.metric(std::string{name} + "_fpr", fpr(*t));
  }
  report.shape("audio+IMU FPR <= audio-only FPR", fpr(audio_imu), "<=", fpr(audio_only));
  report.shape("audio+IMU TPR >= Failsafe TPR", tpr(audio_imu), ">=", tpr(t_failsafe));
  report.shape("audio+IMU TPR >= LTI yaw TPR", tpr(audio_imu), ">=", tpr(t_yaw));
  report.shape("audio+IMU TPR >= LTI vx TPR", tpr(audio_imu), ">=", tpr(t_vx));
  report.shape("audio+IMU TPR >= LTI vy TPR", tpr(audio_imu), ">=", tpr(t_vy));
  report.shape("DNN FPR >= 0.5", fpr(t_dnn), ">=", 0.5);
  return report.shape_exit_code();
}
