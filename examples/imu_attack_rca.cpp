// IMU-attack RCA walk-through: train the acoustic model on benign flights,
// calibrate the detectors, then diagnose a flight whose gyroscope
// was spoofed mid-air with a Side-Swing bias injection.
//
// Uses the fast MLP model so the whole example runs in about a minute;
// the benches use the full MobileNetLite configuration.
//
//   $ ./imu_attack_rca
#include <cstdio>
#include <vector>

#include "core/imu_rca.hpp"
#include "core/rca_engine.hpp"
#include "core/sensory_mapper.hpp"
#include "obs/log.hpp"

using namespace sb;

int main() {
  core::FlightLab lab;

  // --- Offline phase: train the sensory mapping on benign flights. ---
  obs::logf(obs::LogLevel::kInfo, "setup", "[1/4] flying the benign training campaign...");
  const auto scenarios = lab.training_scenarios(/*per_family=*/2, /*duration=*/18.0);
  std::vector<core::Flight> train_flights;
  for (const auto& s : scenarios) train_flights.push_back(lab.fly(s));

  core::SensoryMapperConfig cfg;
  cfg.model = ml::ModelKind::kMlp;  // fast; use kMobileNetLite for quality
  cfg.train.epochs = 8;
  core::SensoryMapper mapper{cfg};
  obs::logf(obs::LogLevel::kInfo, "setup", "[2/4] training %s on %zu flights...",
            ml::to_string(cfg.model).c_str(), train_flights.size());
  const auto fit = mapper.fit(lab, train_flights);
  obs::logf(obs::LogLevel::kInfo, "setup", "train MSE %.3f, val MSE %.3f",
            fit.final_train_mse, fit.final_val_mse);

  // --- Calibrate the benign residual distribution. ---
  obs::logf(obs::LogLevel::kInfo, "setup", "[3/4] calibrating the benign residual distribution...");
  std::vector<core::Flight> cal_flights;
  std::vector<std::vector<core::TimedPrediction>> cal_preds;
  for (std::uint64_t seed = 900; seed < 906; ++seed) {
    core::FlightScenario b;
    b.mission = sim::Mission::hover({0, 0, -10}, 25.0);
    b.wind.gust_stddev = 0.4;
    b.seed = seed;
    cal_flights.push_back(lab.fly(b));
    cal_preds.push_back(mapper.predict_flight(lab, cal_flights.back()));
  }
  const auto det = core::calibrate_detectors(cal_flights, cal_preds);
  const core::ImuRcaDetector& detector = det.imu;
  obs::logf(obs::LogLevel::kInfo, "setup", "benign z-residuals: mean %+.3f, std %.3f",
            detector.benign_fit(2).mean, detector.benign_fit(2).stddev);

  // --- The incident: a hover mission that went wobbly at t=12 s. ---
  obs::logf(obs::LogLevel::kInfo, "run", "[4/4] post-incident analysis of the attacked flight...");
  core::FlightScenario incident;
  incident.mission = sim::Mission::hover({0, 0, -10}, 30.0);
  incident.wind.gust_stddev = 0.4;
  attacks::ImuAttackConfig attack;
  attack.type = attacks::ImuAttackType::kSideSwing;
  attack.start = 12.0;
  attack.end = 22.0;
  incident.imu_attack = attack;
  incident.seed = 999;
  const auto flight = lab.fly(incident);

  const auto preds = mapper.predict_flight(lab, flight);
  const auto windows = core::ImuRcaDetector::residuals(flight, preds);
  const auto result = detector.analyze(windows);

  std::printf("\n=== RCA verdict ===\n");
  std::printf("IMU compromised : %s\n", result.attacked ? "YES" : "no");
  if (result.attacked) {
    std::printf("first flagged at: %.1f s (attack started at %.1f s -> %.1f s delay)\n",
                result.detect_time, attack.start, result.detect_time - attack.start);
    std::printf("windows flagged : %zu / %zu (max OOD score %.1f vs threshold %.1f)\n",
                result.windows_flagged, result.windows_tested, result.max_score,
                detector.score_threshold());
    std::printf(
        "\nThe acoustic side-channel says the vehicle flew normally while the\n"
        "IMU reported something else: the IMU is the root cause. A GPS check\n"
        "would now run with the audio-only Kalman filter (§III-C2, version 1).\n");
  }
  return 0;
}
