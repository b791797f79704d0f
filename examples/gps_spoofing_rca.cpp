// GPS-spoofing RCA walk-through: the full two-stage RcaEngine diagnosing a
// stealthy GPS drag-spoof (Sathaye-style human-in-the-loop takeover) that
// pulled a hovering UAV tens of meters off its station.
//
//   $ ./gps_spoofing_rca
#include <cstdio>
#include <vector>

#include "core/rca_engine.hpp"
#include "core/sensory_mapper.hpp"
#include "obs/log.hpp"

using namespace sb;

int main() {
  core::FlightLab lab;

  obs::logf(obs::LogLevel::kInfo, "setup", "[1/4] training the acoustic model on benign flights...");
  const auto scenarios = lab.training_scenarios(2, 18.0);
  std::vector<core::Flight> train_flights;
  for (const auto& s : scenarios) train_flights.push_back(lab.fly(s));
  core::SensoryMapperConfig cfg;
  cfg.model = ml::ModelKind::kMlp;
  cfg.train.epochs = 8;
  core::SensoryMapper mapper{cfg};
  mapper.fit(lab, train_flights);

  obs::logf(obs::LogLevel::kInfo, "setup", "[2/4] calibrating both detector stages on benign flights...");
  // Stricter IMU-stage settings for mixed-mission deployments: regime
  // changes (hover -> en-route) shift the model's residual bias, and the
  // IMU verdict here means "untrusted", not necessarily "attacked".
  core::ImuRcaConfig imu_cfg;
  imu_cfg.score_percentile = 99.5;
  imu_cfg.score_margin = 1.6;
  imu_cfg.consecutive_required = 5;
  std::vector<core::Flight> cal_flights;
  std::vector<std::vector<core::TimedPrediction>> cal_preds;
  for (std::uint64_t seed = 910; seed < 918; ++seed) {
    core::FlightScenario b;
    // Calibration must cover the mission variety the detector will see:
    // hover, en-route and turning flight all have different benign
    // residual envelopes.
    switch (seed % 4) {
      case 0: b.mission = sim::Mission::hover({0, 0, -10}, 30.0); break;
      case 1:
        b.mission = sim::Mission::line({0, 0, -10}, {15, 5, -11}, 2.5, 30.0);
        break;
      case 2:
        b.mission = sim::Mission::figure_eight({0, 2, -11}, 8, 2.2, 30.0);
        break;
      default:
        b.mission = sim::Mission::square({0, 0, 0}, 12, 10, 2.0, 30.0);
        break;
    }
    b.wind.gust_stddev = 0.4;
    b.seed = seed;
    cal_flights.push_back(lab.fly(b));
    cal_preds.push_back(mapper.predict_flight(lab, cal_flights.back()));
  }
  const auto det = core::calibrate_detectors(cal_flights, cal_preds, imu_cfg);
  obs::logf(obs::LogLevel::kInfo, "setup",
            "velocity-error thresholds: audio-only %.2f, audio+IMU %.2f m/s",
            det.gps.threshold(core::GpsDetectorMode::kAudioOnly),
            det.gps.threshold(core::GpsDetectorMode::kAudioImu));

  obs::logf(obs::LogLevel::kInfo, "run", "[3/4] the incident: hover mission, spoofer active 15-45 s...");
  core::FlightScenario incident;
  incident.mission = sim::Mission::hover({0, 0, -12}, 55.0);
  incident.wind.gust_stddev = 0.4;
  attacks::GpsSpoofConfig spoof;
  spoof.start = 15.0;
  spoof.end = 45.0;
  spoof.drag_direction = {1, 0, 0};
  spoof.drag_rate = 1.1;
  incident.gps_spoof = spoof;
  incident.seed = 888;
  const auto flight = lab.fly(incident);
  const Vec3 final_true = flight.log.true_pos[flight.log.true_pos.size() / 2];
  obs::logf(obs::LogLevel::kInfo, "run",
            "mid-flight true position: (%.1f, %.1f, %.1f) — hijacked off "
            "station while the GPS reported all-is-well",
            final_true.x, final_true.y, final_true.z);

  obs::logf(obs::LogLevel::kInfo, "run", "[4/4] post-incident two-stage RCA...");
  core::RcaEngine engine{mapper, det.imu, det.gps};
  const auto report = engine.analyze(lab, flight);

  std::printf("\n=== RCA verdict ===\n");
  std::printf("IMU trusted     : %s\n", report.imu_attacked ? "NO (anomalous)" : "yes");
  std::printf("GPS compromised : %s\n", report.gps_attacked ? "YES" : "no");
  std::printf("KF variant used : %s\n",
              report.gps_mode_used == core::GpsDetectorMode::kAudioImu
                  ? "audio + IMU (IMU trusted)"
                  : "audio only (IMU untrusted)");
  if (report.gps_attacked)
    std::printf("GPS alert at    : %.1f s (spoof started at %.1f s)\n",
                report.gps_detect_time, spoof.start);
  std::printf(
      "\nThe acoustic velocity estimate tracked the real drift; the GPS\n"
      "velocity did not. Root cause: GPS spoofing.\n");
  return 0;
}
