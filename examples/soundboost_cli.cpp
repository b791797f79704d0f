// soundboost_cli — drive the library end to end from the command line.
//
//   soundboost_cli fly      [--mission hover|line|square|fig8] [--seed N]
//                           [--duration S] [--attack none|imu|gps|actuator]
//                           [--out PREFIX]       exports truth/imu/gps CSVs
//   soundboost_cli record   [--seed N] [--t0 S] [--t1 S] [--out FILE.wav]
//                           writes the 4-channel microphone recording
//   soundboost_cli train    [--model mlp|mobilenet|resnet|ode] [--flights N]
//                           [--epochs N] [--out MODEL.bin]
//   soundboost_cli analyze  [--model mlp|mobilenet|resnet|ode]
//                           [--out MODEL.bin] [--attack none|imu|gps]
//                           [--seed N]           runs the two-stage RCA
//
// analyze loads the model trained by `train` with the same --model and
// --out.  An unknown option or value, a missing value, a malformed number
// or a non-positive count prints the usage and exits 2.  Everything is
// deterministic in --seed.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "core/rca_engine.hpp"
#include "core/sensory_mapper.hpp"
#include "io/flight_csv.hpp"
#include "io/wav.hpp"
#include "obs/log.hpp"

using namespace sb;

namespace {

struct Args {
  std::string command;
  std::string mission = "hover";
  std::string attack = "none";
  std::string model = "mlp";
  std::string out;
  std::uint64_t seed = 1;
  double duration = 40.0;
  double t0 = 5.0, t1 = 6.0;
  int flights = 12;
  int epochs = 8;
};

bool one_of(const std::string& value, std::initializer_list<std::string_view> allowed) {
  return std::find(allowed.begin(), allowed.end(), value) != allowed.end();
}

// Whole-string numeric parse: no leading junk, no trailing junk.
template <typename T>
bool parse_number(const std::string& text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

bool parse(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  args.command = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", key.c_str());
      return false;
    }
    const std::string value = argv[i + 1];
    bool ok = true;
    if (key == "--mission") {
      ok = one_of(value, {"hover", "line", "square", "fig8"});
      args.mission = value;
    } else if (key == "--attack") {
      ok = one_of(value, {"none", "imu", "gps", "actuator"});
      args.attack = value;
    } else if (key == "--model") {
      ok = one_of(value, {"mlp", "mobilenet", "resnet", "ode"});
      args.model = value;
    } else if (key == "--out") {
      args.out = value;
    } else if (key == "--seed") {
      ok = parse_number(value, args.seed);
    } else if (key == "--duration") {
      ok = parse_number(value, args.duration) && args.duration > 0.0;
    } else if (key == "--t0") {
      ok = parse_number(value, args.t0);
    } else if (key == "--t1") {
      ok = parse_number(value, args.t1);
    } else if (key == "--flights") {
      ok = parse_number(value, args.flights) && args.flights > 0;
    } else if (key == "--epochs") {
      ok = parse_number(value, args.epochs) && args.epochs > 0;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", key.c_str());
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "invalid value for %s: '%s'\n", key.c_str(), value.c_str());
      return false;
    }
  }
  return true;
}

sim::Mission make_mission(const std::string& name, double duration) {
  if (name == "line") return sim::Mission::line({0, 0, -10}, {20, 5, -11}, 2.5, duration);
  if (name == "square") return sim::Mission::square({0, 0, 0}, 14, 11, 2.2, duration);
  if (name == "fig8") return sim::Mission::figure_eight({0, 0, -12}, 9, 2.6, duration);
  return sim::Mission::hover({0, 0, -10}, duration);
}

core::FlightScenario make_scenario(const Args& args) {
  core::FlightScenario s;
  s.mission = make_mission(args.mission, args.duration);
  s.wind.gust_stddev = 0.4;
  s.seed = args.seed;
  if (args.attack == "imu") {
    attacks::ImuAttackConfig a;
    a.start = args.duration * 0.35;
    a.end = a.start + 10.0;
    s.imu_attack = a;
  } else if (args.attack == "gps") {
    attacks::GpsSpoofConfig g;
    g.start = args.duration * 0.3;
    g.end = args.duration * 0.8;
    g.drag_rate = 1.1;
    s.gps_spoof = g;
  } else if (args.attack == "actuator") {
    attacks::ActuatorDosConfig a;
    a.start = args.duration * 0.35;
    a.end = a.start + 8.0;
    s.actuator_attack = a;
  }
  return s;
}

core::SensoryMapperConfig mapper_config(const Args& args) {
  core::SensoryMapperConfig cfg;
  if (args.model == "mobilenet") cfg.model = ml::ModelKind::kMobileNetLite;
  else if (args.model == "resnet") cfg.model = ml::ModelKind::kResNetLite;
  else if (args.model == "ode") cfg.model = ml::ModelKind::kNeuralOde;
  else cfg.model = ml::ModelKind::kMlp;
  cfg.train.epochs = static_cast<std::size_t>(args.epochs);
  return cfg;
}

int cmd_fly(const Args& args) {
  core::FlightLab lab;
  const auto flight = lab.fly(make_scenario(args));
  std::printf("flew '%s' (%.0f s, seed %llu, attack: %s)\n",
              flight.log.mission_name.c_str(), flight.log.duration(),
              static_cast<unsigned long long>(args.seed), args.attack.c_str());
  const std::string prefix = args.out.empty() ? "flight" : args.out;
  const bool ok = io::write_truth_csv(prefix + "_truth.csv", flight.log) &&
                  io::write_imu_csv(prefix + "_imu.csv", flight.log) &&
                  io::write_gps_csv(prefix + "_gps.csv", flight.log);
  std::printf("%s %s_{truth,imu,gps}.csv\n", ok ? "wrote" : "FAILED writing",
              prefix.c_str());
  return ok ? 0 : 1;
}

int cmd_record(const Args& args) {
  core::FlightLab lab;
  const auto flight = lab.fly(make_scenario(args));
  const auto synth = lab.synthesizer(flight);
  const auto audio = synth.synthesize(flight.log, args.t0, args.t1);
  const std::string path = args.out.empty() ? "recording.wav" : args.out;
  if (!io::write_wav(path, audio, 2.0)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s: %zu samples x %d mics @ %.0f Hz (t=%.1f..%.1f s)\n",
              path.c_str(), audio.num_samples(), sensors::kNumMics,
              audio.sample_rate, args.t0, args.t1);
  return 0;
}

int cmd_train(const Args& args) {
  core::FlightLab lab;
  const int per_family = std::max(1, args.flights / 6);
  obs::logf(obs::LogLevel::kInfo, "setup", "flying %d training flights...", per_family * 6);
  std::vector<core::Flight> flights;
  for (const auto& s : lab.training_scenarios(per_family, 20.0))
    flights.push_back(lab.fly(s));

  core::SensoryMapper mapper{mapper_config(args)};
  obs::logf(obs::LogLevel::kInfo, "setup", "training %s (%d epochs)...",
            ml::to_string(mapper.config().model).c_str(), args.epochs);
  const auto result = mapper.fit(lab, flights);
  std::printf("train MSE %.4f, val MSE %.4f\n", result.final_train_mse,
              result.final_val_mse);
  const std::string path = args.out.empty() ? "soundboost_model.bin" : args.out;
  if (!mapper.save(path)) {
    std::fprintf(stderr, "failed to save %s\n", path.c_str());
    return 1;
  }
  std::printf("saved model to %s\n", path.c_str());
  return 0;
}

int cmd_analyze(const Args& args) {
  core::FlightLab lab;
  core::SensoryMapper mapper{mapper_config(args)};
  const std::string path = args.out.empty() ? "soundboost_model.bin" : args.out;
  if (!mapper.load(path)) {
    std::fprintf(stderr,
                 "cannot load model from %s (train one with `soundboost_cli "
                 "train --model %s --out %s`)\n",
                 path.c_str(), args.model.c_str(), path.c_str());
    return 1;
  }

  obs::logf(obs::LogLevel::kInfo, "setup", "calibrating detectors on benign flights...");
  std::vector<core::Flight> cal_flights;
  std::vector<std::vector<core::TimedPrediction>> cal_preds;
  for (std::uint64_t s = 7000; s < 7006; ++s) {
    core::FlightScenario b;
    b.mission = s % 2 ? make_mission("line", 30.0) : make_mission("hover", 30.0);
    b.wind.gust_stddev = 0.4;
    b.seed = s;
    cal_flights.push_back(lab.fly(b));
    cal_preds.push_back(mapper.predict_flight(lab, cal_flights.back()));
  }
  const auto det = core::calibrate_detectors(cal_flights, cal_preds);

  obs::logf(obs::LogLevel::kInfo, "run", "flying the incident (attack: %s)...", args.attack.c_str());
  const auto flight = lab.fly(make_scenario(args));
  core::RcaEngine engine{mapper, det.imu, det.gps};
  const auto report = engine.analyze(lab, flight);

  std::printf("\n=== RCA verdict ===\n");
  std::printf("IMU : %s", report.imu_attacked ? "ATTACKED" : "clean");
  if (report.imu_attacked) std::printf(" (flagged at %.1f s)", report.imu_detect_time);
  std::printf("\nGPS : %s", report.gps_attacked ? "ATTACKED" : "clean");
  if (report.gps_attacked) std::printf(" (flagged at %.1f s)", report.gps_detect_time);
  std::printf("\nKF  : %s\n",
              report.gps_mode_used == core::GpsDetectorMode::kAudioOnly
                  ? "audio only (IMU untrusted)"
                  : "audio + IMU (IMU trusted)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (parse(argc, argv, args)) {
    if (args.command == "fly") return cmd_fly(args);
    if (args.command == "record") return cmd_record(args);
    if (args.command == "train") return cmd_train(args);
    if (args.command == "analyze") return cmd_analyze(args);
    std::fprintf(stderr, "unknown command: %s\n", args.command.c_str());
  }
  std::fprintf(stderr,
               "usage: soundboost_cli <fly|record|train|analyze> [options]\n"
               "see the header comment of examples/soundboost_cli.cpp\n");
  return 2;
}
