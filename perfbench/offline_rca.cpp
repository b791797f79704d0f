// offline_rca: closed loop, one analyst.  Seeded recorded flights (equal
// thirds benign 40 s, GPS-spoof 60 s, IMU-attack 40 s) are analysed one
// after another by core::RcaEngine::analyze on kWorkers workers until at
// least --seconds have passed and every flight was analysed once.
//
// Set-up (setup_s): fly the flights, load the model, calibrate detectors.
// Checks: a few flights are re-analysed on the reference path (1 worker,
// scalar SIMD backend) and must give bitwise-equal reports.
#include <stdexcept>

#include "rig.hpp"

namespace sb::perfbench {
namespace {

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kReferenceFlights = 2;

struct Inputs {
  std::vector<core::FlightScenario> scenarios;
  int calibration_flights = 10;
  double calibration_seconds = 40.0;
};

Inputs make_inputs(const Options& opt) {
  Inputs in;
  const int per_kind = opt.tiny ? 1 : 4;
  for (int j = 0; j < per_kind; ++j) {
    in.scenarios.push_back(bench::benign_scenario(j, opt.tiny ? 12.0 : 40.0));
    in.scenarios.push_back(bench::gps_attack_scenario(j, opt.tiny ? 24.0 : 60.0));
    in.scenarios.push_back(bench::imu_attack_scenario(j, opt.tiny ? 20.0 : 40.0));
  }
  if (opt.tiny) {
    in.calibration_flights = 2;
    in.calibration_seconds = 12.0;
  }
  return in;
}

struct Setup {
  std::vector<core::Flight> flights;
  std::unique_ptr<core::SensoryMapper> mapper;
  std::unique_ptr<bench::CalibratedDetectors> detectors;
};

Setup set_up(const Options& opt, const Inputs& in, const std::string& model,
             Tracer& tracer) {
  Setup s;
  {
    Scoped span{tracer, "sim.fly"};
    s.flights = bench::lab().fly_all(in.scenarios);
  }
  {
    Scoped span{tracer, "ml.model_load"};
    s.mapper = std::make_unique<core::SensoryMapper>(mapper_config(opt));
    if (!s.mapper->load(model)) throw std::runtime_error{"cannot load " + model};
  }
  {
    Scoped span{tracer, "core.calibrate"};
    s.detectors = std::make_unique<bench::CalibratedDetectors>(bench::calibrate_detectors(
        *s.mapper, in.calibration_flights, in.calibration_seconds));
  }
  return s;
}

struct Pass {
  std::vector<core::RcaReport> reports;  // first analysis of each flight
  std::vector<double> latency_s;         // every analysis
  double flight_seconds = 0.0;
  double wall_s = 0.0;
  std::size_t windows = 0;
  std::uint64_t failed = 0;
};

// Analyses the flights in order, cycling, until `min_seconds` have passed
// and each flight was analysed at least once.
Pass analyze_flights(const Setup& s, double min_seconds, Tracer& tracer) {
  const core::RcaEngine engine{*s.mapper, s.detectors->imu, s.detectors->gps};
  Pass pass;
  pass.reports.resize(s.flights.size());
  Scoped root{tracer, "offline.measured"};
  const double start = now_seconds();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = now_seconds() - start;
    if (i >= s.flights.size() && elapsed >= min_seconds) break;
    const std::size_t f = i % s.flights.size();
    const core::Flight& flight = s.flights[f];
    core::RcaReport report;
    const double t0 = now_seconds();
    try {
      Scoped span{tracer, "core.analyze", f};
      report = engine.analyze(bench::lab(), flight);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: analyze of flight %zu threw: %s\n", f, e.what());
      ++pass.failed;
    }
    pass.latency_s.push_back(now_seconds() - t0);
    pass.flight_seconds += flight.log.duration();
    pass.windows += report.health.windows_total;
    if (i < s.flights.size()) pass.reports[f] = report;
  }
  pass.wall_s = now_seconds() - start;
  return pass;
}

}  // namespace

Outcome run_offline_rca(const Options& opt) {
  const std::string model = provision_model(opt, kWorkers);
  const Inputs in = make_inputs(opt);
  bench::BenchReport report{std::string{"perfbench_offline_rca"} +
                            (opt.trace ? "_trace" : "")};
  Tracer tracer{opt.trace};

  util::ThreadPool::set_threads(kWorkers);
  const double setup_start = now_seconds();
  const Setup s = set_up(opt, in, model, tracer);
  const double setup_s = now_seconds() - setup_start;
  reset_peak_rss();

  Outcome out;
  Values values;
  Pass pass;
  if (!opt.trace) {
    pass = analyze_flights(s, opt.seconds, tracer);
    values["peak_rss_mb"] = peak_rss_mib();
  } else {
    // Untraced pass first (its wall is the overhead baseline), then the
    // traced pass over the same flights with the program's own stage totals
    // and counters switched on.
    Tracer off{false};
    const Pass untraced = analyze_flights(s, 0.0, off);
    ProgramCounters counters;
    const auto stages0 = obs::Trace::instance().stage_totals();
    pass = analyze_flights(s, 0.0, tracer);
    const auto stages1 = obs::Trace::instance().stage_totals();
    counters.finish(values, pass.windows);
    // The stage totals split analyze (one public call) into its stages.
    auto stage = [&](obs::Stage st) {
      const auto k = static_cast<std::size_t>(st);
      return stages1[k].seconds - stages0[k].seconds;
    };
    values["acoustics.synth_s"] = stage(obs::Stage::kSynthesis);
    values["core.predict_s"] = stage(obs::Stage::kPredict);
    values["core.detect_s"] = stage(obs::Stage::kDetect);
    values["trace.overhead_s"] = pass.wall_s - untraced.wall_s;
    for (std::size_t f = 0; f < s.flights.size(); ++f)
      out.check(same_report(untraced.reports[f], pass.reports[f]),
                "traced analysis of flight " + std::to_string(f) +
                    " differs from the untraced one");
  }

  // Reference path: 1 worker and the scalar SIMD backend must reproduce the
  // measured reports bit for bit.
  const std::uint64_t threw = pass.failed;
  {
    const util::SimdBackend backend = util::simd_backend();
    util::ThreadPool::set_threads(1);
    util::set_simd_backend(util::SimdBackend::kScalar);
    const core::RcaEngine engine{*s.mapper, s.detectors->imu, s.detectors->gps};
    for (std::size_t f = 0; f < std::min(kReferenceFlights, s.flights.size()); ++f) {
      const core::RcaReport ref = engine.analyze(bench::lab(), s.flights[f]);
      const bool same = same_report(ref, pass.reports[f]);
      if (!same) ++pass.failed;
      out.check(same, "reference-path report of flight " + std::to_string(f) +
                          " differs from the measured one");
    }
    util::set_simd_backend(backend);
    util::ThreadPool::set_threads(kWorkers);
  }

  const Detection detection = score(in.scenarios, pass.reports);
  out.check(threw == 0, std::to_string(threw) + " analyses threw");
  out.attempted = pass.latency_s.size() + std::min(kReferenceFlights, s.flights.size());
  out.failed = pass.failed;

  if (!opt.trace) {
    values["setup_s"] = setup_s;
    values["throughput_rtf"] = pass.flight_seconds / pass.wall_s;
    values["latency_p50_ms"] = 1e3 * quantile(pass.latency_s, 0.5);
    values["latency_p90_ms"] = 1e3 * quantile(pass.latency_s, 0.9);
    values["ok_ratio"] =
        1.0 - static_cast<double>(out.failed) / static_cast<double>(out.attempted);
    out.emit(values, false);
    out.note("tpr", detection.tpr, "ratio");
    out.note("fpr", detection.fpr, "ratio");
    out.note("failed_ratio", 1.0 - values["ok_ratio"], "ratio");
    out.note("latency_samples", static_cast<double>(pass.latency_s.size()), "count");
  } else {
    values["sim.fly_s"] = tracer.total_seconds("sim.fly");
    values["ml.model_load_s"] = tracer.total_seconds("ml.model_load");
    values["core.calibrate_s"] = tracer.total_seconds("core.calibrate");
    values["core.analyze_s"] = tracer.self_seconds("core.analyze");
    values["core.analyze_flights"] = static_cast<double>(tracer.count("core.analyze"));
    values["core.analyze_windows"] = static_cast<double>(pass.windows);
    values["core.tpr"] = detection.tpr;
    values["core.fpr"] = detection.fpr;
    const double root = tracer.total_seconds("offline.measured");
    values["trace.coverage"] =
        root > 0.0 ? 1.0 - tracer.self_seconds("offline.measured") / root : 0.0;
    out.emit(values, true);
    tracer.write_json(opt.work_dir / "SPANS_offline_rca.json");
  }
  add_provenance(report, opt, kWorkers, kWorkers);
  report.metric("flights", static_cast<double>(s.flights.size()));
  report.metric("analyses", static_cast<double>(pass.latency_s.size()));
  report.metric("reference_flights",
                static_cast<double>(std::min(kReferenceFlights, s.flights.size())));
  for (const auto& m : out.metrics) report.metric(m.name, m.value);
  report.flush();
  return out;
}

}  // namespace sb::perfbench
