// train: corpus build plus fit of the standard config on kWorkers workers.
// core::DatasetBuilder featurizes the seed-offset training_scenarios (about
// 2200 overlapping, per-window-seeded syntheses for 24 flights), then
// SensoryMapper::fit_dataset trains bench::standard_mapper_config() on it —
// the only workload that runs the trainer and the exact-double dataset path.
//
// Set-up (setup_s): fly the training flights, kSetupRepeats times; the
// median is reported because one repetition takes well under a second.
// Latency is the per-flight DatasetBuilder::add_flight wall time.
// Checks: the fitted model round-trips through save/load and predicts a
// probe batch bitwise-identically.
#include <cstring>
#include <stdexcept>

#include "rig.hpp"

namespace sb::perfbench {
namespace {

constexpr std::size_t kWorkers = 2;
constexpr int kSetupRepeats = 9;
constexpr std::size_t kProbeWindows = 8;

std::vector<core::FlightScenario> make_scenarios(const Options& opt) {
  auto scenarios = opt.tiny ? bench::lab().training_scenarios(1, 8.0)
                            : bench::lab().training_scenarios(4, 25.0);
  for (auto& s : scenarios) s.seed += opt.seed;
  return scenarios;
}

struct Fit {
  std::unique_ptr<core::SensoryMapper> mapper;
  ml::TrainResult result;
  std::vector<double> add_flight_s;
  std::size_t windows = 0;
  std::size_t train_rows = 0;
  double build_s = 0.0;
  double fit_s = 0.0;
  std::uint64_t heap_allocs = 0;  // scratch-pool heap fetches during fit
};

Fit build_and_fit(const Options& opt, const std::vector<core::Flight>& flights,
                  Tracer& tracer) {
  const core::SensoryMapperConfig cfg = mapper_config(opt);
  Fit fit;
  fit.mapper = std::make_unique<core::SensoryMapper>(cfg);
  Scoped root{tracer, "train.measured"};
  const double t0 = now_seconds();
  ml::RegressionDataset data;
  {
    Scoped span{tracer, "core.dataset_build"};
    core::DatasetBuilder builder{cfg.dataset, bench::lab()};
    for (std::size_t i = 0; i < flights.size(); ++i) {
      const double a = now_seconds();
      {
        Scoped add{tracer, "core.add_flight", i};
        builder.add_flight(flights[i], static_cast<std::int64_t>(i));
      }
      fit.add_flight_s.push_back(now_seconds() - a);
    }
    data = builder.build();
  }
  const double t1 = now_seconds();
  fit.windows = data.size();
  fit.train_rows =
      data.size() - static_cast<std::size_t>(static_cast<double>(data.size()) *
                                             cfg.val_fraction);
  obs::Counter& heap = obs::Registry::instance().counter("ml.workspace.heap_allocs");
  const std::uint64_t heap0 = heap.value();
  {
    Scoped span{tracer, "ml.fit"};
    fit.result = fit.mapper->fit_dataset(data);
  }
  fit.heap_allocs = heap.value() - heap0;
  fit.build_s = t1 - t0;
  fit.fit_s = now_seconds() - t1;
  return fit;
}

// Saves the fitted model, loads it into a fresh mapper and compares both
// mappers' predictions on a probe batch of one flight's windows, bit for bit.
bool round_trips(const Options& opt, const core::SensoryMapper& mapper,
                 const core::Flight& flight) {
  const std::string path = (opt.work_dir / "train_roundtrip.bin").string();
  if (!mapper.save(path)) return false;
  core::SensoryMapper loaded{mapper_config(opt)};
  if (!loaded.load(path)) return false;
  const auto synth = bench::lab().synthesizer(flight);
  const double len = mapper.config().dataset.signature.window_seconds;
  std::vector<ml::Tensor> a, b;
  std::vector<core::WindowSpan> spans;
  for (std::size_t w = 0; w < kProbeWindows; ++w) {
    const double t0 = mapper.config().dataset.settle_time + 0.5 * static_cast<double>(w);
    if (t0 + len > flight.log.duration()) break;
    const auto audio = synth.synthesize(flight.log, t0, t0 + len);
    a.push_back(mapper.prepare_signature(audio));
    b.push_back(loaded.prepare_signature(audio));
    spans.push_back({t0, t0 + len});
  }
  const auto pa = mapper.predict_prepared(a, spans);
  const auto pb = loaded.predict_prepared(b, spans);
  if (pa.empty() || pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i)
    if (std::memcmp(&pa[i].accel, &pb[i].accel, sizeof(Vec3)) != 0 ||
        std::memcmp(&pa[i].vel, &pb[i].vel, sizeof(Vec3)) != 0)
      return false;
  return true;
}

}  // namespace

Outcome run_train(const Options& opt) {
  const auto scenarios = make_scenarios(opt);
  bench::BenchReport report{std::string{"perfbench_train"} + (opt.trace ? "_trace" : "")};
  Tracer tracer{opt.trace};
  util::ThreadPool::set_threads(kWorkers);

  std::vector<core::Flight> flights;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double t0 = now_seconds();
    Scoped span{tracer, "sim.fly", static_cast<std::uint64_t>(r)};
    flights = bench::lab().fly_all(scenarios);
    setup_s.push_back(now_seconds() - t0);
  }
  double flight_seconds = 0.0;
  for (const auto& f : flights) flight_seconds += f.log.duration();

  reset_peak_rss();

  Outcome out;
  Values values;
  Tracer off{false};
  const Fit fit = build_and_fit(opt, flights, off);
  const double peak_rss = peak_rss_mib();
  const bool round_trip = round_trips(opt, *fit.mapper, flights.front());
  out.check(round_trip, "fitted model does not round-trip through save/load");
  out.attempted = 1;
  out.failed = round_trip ? 0 : 1;
  const double wall = fit.build_s + fit.fit_s;

  if (!opt.trace) {
    values["setup_s"] = median(setup_s);
    values["throughput_rtf"] = flight_seconds / wall;
    values["latency_p50_ms"] = 1e3 * quantile(fit.add_flight_s, 0.5);
    values["latency_p90_ms"] = 1e3 * quantile(fit.add_flight_s, 0.9);
    values["peak_rss_mb"] = peak_rss;
    values["ok_ratio"] = round_trip ? 1.0 : 0.0;
    out.emit(values, false);
    out.note("val_mse", fit.result.final_val_mse, "MSE");
    out.note("failed_ratio", round_trip ? 0.0 : 1.0, "ratio");
    out.note("latency_samples", static_cast<double>(fit.add_flight_s.size()), "count");
  } else {
    ProgramCounters counters;
    const Fit traced = build_and_fit(opt, flights, tracer);
    counters.finish(values, traced.windows);
    out.check(std::memcmp(&traced.result.final_val_mse, &fit.result.final_val_mse,
                          sizeof(double)) == 0,
              "traced fit's validation MSE differs from the untraced fit's");

    values["sim.fly_s"] = median(setup_s);
    values["core.dataset_build_s"] = tracer.total_seconds("core.dataset_build");
    values["core.dataset_windows"] = static_cast<double>(traced.windows);
    values["ml.fit_s"] = tracer.total_seconds("ml.fit");
    values["ml.train_samples_per_s"] =
        static_cast<double>(traced.train_rows * mapper_config(opt).train.epochs) /
        values["ml.fit_s"];
    values["ml.workspace_heap_allocs"] = static_cast<double>(traced.heap_allocs);
    values["ml.val_mse"] = traced.result.final_val_mse;
    values["trace.overhead_s"] = (traced.build_s + traced.fit_s) - wall;
    const double root = tracer.total_seconds("train.measured");
    values["trace.coverage"] =
        root > 0.0 ? 1.0 - tracer.self_seconds("train.measured") / root : 0.0;
    out.emit(values, true);
    tracer.write_json(opt.work_dir / "SPANS_train.json");
  }
  add_provenance(report, opt, kWorkers, kWorkers);
  report.metric("flights", static_cast<double>(flights.size()));
  report.metric("corpus_windows", static_cast<double>(fit.windows));
  report.metric("setup_repeats", kSetupRepeats);
  for (const auto& m : out.metrics) report.metric(m.name, m.value);
  report.flush();
  return out;
}

}  // namespace sb::perfbench
