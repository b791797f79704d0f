// Entry point of the repository benchmark (see run.py for the command line
// and the workload/metric catalogue).  Runs one workload, prints every
// metric as "name value unit", then prints the result object as the last
// line of stdout.  Exits nonzero when an output check failed.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>

#include "rig.hpp"

namespace sb::perfbench {

namespace {

struct CatalogEntry {
  const char* name;
  const char* unit;
};

// The end-to-end catalogue: what a user of each workload sees.  Every
// workload reports all of them (BENCHMARK.json "end_to_end").
constexpr CatalogEntry kEndToEnd[] = {
    {"setup_s", "s"},           {"throughput_rtf", "x"},
    {"latency_p50_ms", "ms"},   {"latency_p90_ms", "ms"},
    {"peak_rss_mb", "MiB"},     {"ok_ratio", "ratio"},
};

// The per-layer catalogue (BENCHMARK.json "per_layer"), grouped by layer.
constexpr CatalogEntry kPerLayer[] = {
    // Set-up layers.
    {"sim.fly_s", "s"},
    {"ml.model_load_s", "s"},
    {"core.calibrate_s", "s"},
    {"acoustics.render_s", "s"},
    {"acoustics.render_ns_per_sample", "ns"},
    // RcaEngine::analyze and what the program's own stage totals and
    // counters say happened inside it.
    {"core.analyze_s", "s"},
    {"core.analyze_flights", "count"},
    {"core.analyze_windows", "count"},
    {"acoustics.synth_s", "s"},
    {"core.predict_s", "s"},
    {"core.detect_s", "s"},
    {"dsp.fft_calls_per_window", "count"},
    {"ml.gemm_gflop", "GFLOP"},
    {"util.pool_tasks_per_window", "count"},
    // Serving: ingest, signature preparation, batched forward, detectors,
    // scheduling and session state.
    {"stream.push_s", "s"},
    {"signature.prepare_s", "s"},
    {"signature.us_per_window", "us"},
    {"ml.forward_s", "s"},
    {"ml.forward_batches", "count"},
    {"ml.batch_rows_mean", "count"},
    {"detect.deliver_s", "s"},
    {"detect.us_per_window", "us"},
    {"stream.queue_wait_ms_p50", "ms"},
    {"stream.busy_ratio", "ratio"},
    {"stream.generator_lag_ms_p50", "ms"},
    {"stream.generator_lag_ms_max", "ms"},
    {"stream.windows_staged", "count"},
    {"stream.windows_shed", "count"},
    {"stream.windows_thinned", "count"},
    {"stream.checkpoint_ms", "ms"},
    {"stream.restore_ms", "ms"},
    {"stream.state_bytes", "bytes"},
    // Training.
    {"core.dataset_build_s", "s"},
    {"core.dataset_windows", "count"},
    {"ml.fit_s", "s"},
    {"ml.train_samples_per_s", "1/s"},
    {"ml.workspace_heap_allocs", "count"},
    // Output quality.
    {"core.tpr", "ratio"},
    {"core.fpr", "ratio"},
    {"ml.val_mse", "MSE"},
    // The tracing itself.
    {"trace.overhead_s", "s"},
    {"trace.coverage", "ratio"},
};

}  // namespace

void Outcome::emit(const Values& values, bool per_layer) {
  const std::span<const CatalogEntry> catalog =
      per_layer ? std::span<const CatalogEntry>{kPerLayer}
                : std::span<const CatalogEntry>{kEndToEnd};
  for (const auto& [name, value] : values) {
    const bool known = std::any_of(catalog.begin(), catalog.end(),
                                   [&](const CatalogEntry& e) { return name == e.name; });
    if (!known) throw std::logic_error{"metric outside the catalogue: " + name};
    if (!std::isfinite(value)) throw std::logic_error{"non-finite metric: " + name};
  }
  for (const CatalogEntry& e : catalog) {
    const auto it = values.find(e.name);
    if (it == values.end() && !per_layer)
      throw std::logic_error{std::string{"end-to-end metric not measured: "} + e.name};
    metrics.push_back({e.name, it == values.end() ? 0.0 : it->second, e.unit});
  }
}

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  check_failures.push_back(what);
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

std::size_t Tracer::open(const char* name, std::uint64_t id) {
  if (!on_) return kNone;
  const std::size_t parent = stack_.empty() ? kNone : stack_.back();
  spans_.push_back({name, id, parent, obs::now_us(), 0.0, 0.0});
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t span) {
  if (span == kNone) return;
  Span& s = spans_[span];
  s.end_us = obs::now_us();
  if (stack_.empty() || stack_.back() != span)
    throw std::logic_error{"Tracer: spans closed out of order"};
  stack_.pop_back();
  if (s.parent != kNone) spans_[s.parent].child_us += s.end_us - s.start_us;
}

double Tracer::self_seconds(std::string_view name) const {
  double us = 0.0;
  for (const Span& s : spans_)
    if (name == s.name) us += s.end_us - s.start_us - s.child_us;
  return us * 1e-6;
}

double Tracer::total_seconds(std::string_view name) const {
  double us = 0.0;
  for (const Span& s : spans_)
    if (name == s.name) us += s.end_us - s.start_us;
  return us * 1e-6;
}

std::size_t Tracer::count(std::string_view name) const {
  return static_cast<std::size_t>(std::count_if(
      spans_.begin(), spans_.end(), [&](const Span& s) { return name == s.name; }));
}

void Tracer::write_json(const std::filesystem::path& path) const {
  std::ofstream os{path};
  if (!os) return;
  obs::JsonWriter w;
  w.begin_object();
  w.key("spans");
  w.begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.kv("span", static_cast<std::uint64_t>(i));
    w.kv("name", std::string_view{s.name});
    w.kv("id", s.id);
    w.kv("parent", s.parent == kNone ? std::int64_t{-1}
                                      : static_cast<std::int64_t>(s.parent));
    w.kv("start_us", s.start_us);
    w.kv("end_us", s.end_us);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.write_to(os);
  os << '\n';
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream{"/proc/self/clear_refs"} << "5";
}

double peak_rss_mib() {
  std::ifstream status{"/proc/self/status"};
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

core::SensoryMapperConfig mapper_config(const Options& opt) {
  if (!opt.tiny) return bench::standard_mapper_config();
  core::SensoryMapperConfig cfg;
  cfg.model = ml::ModelKind::kMlp;
  cfg.train.epochs = 2;
  return cfg;
}

std::string provision_model(const Options& opt, std::size_t workers) {
  const core::SensoryMapperConfig cfg = mapper_config(opt);
  const std::string path = bench::cache_path(cfg);
  if (core::SensoryMapper probe{cfg}; probe.load(path)) return path;
  // Cold cache: train before any clock starts.
  std::fprintf(stderr, "perfbench: model cache cold, training %s into %s ...\n",
               ml::to_string(cfg.model).c_str(), path.c_str());
  const double t0 = now_seconds();
  util::ThreadPool::set_threads(workers);
  if (opt.tiny) {
    core::DatasetBuilder builder{cfg.dataset, bench::lab()};
    for (const auto& f : bench::lab().fly_all(bench::lab().training_scenarios(1, 12.0)))
      builder.add_flight(f);
    core::SensoryMapper mapper{cfg};
    mapper.fit_dataset(builder.build());
    mapper.save(path);
  } else {
    bench::standard_mapper(cfg);  // trains and saves to bench::cache_path(cfg)
  }
  std::fprintf(stderr, "perfbench: trained the model in %.1f s (not timed)\n",
               now_seconds() - t0);
  if (core::SensoryMapper probe{cfg}; !probe.load(path))
    throw std::runtime_error{"perfbench: cannot provision the model at " + path};
  return path;
}

namespace {

bool same_double(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

bool same_report(const core::RcaReport& a, const core::RcaReport& b) {
  const faults::HealthReport& x = a.health;
  const faults::HealthReport& y = b.health;
  return a.imu_attacked == b.imu_attacked &&
         same_double(a.imu_detect_time, b.imu_detect_time) &&
         a.gps_attacked == b.gps_attacked &&
         same_double(a.gps_detect_time, b.gps_detect_time) &&
         a.gps_mode_used == b.gps_mode_used &&
         x.mic_windows_masked == y.mic_windows_masked &&
         x.windows_total == y.windows_total &&
         x.windows_degraded == y.windows_degraded &&
         x.imu_samples_total == y.imu_samples_total &&
         x.imu_samples_nonfinite == y.imu_samples_nonfinite &&
         x.imu_windows_skipped == y.imu_windows_skipped &&
         x.gps_fixes_total == y.gps_fixes_total &&
         x.gps_fixes_nonfinite == y.gps_fixes_nonfinite &&
         x.gps_coast_intervals == y.gps_coast_intervals &&
         same_double(x.gps_coast_seconds, y.gps_coast_seconds) &&
         x.kf_fallback_steps == y.kf_fallback_steps;
}

Detection score(std::span<const core::FlightScenario> scenarios,
                std::span<const core::RcaReport> reports) {
  std::size_t attacked = 0, detected = 0, benign = 0, false_pos = 0;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const core::FlightScenario& s = scenarios[i];
    const core::RcaReport& r = reports[i];
    if (s.imu_attack || s.gps_spoof) {
      ++attacked;
      detected += (s.imu_attack ? r.imu_attacked : r.gps_attacked) ? 1 : 0;
    } else {
      ++benign;
      false_pos += r.any_attack() ? 1 : 0;
    }
  }
  Detection d;
  if (attacked) d.tpr = static_cast<double>(detected) / static_cast<double>(attacked);
  if (benign) d.fpr = static_cast<double>(false_pos) / static_cast<double>(benign);
  return d;
}

namespace {

std::uint64_t counter(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

}  // namespace

ProgramCounters::ProgramCounters() {
  obs::set_enabled(true);
  fft_calls_ = counter("fft.plan_hits");
  gemm_flops_ = counter("gemm.flops");
  pool_tasks_ = counter("pool.tasks");
}

void ProgramCounters::finish(Values& values, std::size_t windows) {
  obs::set_enabled(false);
  const double per_window = 1.0 / static_cast<double>(std::max<std::size_t>(windows, 1));
  values["dsp.fft_calls_per_window"] =
      static_cast<double>(counter("fft.plan_hits") - fft_calls_) * per_window;
  values["ml.gemm_gflop"] = static_cast<double>(counter("gemm.flops") - gemm_flops_) * 1e-9;
  values["util.pool_tasks_per_window"] =
      static_cast<double>(counter("pool.tasks") - pool_tasks_) * per_window;
}

void add_provenance(bench::BenchReport& report, const Options& opt,
                    std::size_t setup_workers, std::size_t measured_workers) {
  // BenchReport records threads (the measured phase's count, set by the
  // caller before flushing), SIMD ISA/backend/lanes and plan precision.
  report.note("workload", opt.workload);
  report.note("mode", opt.tiny ? "tiny" : "standard");
  report.note("trace", opt.trace ? "1" : "0");
  report.metric("seed", static_cast<double>(opt.seed));
  report.metric("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  report.metric("setup_workers", static_cast<double>(setup_workers));
  report.metric("measured_workers", static_cast<double>(measured_workers));
  report.metric("seconds", opt.seconds);
}

}  // namespace sb::perfbench

namespace {

using sb::perfbench::Options;
using sb::perfbench::Outcome;

[[noreturn]] void usage_error(const char* argv0, const std::string& msg) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload offline_rca|stream_serve|train "
               "[--seed N] [--seconds S] [--trace 0|1] [--tiny] "
               "[--work-dir DIR]\n",
               argv0, msg.c_str(), argv0);
  std::exit(2);
}

void print_result(const Options& opt, const Outcome& out) {
  using namespace sb;
  std::printf("perfbench %s (seed %llu, %s run%s; nproc %u, SIMD %s/%s, plan %s):\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? "traced" : "end-to-end", opt.tiny ? ", tiny" : "",
              std::thread::hardware_concurrency(), util::simd_isa_name(),
              util::simd_enabled() ? "vector" : "scalar",
              ml::to_string(ml::plan_precision()));
  for (const auto& m : out.metrics)
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const auto& m : out.info)
    std::printf("  (info) %-27s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("  attempted %llu, failed %llu, checks %s\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              out.correct() ? "passed" : "FAILED");
  std::string line = "{\"correct\": ";
  line += out.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& m = out.metrics[i];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);  // finite: emit() checked
    line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::fflush(stdout);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  using namespace sb;
  // The rig's shared flags: --seed sets the scenario-seed offset every
  // *_scenario generator applies.
  bench::bench_init(argc, argv, /*allow_unknown=*/true);
  Options opt;
  opt.seed = bench::bench_args().seed_offset;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(argv[0], "missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage_error(argv[0], "--trace must be 0 or 1");
      opt.trace = v == "1";
    } else if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--work-dir") {
      opt.work_dir = value();
    } else {
      usage_error(argv[0], "unknown argument '" + arg + "'");
    }
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0))
    usage_error(argv[0], "--seconds must be in (0, 600]");
  if (opt.work_dir.empty()) opt.work_dir = fs::current_path() / ".bench_build";
  fs::create_directories(opt.work_dir);
  // Model cache and BENCH reports stay inside the work directory.
  const fs::path cache = opt.work_dir / "model_cache";
  fs::create_directories(cache);
  setenv("SB_CACHE_DIR", cache.c_str(), 1);
  bench::bench_args().out_dir = opt.work_dir;
  if (std::getenv("SB_LOG_LEVEL") == nullptr)
    obs::set_log_level(obs::LogLevel::kWarn);
  // One malloc arena, so peak RSS is a function of the workload rather than
  // of which worker happened to allocate what (with an arena per worker it
  // was bimodal run to run, 10% apart).
  mallopt(M_ARENA_MAX, 1);

  Outcome out;
  try {
    if (opt.workload == "offline_rca") {
      out = perfbench::run_offline_rca(opt);
    } else if (opt.workload == "stream_serve") {
      out = perfbench::run_stream_serve(opt);
    } else if (opt.workload == "train") {
      out = perfbench::run_train(opt);
    } else {
      usage_error(argv[0], "unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  print_result(opt, out);
  return out.correct() ? 0 : 1;
}
