// Shared experiment rig for the bench harnesses: the standard training
// corpus, the benign/attack test flight sets, the calibrated detectors, the
// serving benches' set-up (tiny mode, env knobs, feed cursors, model) and
// the self-checks of the JSON artifacts the benches write.
//
// Workload scale note: the paper's flights are 1-3 minutes on a physical
// testbed; the benches use 25-60 s simulated flights so the whole suite runs
// in tens of minutes on one CPU core.  Durations scale the absolute delays,
// not the comparative shape of the results.
//
// The trained acoustic model is cached on disk (after the first bench that
// needs it trains it) so every bench binary does not pay the training cost
// again.  Delete the cache file to force retraining.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/flight_lab.hpp"
#include "core/gps_rca.hpp"
#include "core/imu_rca.hpp"
#include "core/rca_engine.hpp"
#include "core/sensory_mapper.hpp"
#include "core/signature.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "stream/rca_session.hpp"
#include "util/simd.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace sb::bench {

// Process-wide bench options, settable from every bench binary's command
// line via bench_init(argc, argv):
//   --seed N      offset added to every scenario seed (variance studies)
//   --threads N   worker count (same effect as SB_THREADS=N)
//   --repeat N    run the measured phase N times; reports carry the median
//                 wall clock (benches that support it call repeat_median)
//   --out-dir D   directory for BENCH_/TRACE_ JSON reports (default: next
//                 to the binary)
//   --help        usage
struct BenchArgs {
  std::uint64_t seed_offset = 0;
  int repeats = 1;
  std::filesystem::path out_dir;  // empty = bench binary's directory
};

inline BenchArgs& bench_args() {
  static BenchArgs args;
  return args;
}

inline void print_bench_usage(std::FILE* out, const char* argv0) {
  std::fprintf(
      out,
      "usage: %s [--seed N] [--threads N] [--repeat N] [--out-dir DIR]\n"
      "  --seed N     offset added to every scenario seed (N >= 0)\n"
      "  --threads N  worker threads (equivalent to SB_THREADS=N)\n"
      "  --repeat N   repeat the measured phase N times, report the median\n"
      "  --out-dir D  directory for BENCH_*/TRACE_* reports\n",
      argv0);
}

[[noreturn]] inline void bench_usage_error(const char* argv0,
                                           const std::string& msg) {
  std::fprintf(stderr, "%s: %s\n", argv0, msg.c_str());
  print_bench_usage(stderr, argv0);
  std::exit(2);
}

// Whole-string number parse: the entire text must be one value of type T,
// so "3x", "2.5" (for an integer type), "abc" and "" are all nullopt.
template <typename T>
std::optional<T> parse_whole(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

// Parses the shared flags, removing them from argv (argc is updated) so a
// bench that layers another parser on top (bench_runtime_overhead hands the
// remainder to google-benchmark) sees only the flags it owns.  Unknown
// arguments are an error unless `allow_unknown` — then they stay in argv.
// A missing or malformed value prints the usage and exits 2: numbers parse
// as whole strings, so "3x", "2.5", "abc" and a negative seed are rejected
// rather than truncated or wrapped.
inline void bench_init(int& argc, char** argv, bool allow_unknown = false) {
  auto need_value = [&](int i) -> std::string {
    if (i + 1 >= argc)
      bench_usage_error(argv[0], std::string{"missing value for "} + argv[i]);
    return argv[i + 1];
  };
  // Whole-string parse of an integer of type T that must be >= min.
  auto need_number = [&]<typename T>(int i, T min) -> T {
    const std::string text = need_value(i);
    const std::optional<T> value = parse_whole<T>(text);
    if (!value || *value < min)
      bench_usage_error(argv[0], "bad value for " + std::string{argv[i]} +
                                     ": '" + text + "'");
    return *value;
  };
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_bench_usage(stdout, argv[0]);
      std::exit(0);
    } else if (arg == "--repeat") {
      bench_args().repeats = need_number(i, 1);
      ++i;
    } else if (arg == "--seed") {
      bench_args().seed_offset = need_number(i, std::uint64_t{0});
      ++i;
    } else if (arg == "--threads") {
      // Same switch SB_THREADS flips, through the same entry point, so a
      // CLI override and the env var can never disagree mid-process.
      util::ThreadPool::set_threads(need_number(i, std::size_t{1}));
      ++i;
    } else if (arg == "--out-dir") {
      bench_args().out_dir = need_value(i);
      std::error_code ec;
      std::filesystem::create_directories(bench_args().out_dir, ec);
      ++i;
    } else if (allow_unknown) {
      argv[out++] = argv[i];
    } else {
      bench_usage_error(argv[0], "unknown argument '" + arg + "'");
    }
  }
  argc = out;
  argv[argc] = nullptr;
}

// Wall-clock stopwatch for the bench reports.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }
  void reset() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Directory the BENCH_/TRACE_ reports land in: --out-dir when given,
// otherwise next to the running bench binary.
inline std::filesystem::path bench_output_dir() {
  if (!bench_args().out_dir.empty()) return bench_args().out_dir;
  std::error_code ec;
  const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
  return ec ? std::filesystem::current_path() : exe.parent_path();
}

// Trained-model cache directory: SB_CACHE_DIR when set (created on demand),
// /tmp otherwise.
inline std::filesystem::path cache_dir() {
  if (const char* env = std::getenv("SB_CACHE_DIR"); env != nullptr && *env) {
    std::filesystem::path dir{env};
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    return dir;
  }
  return "/tmp";
}

// Self-check of a JSON artifact a bench wrote: the whole file must be one
// valid JSON value whose metrics objects are well formed
// (obs::metrics_json_wellformed).  Prints why not to stderr.  With `text`,
// the file's contents are returned for further checks.
inline bool validate_json_file(const std::filesystem::path& path,
                               std::string* text = nullptr) {
  std::ifstream is{path};
  if (!is) {
    std::fprintf(stderr, "bench: cannot reopen %s\n", path.c_str());
    return false;
  }
  std::ostringstream ss;
  ss << is.rdbuf();
  const std::string json = ss.str();
  if (text != nullptr) *text = json;
  if (!obs::json_valid(json)) {
    std::fprintf(stderr, "bench: %s is not valid JSON\n", path.c_str());
    return false;
  }
  if (!obs::metrics_json_wellformed(json)) {
    std::fprintf(stderr, "bench: %s has malformed metrics objects\n",
                 path.c_str());
    return false;
  }
  return true;
}

// JSONL artifacts (black boxes, telemetry): at least one line, and every
// nonempty line one valid JSON object that also passes the metrics check.
inline bool validate_jsonl_file(const std::filesystem::path& path) {
  std::ifstream is{path};
  if (!is) {
    std::fprintf(stderr, "bench: cannot reopen %s\n", path.c_str());
    return false;
  }
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ++lines;
    if (!obs::json_valid(line) || !obs::metrics_json_wellformed(line)) {
      std::fprintf(stderr, "bench: %s line %zu is not valid JSON\n",
                   path.c_str(), lines);
      return false;
    }
  }
  if (lines == 0) {
    std::fprintf(stderr, "bench: %s is empty\n", path.c_str());
    return false;
  }
  return true;
}

// Validates every black box (BLACKBOX_<id>.jsonl in bench_output_dir()) of
// sessions 0..sessions-1 that exists; a run under SB_RECORDER forces at
// least one, so none at all fails too.
inline bool validate_black_boxes(std::size_t sessions) {
  bool ok = true;
  std::size_t found = 0;
  for (std::size_t id = 0; id < sessions; ++id) {
    const auto path =
        bench_output_dir() / ("BLACKBOX_" + std::to_string(id) + ".jsonl");
    if (!std::filesystem::exists(path)) continue;
    ++found;
    ok = validate_jsonl_file(path) && ok;
  }
  if (found == 0) {
    std::fprintf(stderr, "bench: no black box in %s\n",
                 bench_output_dir().c_str());
    return false;
  }
  return ok;
}

// Collects per-bench wall-clock and workload metadata, and writes
// BENCH_<name>.json next to the bench binary on destruction (or flush()).
// Instantiate once at the top of a bench main.
//
// All string values are JSON-escaped and non-finite doubles serialize as
// null (obs/json.hpp is the single serializer).  While tracing is enabled
// (SB_TRACE=1) the report additionally carries the pipeline stage breakdown
// accumulated over the report's lifetime — per-stage exclusive wall-clock
// deltas against the construction-time snapshot, so several reports in one
// process don't double-count — plus the full metrics registry, and the
// Chrome timeline is exported to TRACE_<name>.json alongside.
class BenchReport {
 public:
  explicit BenchReport(std::string name)
      : name_(std::move(name)),
        stage_baseline_(obs::Trace::instance().stage_totals()) {}
  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;
  ~BenchReport() { flush(); }

  void metric(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
  }
  void note(const std::string& key, const std::string& value) {
    notes_.emplace_back(key, value);
  }
  // Overrides the destructor-measured wall clock — used by benches that run
  // their measured phase --repeat times and report the median.
  void wall_seconds(double s) { wall_override_ = s; }

  // Paper-shape gate: checks one relation the reproduction claims
  // (`lhs op rhs`, op ">=" or "<="), records it in the report's `shape`
  // block and prints it.  A bench that states its shape returns
  // shape_exit_code() from main, so a broken relation is a nonzero exit.
  bool shape(const std::string& relation, double lhs, std::string_view op,
             double rhs) {
    const bool ok = op == ">=" ? lhs >= rhs : lhs <= rhs;
    shape_.push_back({relation, lhs, std::string{op}, rhs, ok});
    std::printf("shape %-4s %s: %.3f %s %.3f\n", ok ? "ok" : "FAIL",
                relation.c_str(), lhs, shape_.back().op.c_str(), rhs);
    return ok;
  }
  bool shape_ok() const {
    return std::all_of(shape_.begin(), shape_.end(),
                       [](const ShapeRelation& r) { return r.ok; });
  }
  int shape_exit_code() const { return shape_ok() ? 0 : 1; }

  void flush() {
    if (flushed_) return;
    flushed_ = true;
    // Close the telemetry series with one final (forced) sample so the last
    // partial interval's deltas are not lost.
    obs::telemetry_flush();
    const double wall = wall_override_ >= 0.0 ? wall_override_ : timer_.seconds();
    const auto path = bench_output_dir() / ("BENCH_" + name_ + ".json");
    std::ofstream os{path};
    if (!os) return;

    obs::JsonWriter w;
    w.begin_object();
    w.kv("name", name_);
    w.kv("wall_seconds", wall);
    w.kv("threads", static_cast<std::uint64_t>(util::ThreadPool::threads()));
    // SIMD provenance: the ISA compiled in, whether the vector backend was
    // active, and the float lane width — so perf numbers are comparable
    // across builds and SB_SIMD settings.
    w.kv("simd_isa", std::string_view{util::simd_isa_name()});
    w.kv("simd_backend",
         std::string_view{util::simd_enabled() ? "vector" : "scalar"});
    w.kv("simd_float_lanes",
         static_cast<std::uint64_t>(util::simd::kFloatLanes));
    w.kv("repeats", static_cast<std::uint64_t>(bench_args().repeats));
    for (const auto& [k, v] : metrics_) w.kv(k, v);
    for (const auto& [k, v] : notes_) w.kv(k, std::string_view{v});
    if (!shape_.empty()) {
      w.key("shape");
      w.begin_object();
      w.kv("ok", shape_ok());
      w.key("relations");
      w.begin_array();
      for (const ShapeRelation& r : shape_) {
        w.begin_object();
        w.kv("relation", std::string_view{r.relation});
        w.kv("lhs", r.lhs);
        w.kv("op", std::string_view{r.op});
        w.kv("rhs", r.rhs);
        w.kv("ok", r.ok);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    if (obs::enabled()) {
      const auto totals = obs::Trace::instance().stage_totals();
      double staged = 0.0;
      w.key("stages");
      w.begin_object();
      for (std::size_t i = 1; i < obs::kNumStages; ++i) {  // skip kNone
        const double seconds =
            totals[i].seconds - stage_baseline_[i].seconds;
        const std::uint64_t spans = totals[i].count - stage_baseline_[i].count;
        staged += seconds;
        w.key(obs::stage_name(static_cast<obs::Stage>(i)));
        w.begin_object();
        w.kv("seconds", seconds);
        w.kv("spans", spans);
        w.end_object();
      }
      w.end_object();
      // Coverage is always against the full report lifetime — stages accrue
      // across every --repeat rep, so dividing by a median-of-reps override
      // would break the <= 1 invariant.
      const double total_wall = timer_.seconds();
      w.kv("stage_coverage", total_wall > 0.0 ? staged / total_wall : 0.0);
      obs::Trace::instance().write_chrome_json(
          (bench_output_dir() / ("TRACE_" + name_ + ".json")).string());
    }
    w.key("metrics");
    obs::Registry::instance().write_json(w);
    w.end_object();
    w.write_to(os);
    os << '\n';
    obs::logf(obs::LogLevel::kInfo, "bench", "wrote %s (%.2f s)", path.c_str(),
              wall);
  }

 private:
  struct ShapeRelation {
    std::string relation;
    double lhs;
    std::string op;
    double rhs;
    bool ok;
  };

  std::string name_;
  Stopwatch timer_;
  obs::Trace::StageTotals stage_baseline_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<ShapeRelation> shape_;
  double wall_override_ = -1.0;
  bool flushed_ = false;
};

// Runs `body` bench_args().repeats times and returns the median of the
// per-rep wall-clock seconds it returns (mean of the middle pair for even
// N).  The body times its own measured phase, so per-rep setup/teardown —
// rebuilding sessions, resetting feed cursors — stays out of the number.
template <typename Fn>
inline double repeat_median(Fn&& body) {
  std::vector<double> times;
  const int n = bench_args().repeats;
  times.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    times.push_back(body(r));
    obs::logf(obs::LogLevel::kInfo, "bench", "repeat %d/%d: %.3f s", r + 1, n,
              times.back());
  }
  std::sort(times.begin(), times.end());
  const std::size_t mid = times.size() / 2;
  return times.size() % 2 == 1 ? times[mid]
                               : 0.5 * (times[mid - 1] + times[mid]);
}

inline const core::FlightLab& lab() {
  static const core::FlightLab kLab;
  return kLab;
}

// The standard mapper configuration shared by the detection benches.
inline core::SensoryMapperConfig standard_mapper_config() {
  core::SensoryMapperConfig cfg;
  cfg.model = ml::ModelKind::kMobileNetLite;
  cfg.dataset.stride = 0.25;
  cfg.train.epochs = 15;
  cfg.train.lr = 2e-3;
  cfg.train.lr_decay = 0.92;
  return cfg;
}

// Cache filenames carry the model-file format tag, the trainer schema tag,
// the synthesis schema tag AND the signature schema tag, so a format bump
// (which would make load() reject the file anyway), a training-math change,
// a change to the synthesized training audio or to the signature computed
// from it simply misses the cache and retrains — loudly, via the standard
// "training ..." log line — instead of serving weights trained under
// superseded math, audio or features as current results.
inline std::string cache_tag() {
  return std::string{core::model_format_tag()} + ml::trainer_schema_tag() +
         acoustics::synth_schema_tag() + core::signature_schema_tag();
}

inline std::string cache_path(const core::SensoryMapperConfig& cfg) {
  return (cache_dir() / ("soundboost_bench_" + ml::to_string(cfg.model) + "_" +
                         cache_tag() + ".bin"))
      .string();
}

// Simulates the paper's 36-flight training campaign (6 maneuver families x
// 6 wind conditions) at bench scale, trains the acoustic model (or loads it
// from the cache) and returns the ready mapper.
inline core::SensoryMapper standard_mapper(
    core::SensoryMapperConfig cfg = standard_mapper_config(),
    int flights_per_family = 4, double flight_duration = 25.0) {
  core::SensoryMapper mapper{cfg};
  const std::string cache = cache_path(cfg);
  if (mapper.load(cache)) {
    obs::logf(obs::LogLevel::kInfo, "setup", "loaded trained model from %s",
              cache.c_str());
    return mapper;
  }
  obs::logf(obs::LogLevel::kInfo, "setup", "training %s on %d flights (cache: %s)...",
            ml::to_string(cfg.model).c_str(), flights_per_family * 6, cache.c_str());
  // Cold-cache training is the headline perf workload: record it.
  BenchReport report{"standard_mapper_train_" + ml::to_string(cfg.model)};
  Stopwatch fly_timer;
  const auto scenarios = lab().training_scenarios(flights_per_family, flight_duration);
  const auto flights = lab().fly_all(scenarios);
  report.metric("flights", static_cast<double>(flights.size()));
  report.metric("flight_seconds", fly_timer.seconds());
  Stopwatch fit_timer;
  const auto result = mapper.fit(lab(), flights);
  report.metric("fit_seconds", fit_timer.seconds());
  report.metric("train_mse", result.final_train_mse);
  report.metric("val_mse", result.final_val_mse);
  obs::logf(obs::LogLevel::kInfo, "setup", "trained: train MSE %.4f, val MSE %.4f",
            result.final_train_mse, result.final_val_mse);
  if (mapper.save(cache))
    obs::logf(obs::LogLevel::kInfo, "setup", "cached model to %s", cache.c_str());
  return mapper;
}

// Fits a mapper on the given flights unless a cached model tagged `tag`
// exists.  Used by the sweep benches (Tab. I, model selection, window size)
// so re-running the suite does not retrain every variant.  The training-time
// train/val MSE is persisted in a sidecar so cached runs can still report it.
struct FitMse {
  double train = 0.0;
  double val = 0.0;
};

inline FitMse fit_cached(core::SensoryMapper& mapper, const std::string& tag,
                         std::span<const core::Flight> flights,
                         const core::FlightLab& flight_lab = lab()) {
  const std::string path =
      (cache_dir() / ("soundboost_bench_" + tag + "_" + cache_tag() + ".bin"))
          .string();
  const std::string sidecar = path + ".mse";
  if (mapper.load(path)) {
    FitMse mse;
    if (std::FILE* f = std::fopen(sidecar.c_str(), "r")) {
      if (std::fscanf(f, "%lf %lf", &mse.train, &mse.val) != 2) mse = {};
      std::fclose(f);
    }
    obs::logf(obs::LogLevel::kInfo, "cache", "%s", tag.c_str());
    return mse;
  }
  const auto result = mapper.fit(flight_lab, flights);
  mapper.save(path);
  if (std::FILE* f = std::fopen(sidecar.c_str(), "w")) {
    std::fprintf(f, "%.6f %.6f\n", result.final_train_mse, result.final_val_mse);
    std::fclose(f);
  }
  return {result.final_train_mse, result.final_val_mse};
}

// Benign evaluation flights: a mission mix matching the training families
// but with unseen trajectories, speeds and winds (paper §IV-A).
inline core::FlightScenario benign_scenario(int i, double duration = 40.0) {
  core::FlightScenario s;
  // Mission/wind magnitudes cycle within the training envelope; only the
  // seed grows with i, so large test sets stay in-distribution.
  const double f = static_cast<double>(i % 8);
  switch (i % 4) {
    case 0:
      s.mission = sim::Mission::hover({2, 1, -11 - 0.3 * f}, duration);
      break;
    case 1:
      s.mission = sim::Mission::line({0, 0, -10}, {18 + f, 8, -12}, 2.5 + 0.1 * f,
                                     duration);
      break;
    case 2:
      s.mission = sim::Mission::figure_eight({0, 3, -12}, 8 + 0.3 * f, 2.4 + 0.1 * f,
                                             duration);
      break;
    default:
      s.mission = sim::Mission::square({0, 0, 0}, 13 + f, 11, 2.0 + 0.1 * f, duration);
      break;
  }
  s.wind.mean = {0.4 * (f - 4.0), 0.25 * (f - 3.0), 0.0};
  s.wind.gust_stddev = 0.3 + 0.07 * static_cast<double>(i % 5);
  s.seed = 20000 + static_cast<std::uint64_t>(i) + bench_args().seed_offset;
  return s;
}

// GPS drag-spoofing attack flights (§IV-C): hover and en-route missions,
// varied drag direction/rate, spoof periods filling most of the flight.
inline core::FlightScenario gps_attack_scenario(int i, double duration = 60.0) {
  core::FlightScenario s;
  const double f = static_cast<double>(i);
  if (i % 2 == 0) {
    s.mission = sim::Mission::hover({0, 0, -10 - 0.2 * (f < 8 ? f : 8.0)}, duration);
  } else {
    s.mission = sim::Mission::line({0, 0, -10}, {22, 4, -10}, 2.2, duration);
  }
  attacks::GpsSpoofConfig g;
  g.start = 12.0 + static_cast<double>(i % 3);
  g.end = duration - 10.0;
  const double ang = 0.7 * f;
  g.drag_direction = {std::cos(ang), std::sin(ang), 0.0};
  g.drag_rate = 0.9 + 0.08 * static_cast<double>(i % 6);
  s.gps_spoof = g;
  s.wind.mean = {0.3 * (static_cast<double>(i % 8) - 4.0),
                 0.2 * (static_cast<double>(i % 7) - 3.0), 0.0};
  s.wind.gust_stddev = 0.3 + 0.05 * static_cast<double>(i % 4);
  s.seed = 30000 + static_cast<std::uint64_t>(i) + bench_args().seed_offset;
  return s;
}

// IMU biasing attack flights (§IV-B): hover missions, 10 s spoof windows,
// alternating Side-Swing and accelerometer-DoS.
inline core::FlightScenario imu_attack_scenario(int i, double duration = 40.0) {
  core::FlightScenario s;
  s.mission = sim::Mission::hover({0, 0, -10}, duration);
  attacks::ImuAttackConfig a;
  a.type = i % 2 == 0 ? attacks::ImuAttackType::kSideSwing
                      : attacks::ImuAttackType::kAccelDos;
  a.start = 14.0 + static_cast<double>(i % 4);
  a.end = a.start + 10.0;
  a.axis = i % 3 == 2 ? 1 : 0;
  s.imu_attack = a;
  s.wind.gust_stddev = 0.3 + 0.05 * static_cast<double>(i % 4);
  s.seed = 40000 + static_cast<std::uint64_t>(i) + bench_args().seed_offset;
  return s;
}

using CalibratedDetectors = core::CalibratedDetectors;

// Calibrates both detector stages (core::calibrate_detectors) on `n_benign`
// dedicated benign flights.
inline CalibratedDetectors calibrate_detectors(const core::SensoryMapper& mapper,
                                               int n_benign = 10,
                                               double duration = 40.0) {
  std::vector<core::FlightScenario> scenarios;
  for (int i = 0; i < n_benign; ++i) {
    auto scenario = benign_scenario(i, duration);
    scenario.seed += 500000;  // calibration set is disjoint from test benign
    scenarios.push_back(scenario);
  }
  const auto flights = lab().fly_all(scenarios);
  std::vector<std::vector<core::TimedPrediction>> preds;
  for (const auto& flight : flights)
    preds.push_back(mapper.predict_flight(lab(), flight));
  return core::calibrate_detectors(flights, preds);
}

// SB_BENCH_TINY (set, non-empty, not "0") shrinks a bench to a seconds-scale
// smoke run of every code path (CI's bench-smoke job).
inline bool tiny_mode() {
  const char* v = std::getenv("SB_BENCH_TINY");
  return v != nullptr && *v && *v != '0';
}

// SB_BENCH_* knobs, read at startup before any training: `fallback` when
// unset or empty.  A value that is not one whole number (env_count: >= 1,
// for session, shard and grid counts) or one finite positive number of
// seconds (env_seconds) prints the error and the usage and exits 2, like a
// bad flag.
template <typename T>
T env_count(const char* argv0, const char* name, T fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const std::optional<T> n = parse_whole<T>(v);
  if (!n || *n < 1)
    bench_usage_error(argv0, std::string{"bad value for "} + name + ": '" + v +
                                 "' (need a whole number >= 1)");
  return *n;
}

inline double env_seconds(const char* argv0, const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const std::optional<double> s = parse_whole<double>(v);
  if (!s || !std::isfinite(*s) || *s <= 0.0)
    bench_usage_error(argv0, std::string{"bad value for "} + name + ": '" + v +
                                 "' (need seconds > 0)");
  return *s;
}

// Samples [begin, end) of every channel of a continuous capture: one pushed
// chunk of a serving feed.
inline acoustics::MultiChannelAudio slice_audio(
    const acoustics::MultiChannelAudio& full, std::size_t begin, std::size_t end) {
  acoustics::MultiChannelAudio chunk;
  chunk.sample_rate = full.sample_rate;
  for (std::size_t c = 0; c < sensors::kNumMics; ++c)
    chunk.channels[c].assign(full.channels[c].begin() + begin,
                             full.channels[c].begin() + end);
  return chunk;
}

// Read positions of one serving session in its pre-rendered feed: the audio
// samples, IMU samples and GPS fixes pushed so far.
struct FeedCursor {
  std::size_t audio = 0;
  std::size_t imu = 0;
  std::size_t gps = 0;
};

// The cursor past everything with t < until (audio by sample index),
// scanning on from `from`.
inline FeedCursor feed_cursor_at(const core::Flight& flight,
                                 const acoustics::MultiChannelAudio& audio,
                                 double until, FeedCursor from = {}) {
  const auto samples = static_cast<std::size_t>(std::min(
      until * audio.sample_rate, static_cast<double>(audio.num_samples())));
  from.audio = std::max(from.audio, samples);
  const auto& imu = flight.log.imu;
  while (from.imu < imu.size() && imu[from.imu].t < until) ++from.imu;
  const auto& gps = flight.log.gps;
  while (from.gps < gps.size() && gps[from.gps].t < until) ++from.gps;
  return from;
}

// Pushes everything with t < until that `cur` has not passed yet — the
// "what arrived since the last tick" slice of each stream — and advances it.
inline void push_until(stream::RcaSession& session, const core::Flight& flight,
                       const acoustics::MultiChannelAudio& audio,
                       FeedCursor& cur, double until) {
  const FeedCursor next = feed_cursor_at(flight, audio, until, cur);
  if (next.audio > cur.audio)
    session.push_audio(slice_audio(audio, cur.audio, next.audio));
  session.push_imu(
      std::span{flight.log.imu}.subspan(cur.imu, next.imu - cur.imu));
  session.push_gps(
      std::span{flight.log.gps}.subspan(cur.gps, next.gps - cur.gps));
  cur = next;
}

// The model the serving benches serve: the standard mapper, or with `tiny`
// an MLP trained for two epochs on a handful of short flights — enough to
// exercise every serving code path in seconds — cached as "stream_tiny".
inline core::SensoryMapper serving_mapper(bool tiny) {
  if (!tiny) return standard_mapper();
  core::SensoryMapperConfig cfg;
  cfg.model = ml::ModelKind::kMlp;
  cfg.train.epochs = 2;
  core::SensoryMapper mapper{cfg};
  const auto flights = lab().fly_all(lab().training_scenarios(1, 12.0));
  fit_cached(mapper, "stream_tiny", flights);
  return mapper;
}

}  // namespace sb::bench
