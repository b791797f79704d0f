// Shared pieces of the repository benchmark: options, the result line, the
// span tracer the workloads wrap around public calls into each layer, and
// small statistics helpers.  The scenario generators, mapper config, model
// cache key, detector calibration and the BENCH provenance block come from
// the bench rig (bench_common.hpp); nothing here duplicates them.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"

namespace sb::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;  // also bench::bench_args().seed_offset
  double seconds = 10.0;   // minimum measured time of a closed-loop phase
  bool trace = false;      // per-layer run instead of the end-to-end run
  bool tiny = false;       // seconds-scale inputs for the benchmark's tests
  std::filesystem::path work_dir;  // model cache, checkpoints, reports
};

// Metric values by name, as a workload measured them.
using Values = std::map<std::string, double>;

// What one run prints as its last line, plus the failures behind `correct`.
struct Outcome {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;  // the result line's metrics
  std::vector<Metric> info;     // printed above it only
  std::vector<std::string> check_failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // Copies `values` into `metrics` in catalogue order: the end-to-end
  // catalogue (every name must be present) or, for a traced run, the
  // per-layer one (a layer that does no work in this workload reports 0).
  // Both catalogues match BENCHMARK.json; a name outside them is a bug.
  void emit(const Values& values, bool per_layer);
  void note(std::string name, double value, std::string unit) {
    info.push_back({std::move(name), value, std::move(unit)});
  }
  // A failed output check: the run reports correct=false and exits nonzero.
  void check(bool ok, const std::string& what);
  bool correct() const { return check_failures.empty(); }
};

// Span tree recorded around the public calls the benchmark makes.  Spans
// nest on the driver thread (the only thread that opens them); a span's self
// time is its duration minus the time its direct children cover.  When
// tracing is off every call is a branch and nothing is recorded.
class Tracer {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  explicit Tracer(bool on) : on_(on) {}

  std::size_t open(const char* name, std::uint64_t id);
  void close(std::size_t span);

  // Sum over every span named `name` of its self time / full duration.
  double self_seconds(std::string_view name) const;
  double total_seconds(std::string_view name) const;
  std::size_t count(std::string_view name) const;

  // Writes every span as {name, id, parent, start_us, end_us} JSON.
  void write_json(const std::filesystem::path& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t id;
    std::size_t parent;
    double start_us;
    double end_us;
    double child_us;
  };
  bool on_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

class Scoped {
 public:
  Scoped(Tracer& tracer, const char* name, std::uint64_t id = 0)
      : tracer_(tracer), span_(tracer.open(name, id)) {}
  ~Scoped() { tracer_.close(span_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& tracer_;
  std::size_t span_;
};

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 when
// the sample is empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// Returns the heap pages set-up freed to the OS and restarts the peak-RSS
// count, so peak_rss_mib() then reports the measured phase's own peak.
void reset_peak_rss();
double peak_rss_mib();
double now_seconds();  // steady clock

// Mapper config of the served model: the bench rig's standard MobileNetLite
// config, or a two-epoch MLP in tiny mode.
core::SensoryMapperConfig mapper_config(const Options& opt);

// Ensures the benchmark-owned model cache holds a trained model for
// mapper_config(opt), training it (logged, outside any clock) when the cache
// is cold, and returns its path.  The cache file name carries
// bench::cache_tag(), so a format or trainer-schema change retrains.
// Training runs on `workers`, the workload's own count: the thread pool
// never retires a worker it has spawned, so training on more would leave
// extra workers serving the measured phase's parallel loops.
std::string provision_model(const Options& opt, std::size_t workers);

// Field-by-field, bit-for-bit equality of two RCA reports.
bool same_report(const core::RcaReport& a, const core::RcaReport& b);

// Detection quality against each scenario's ground truth: an IMU attack is
// detected when its report sets imu_attacked, a GPS spoof when it sets
// gps_attacked; a benign flight is a false positive when anything is flagged.
struct Detection {
  double tpr = 0.0;
  double fpr = 0.0;
};
Detection score(std::span<const core::FlightScenario> scenarios,
                std::span<const core::RcaReport> reports);

// Switches the program's own tracing on for one measured phase and reports
// what its counters saw there (dsp.fft_calls_per_window, ml.gemm_gflop,
// util.pool_tasks_per_window); GEMM flops and pool tasks are only counted
// while tracing is on.
class ProgramCounters {
 public:
  ProgramCounters();
  // Switches tracing off again and adds the three metrics to `values`.
  void finish(Values& values, std::size_t windows);

 private:
  std::uint64_t fft_calls_;
  std::uint64_t gemm_flops_;
  std::uint64_t pool_tasks_;
};

// Records the run's provenance block (workers, nproc, SIMD ISA/backend,
// plan precision, seed, sample counts) through bench::BenchReport.
void add_provenance(bench::BenchReport& report, const Options& opt,
                    std::size_t setup_workers, std::size_t measured_workers);

Outcome run_offline_rca(const Options& opt);
Outcome run_stream_serve(const Options& opt);
Outcome run_train(const Options& opt);

}  // namespace sb::perfbench
