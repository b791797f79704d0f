// Tier-1 coverage for the observability subsystem:
//   * JSON serializer: escaping, non-finite handling, round-trip precision,
//     and the structural validator the other tests lean on,
//   * metrics registry: counter/gauge semantics and histogram percentiles
//     pinned against util::stats (the interpolation is intentionally
//     duplicated in obs, which sits below util in the link order),
//   * trace spans: nesting across parallel_for workers, the exclusive
//     stage-accrual rule, Chrome JSON well-formedness,
//   * the disabled fast path: a span with tracing off must not allocate,
//   * the no-perturbation guarantee: seeded training is bit-identical with
//     tracing on or off, at 1 or 4 threads,
//   * RCA decision-trace JSONL: every line is one well-formed JSON object.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <vector>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/decision_trace.hpp"
#include "io/decision_trace.hpp"
#include "ml/models.hpp"
#include "ml/trainer.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

// Global allocation counter for the zero-allocation test.  Replacing only
// the plain (unaligned) forms is sufficient: the spans under test never use
// aligned or nothrow new.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sb {
namespace {

struct ThreadCountGuard {
  explicit ThreadCountGuard(std::size_t n) { util::ThreadPool::set_threads(n); }
  ~ThreadCountGuard() { util::ThreadPool::set_threads(0); }
};

// Restores the trace switch and drops any events a test recorded.
struct TraceGuard {
  explicit TraceGuard(bool on) : was(obs::enabled()) { obs::set_enabled(on); }
  ~TraceGuard() {
    obs::Trace::instance().clear();
    obs::set_enabled(was);
  }
  bool was;
};

// ---------------------------------------------------------------------------
// JSON serializer.

TEST(Json, StringEscaping) {
  std::string out;
  // "\x01" is split from "f" so the greedy hex escape doesn't swallow the 'f'.
  obs::append_json_string(out, "a\"b\\c\nd\te\x01" "f");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
  EXPECT_TRUE(obs::json_valid(out));
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  std::string nan_out, inf_out;
  obs::append_json_number(nan_out, std::numeric_limits<double>::quiet_NaN());
  obs::append_json_number(inf_out, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(nan_out, "null");
  EXPECT_EQ(inf_out, "null");
}

TEST(Json, NumbersRoundTripExactly) {
  for (double v : {0.1, 1.0 / 3.0, -2.5e-17, 6.25, 123456789.123456789,
                   std::numeric_limits<double>::min()}) {
    std::string out;
    obs::append_json_number(out, v);
    EXPECT_TRUE(obs::json_valid(out)) << out;
    EXPECT_EQ(std::strtod(out.c_str(), nullptr), v) << out;
  }
}

TEST(Json, WriterProducesValidNestedDocument) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("name", "bench \"quoted\"\npath\\x");
  w.key("nan_metric");
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.kv("count", std::uint64_t{42});
  w.kv("flag", true);
  w.key("empty");
  w.begin_object();
  w.end_object();
  w.key("values");
  w.begin_array();
  w.value(1.5);
  w.value(std::int64_t{-3});
  w.null();
  w.begin_object();
  w.kv("nested", false);
  w.end_object();
  w.end_array();
  w.end_object();
  EXPECT_TRUE(obs::json_valid(w.str())) << w.str();
  EXPECT_NE(w.str().find("\"nan_metric\":null"), std::string::npos) << w.str();
}

TEST(Json, ValidatorRejectsMalformedDocuments) {
  EXPECT_FALSE(obs::json_valid(""));
  EXPECT_FALSE(obs::json_valid("{"));
  EXPECT_FALSE(obs::json_valid("{\"a\":1,}"));
  EXPECT_FALSE(obs::json_valid("{\"a\":nan}"));
  EXPECT_FALSE(obs::json_valid("[1 2]"));
  EXPECT_FALSE(obs::json_valid("{} extra"));
  EXPECT_TRUE(obs::json_valid("{\"a\":[1,2,{\"b\":null}],\"c\":-1.5e-3}"));
}

// ---------------------------------------------------------------------------
// Metrics registry.

TEST(Metrics, CounterAndGaugeSemantics) {
  auto& reg = obs::Registry::instance();
  auto& c = reg.counter("test.counter");
  c.reset();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name -> same instrument.
  EXPECT_EQ(&reg.counter("test.counter"), &c);

  auto& g = reg.gauge("test.gauge");
  g.set(-2.5e-17);
  EXPECT_EQ(g.value(), -2.5e-17);
}

TEST(Metrics, HistogramPercentilesMatchUtilStats) {
  // The percentile interpolation is duplicated from util::stats because obs
  // cannot link against util; this pins the two implementations together.
  obs::Histogram h;
  Rng rng{1234};
  std::vector<double> xs(999);
  for (auto& x : xs) {
    x = rng.normal(0.0, 3.0);
    h.record(x);
  }
  for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 100.0})
    EXPECT_DOUBLE_EQ(h.percentile(p), sb::percentile(xs, p)) << "p" << p;

  const auto s = h.snapshot();
  EXPECT_EQ(s.count, xs.size());
  EXPECT_DOUBLE_EQ(s.p50, sb::percentile(xs, 50.0));
  EXPECT_DOUBLE_EQ(s.p90, sb::percentile(xs, 90.0));
  EXPECT_DOUBLE_EQ(s.p99, sb::percentile(xs, 99.0));
  EXPECT_DOUBLE_EQ(s.min, *std::min_element(xs.begin(), xs.end()));
  EXPECT_DOUBLE_EQ(s.max, *std::max_element(xs.begin(), xs.end()));
}

TEST(Metrics, RegistrySerializesToValidJson) {
  auto& reg = obs::Registry::instance();
  reg.counter("test.json_counter").add(7);
  reg.gauge("test.json_gauge").set(std::numeric_limits<double>::infinity());
  reg.histogram("test.json_hist").record(1.0);
  obs::JsonWriter w;
  reg.write_json(w);
  EXPECT_TRUE(obs::json_valid(w.str())) << w.str();
  // The non-finite gauge must serialize as null, not a bare inf token.
  EXPECT_NE(w.str().find("\"test.json_gauge\":null"), std::string::npos)
      << w.str();
}

TEST(Metrics, HistogramLongRunPercentilesStayAccurate) {
  // A distribution shift AFTER the exact-sample budget: a first-N reservoir
  // would report the warm-up regime forever; the log-bucket bins must track
  // the whole run within their ~1/(2*kSubBuckets) bin resolution.
  obs::Histogram h;
  Rng rng{777};
  std::vector<double> xs;
  xs.reserve(20000);
  for (std::size_t i = 0; i < 20000; ++i) {
    const double v = i < obs::Histogram::kExactSamples
                         ? rng.normal(1.0, 0.05)
                         : rng.normal(100.0, 5.0);
    xs.push_back(v);
    h.record(v);
  }
  for (double p : {50.0, 90.0, 99.0}) {
    const double exact = sb::percentile(xs, p);
    EXPECT_NEAR(h.percentile(p), exact, 0.04 * std::abs(exact)) << "p" << p;
  }
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, xs.size());
  EXPECT_DOUBLE_EQ(s.min, *std::min_element(xs.begin(), xs.end()));
  EXPECT_DOUBLE_EQ(s.max, *std::max_element(xs.begin(), xs.end()));
  double sum = 0.0;
  for (double v : xs) sum += v;
  EXPECT_DOUBLE_EQ(s.sum, sum);
  // p0/p100 clamp to the exact extrema even in binned mode.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), s.min);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), s.max);
}

TEST(Metrics, EmptyHistogramSerializesNullStats) {
  auto& reg = obs::Registry::instance();
  reg.histogram("test.empty_hist").reset();
  obs::JsonWriter w;
  reg.write_json(w);
  EXPECT_TRUE(obs::json_valid(w.str())) << w.str();
  EXPECT_TRUE(obs::metrics_json_wellformed(w.str())) << w.str();
  const std::string expected =
      "\"test.empty_hist\":{\"count\":0,\"sum\":0,\"mean\":null,\"min\":null,"
      "\"max\":null,\"p50\":null,\"p90\":null,\"p99\":null}";
  EXPECT_NE(w.str().find(expected), std::string::npos) << w.str();

  // The validator must reject the legacy fabricated-zeros encoding even
  // though it is syntactically valid JSON.
  const std::string legacy =
      "{\"histograms\":{\"h\":{\"count\":0,\"sum\":0,\"mean\":0,\"min\":0,"
      "\"max\":0,\"p50\":0,\"p90\":0,\"p99\":0}}}";
  EXPECT_TRUE(obs::json_valid(legacy));
  EXPECT_FALSE(obs::metrics_json_wellformed(legacy));
}

// ---------------------------------------------------------------------------
// Flight recorder.

TEST(Recorder, RingWrapsAndAccountsOverflow) {
  constexpr std::uint64_t kCapacity = obs::FlightRecorder::kCapacity;
  obs::FlightRecorder rec{7};
  EXPECT_EQ(rec.session(), 7u);
  for (std::uint64_t i = 0; i < kCapacity + 12; ++i)
    rec.record({obs::RecorderEvent::Kind::kWindow, false, i,
                static_cast<double>(i), 0.0, 0.0, 0.0});
  EXPECT_EQ(rec.recorded(), kCapacity + 12);
  EXPECT_EQ(rec.dropped(), 12u);  // 12 past the retained kCapacity
  const auto events = rec.events();
  ASSERT_EQ(events.size(), kCapacity);
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(events[i].seq, 12u + i);  // oldest survivor is seq 12
}

TEST(Recorder, TriggerIsRateLimitedAndDumpsValidJsonl) {
  const auto dir = std::filesystem::path{::testing::TempDir()} / "sb_recorder";
  std::filesystem::create_directories(dir);
  obs::FlightRecorder rec{3, dir.string()};
  for (std::uint64_t i = 0; i < 10; ++i)
    rec.record({obs::RecorderEvent::Kind::kImuVerdict, i == 9, i,
                obs::now_us(), 0.25 * static_cast<double>(i), 3.0, 2.5});

  EXPECT_TRUE(rec.trigger("imu_alert"));
  EXPECT_FALSE(rec.trigger("imu_alert"));  // inside the rate-limit gap
  // Forced dumps bypass the gap, never the per-session bound.
  for (std::size_t d = 1; d < obs::FlightRecorder::kMaxDumps; ++d)
    EXPECT_TRUE(rec.trigger("final_verdict", /*force=*/true));
  EXPECT_FALSE(rec.trigger("another", /*force=*/true));
  EXPECT_EQ(rec.dumps(), obs::FlightRecorder::kMaxDumps);

  std::ifstream is{rec.dump_path()};
  ASSERT_TRUE(is.is_open()) << rec.dump_path();
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(obs::json_valid(line)) << line;
    ++lines;
  }
  EXPECT_EQ(lines, 11u);  // blackbox header + 10 retained events
  std::ifstream is2{rec.dump_path()};
  std::string header;
  std::getline(is2, header);
  EXPECT_NE(header.find("\"type\":\"blackbox\""), std::string::npos) << header;
  EXPECT_NE(header.find("\"session\":3"), std::string::npos) << header;
  EXPECT_NE(header.find("\"reason\":\"final_verdict\""), std::string::npos)
      << header;
  std::filesystem::remove_all(dir);
}

TEST(Recorder, DisabledProbeAndRecordDoNotAllocate) {
  obs::set_recorder_enabled(false);
  obs::FlightRecorder rec{1};  // ring preallocated here, before the count
  const auto before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    bool on = obs::recorder_enabled();
    // The enabled-path record() itself must also stay allocation-free: the
    // ring was preallocated at construction.
    if (!on)
      rec.record({obs::RecorderEvent::Kind::kChunk, false,
                  static_cast<std::uint64_t>(i), 0.0, 0.0, 0.0, 0.0});
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
  EXPECT_EQ(rec.recorded(), 10000u);
}

// ---------------------------------------------------------------------------
// Telemetry exporter.

TEST(Telemetry, EmitsExactCounterAndHistogramDeltas) {
  auto& reg = obs::Registry::instance();
  auto& c = reg.counter("test.tel_counter");
  auto& h = reg.histogram("test.tel_hist");
  c.reset();
  h.reset();

  const auto path = std::filesystem::path{::testing::TempDir()} /
                    "sb_telemetry_deltas.jsonl";
  {
    obs::TelemetryExporter exporter{{path.string(), /*interval_ms=*/0.0}};
    EXPECT_TRUE(exporter.tick(0.0));  // baseline sample
    c.add(7);
    for (double v : {0.1, 0.2, 0.3}) h.record(v);
    EXPECT_TRUE(exporter.tick(1.0e6));
    EXPECT_EQ(exporter.samples(), 2u);
  }
  std::ifstream is{path};
  ASSERT_TRUE(is.is_open());
  std::string line1, line2;
  std::getline(is, line1);
  std::getline(is, line2);
  for (const auto& line : {line1, line2}) {
    EXPECT_TRUE(obs::json_valid(line)) << line;
    EXPECT_TRUE(obs::metrics_json_wellformed(line)) << line;
  }
  // The second sample carries the interval's deltas, not absolute values.
  EXPECT_NE(line1.find("\"test.tel_counter\":0"), std::string::npos) << line1;
  EXPECT_NE(line2.find("\"test.tel_counter\":7"), std::string::npos) << line2;
  EXPECT_NE(line2.find("\"test.tel_hist\":{\"count\":3"), std::string::npos)
      << line2;
  EXPECT_NE(line2.find("\"interval_us\":1000000"), std::string::npos) << line2;
  std::filesystem::remove(path);
}

TEST(Telemetry, IntervalGatesSamplingAndForceBypasses) {
  const auto path = std::filesystem::path{::testing::TempDir()} /
                    "sb_telemetry_interval.jsonl";
  obs::TelemetryExporter exporter{{path.string(), /*interval_ms=*/1000.0}};
  EXPECT_TRUE(exporter.tick(0.0));        // first tick always samples
  EXPECT_FALSE(exporter.tick(0.5e6));     // 500 ms < interval
  EXPECT_FALSE(exporter.tick(0.999e6));
  EXPECT_TRUE(exporter.tick(1.25e6));     // interval elapsed
  EXPECT_FALSE(exporter.tick(1.5e6));
  EXPECT_TRUE(exporter.tick(1.5e6, /*force=*/true));  // the final flush path
  EXPECT_EQ(exporter.samples(), 3u);
  std::filesystem::remove(path);
}

TEST(Telemetry, DisabledTickDoesNotAllocate) {
  obs::set_telemetry("");  // disabled regardless of SB_TELEMETRY
  const auto before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) obs::telemetry_tick();
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
}

// ---------------------------------------------------------------------------
// Trace spans.

TEST(Trace, SpansNestAcrossParallelWorkersAndExportValidChromeJson) {
  ThreadCountGuard threads{4};
  TraceGuard trace{true};
  obs::Trace::instance().clear();

  const auto before = obs::Trace::instance().stage_totals();
  {
    obs::ScopedSpan outer{"outer", obs::Stage::kPredict};
    util::parallel_for(
        64,
        [&](std::size_t) {
          obs::ScopedSpan inner{"worker_task", obs::Stage::kStft};
        },
        1);
  }
  const auto after = obs::Trace::instance().stage_totals();

  // Every span records an event, on workers and the main thread alike.
  EXPECT_GE(obs::Trace::instance().event_count(), 65u);

  // Exclusive stage accrual: the outer span is the only stage root — the
  // inner spans run either inside pool workers or nested under the outer
  // span on this thread, and must not accrue.
  const auto predict = static_cast<std::size_t>(obs::Stage::kPredict);
  const auto stft = static_cast<std::size_t>(obs::Stage::kStft);
  EXPECT_EQ(after[predict].count - before[predict].count, 1u);
  EXPECT_GT(after[predict].seconds, before[predict].seconds);
  EXPECT_EQ(after[stft].count, before[stft].count);

  const std::string json = obs::Trace::instance().chrome_json();
  EXPECT_TRUE(obs::json_valid(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"worker_task\""), std::string::npos);
}

TEST(Trace, DisabledSpanDoesNotAllocate) {
  TraceGuard trace{false};
  const auto before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    obs::ScopedSpan span{"disabled_probe", obs::Stage::kTrain};
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
}

TEST(Trace, ClearDropsEventsAndTotals) {
  TraceGuard trace{true};
  {
    obs::ScopedSpan span{"to_drop", obs::Stage::kDetect};
  }
  EXPECT_GE(obs::Trace::instance().event_count(), 1u);
  obs::Trace::instance().clear();
  EXPECT_EQ(obs::Trace::instance().event_count(), 0u);
  const auto totals = obs::Trace::instance().stage_totals();
  for (const auto& t : totals) {
    EXPECT_EQ(t.seconds, 0.0);
    EXPECT_EQ(t.count, 0u);
  }
}

// ---------------------------------------------------------------------------
// Tracing must not perturb seeded computation.

std::vector<float> train_fingerprint(bool tracing, std::size_t threads) {
  ThreadCountGuard guard{threads};
  TraceGuard trace{tracing};
  const ml::ModelInputShape shape{.channels = 2, .height = 8, .width = 12};
  Rng model_rng{900};
  auto model = ml::make_model(ml::ModelKind::kMlp, shape, 3, model_rng);

  Rng data_rng{901};
  ml::RegressionDataset data;
  data.x = ml::Tensor{{24, shape.channels, shape.height, shape.width}};
  for (auto& v : data.x.flat()) v = static_cast<float>(data_rng.normal());
  data.y = ml::Tensor{{24, 3}};
  for (auto& v : data.y.flat()) v = static_cast<float>(data_rng.normal());
  Rng split_rng{902};
  auto [train, val] = ml::split_dataset(data, 0.25, split_rng);

  ml::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 8;
  cfg.eval_batch_size = 8;
  ml::train_regressor(*model, train, val, cfg);

  std::vector<float> fingerprint;
  for (ml::Param* p : model->params())
    for (float v : p->value.flat()) fingerprint.push_back(v);
  return fingerprint;
}

TEST(Trace, TracingDoesNotPerturbSeededTraining) {
  const auto baseline = train_fingerprint(false, 1);
  ASSERT_FALSE(baseline.empty());
  for (const bool tracing : {false, true}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      if (!tracing && threads == 1) continue;  // that's the baseline
      const auto fp = train_fingerprint(tracing, threads);
      ASSERT_EQ(fp.size(), baseline.size());
      EXPECT_EQ(std::memcmp(baseline.data(), fp.data(),
                            baseline.size() * sizeof(float)),
                0)
          << "tracing=" << tracing << " threads=" << threads
          << " diverged from the untraced serial run";
    }
  }
}

// ---------------------------------------------------------------------------
// RCA decision-trace JSONL.

TEST(DecisionTrace, JsonlLinesAreIndividuallyValidJson) {
  core::RcaDecisionTrace trace;
  core::ImuWindowDecision w;
  w.t0 = 1.0;
  w.t1 = 1.5;
  w.mean_z = {0.4, 3.2, 0.1};
  w.spread_z = {0.2, std::numeric_limits<double>::quiet_NaN(), 0.3};
  w.score = 3.2;
  w.threshold = 2.5;
  w.flagged = true;
  w.alert = true;
  trace.imu.push_back(w);
  core::GpsFixDecision g;
  g.t = 2.0;
  g.running_mean_err = 0.7;
  g.pos_dev = 12.0;
  g.vel_threshold = 1.1;
  g.pos_threshold = 20.0;
  trace.gps.push_back(g);
  trace.imu_attacked = true;
  trace.gps_mode = core::GpsDetectorMode::kAudioOnly;

  const std::string jsonl = io::decision_trace_jsonl(trace);
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    const std::size_t end = jsonl.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "missing trailing newline";
    const std::string_view line{jsonl.data() + start, end - start};
    EXPECT_TRUE(obs::json_valid(line)) << line;
    ++lines;
    start = end + 1;
  }
  EXPECT_EQ(lines, 4u);  // imu window + gps fix + health + summary
  EXPECT_NE(jsonl.find("\"type\":\"imu_window\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"type\":\"gps_fix\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"type\":\"health\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"mics_alive\":4"), std::string::npos);
  EXPECT_NE(jsonl.find("\"degraded\":false"), std::string::npos);
  EXPECT_NE(jsonl.find("\"gps_mode\":\"audio_only\""), std::string::npos);
  // The NaN spread component must be null, not a bare token.
  EXPECT_EQ(jsonl.find("nan"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Logger.

TEST(Log, LevelParsingAndGating) {
  const obs::LogLevel prior = obs::log_level();
  obs::set_log_level(obs::LogLevel::kQuiet);
  EXPECT_FALSE(obs::log_enabled(obs::LogLevel::kError));
  obs::set_log_level(obs::LogLevel::kWarn);
  EXPECT_TRUE(obs::log_enabled(obs::LogLevel::kError));
  EXPECT_TRUE(obs::log_enabled(obs::LogLevel::kWarn));
  EXPECT_FALSE(obs::log_enabled(obs::LogLevel::kInfo));
  obs::set_log_level(prior);
}

}  // namespace
}  // namespace sb
