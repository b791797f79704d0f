// §IV-C runtime overhead: google-benchmark microbenchmarks of every online
// pipeline stage (rendering a flight's recording stands in for audio
// capture, which is free on real hardware), plus the signature-generation duty cycle — the paper
// reports ~2.4% overhead for signature generation and fully-onboard
// (Raspberry-Pi-class) post hoc RCA.
#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_common.hpp"
#include "detect/ks_test.hpp"
#include "estimation/velocity_kf.hpp"
#include "obs/recorder.hpp"

using namespace sb;

namespace {

const core::Flight& hover_flight() {
  static const core::Flight kFlight = [] {
    core::FlightScenario s;
    s.mission = sim::Mission::hover({0, 0, -10}, 20.0);
    s.seed = 97001;
    return bench::lab().fly(s);
  }();
  return kFlight;
}

core::SensoryMapper& mapper() {
  static core::SensoryMapper kMapper = bench::standard_mapper();
  return kMapper;
}

// The first analysis window of the hover flight: [2.0, 2.5) s.
constexpr core::WindowSpan kWindow{2.0, 2.5};

const acoustics::MultiChannelAudio& window_audio() {
  static const acoustics::MultiChannelAudio kAudio =
      bench::lab().synthesizer(hover_flight()).synthesize(hover_flight().log,
                                                          kWindow.t0, kWindow.t1);
  return kAudio;
}

// One window through the online per-window path: signature, then forward.
std::vector<core::TimedPrediction> predict_window(const core::SensoryMapper& m) {
  const ml::Tensor sig = m.prepare_signature(window_audio(), {}, nullptr, kWindow.t0);
  return m.predict_prepared({&sig, 1}, {&kWindow, 1});
}

// Renders the 20 s flight's whole recording, as offline analysis does once
// per flight; items are recording samples (all four channels each).
void BM_FlightRecordingSynthesis(benchmark::State& state) {
  const auto synth = bench::lab().synthesizer(hover_flight());
  const auto& log = hover_flight().log;
  std::int64_t samples = 0;
  for (auto _ : state) {
    auto audio = synth.synthesize(log, 0.0, log.duration());
    benchmark::DoNotOptimize(audio.channels[0].data());
    samples += static_cast<std::int64_t>(audio.num_samples());
  }
  state.SetItemsProcessed(samples);
}
BENCHMARK(BM_FlightRecordingSynthesis)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SignatureGeneration(benchmark::State& state) {
  core::SignatureConfig cfg;
  for (auto _ : state) {
    auto sig = core::compute_signature(window_audio(), cfg);
    benchmark::DoNotOptimize(sig.data());
  }
}
BENCHMARK(BM_SignatureGeneration)->Unit(benchmark::kMillisecond);

void BM_ModelInference(benchmark::State& state) {
  auto& m = mapper();
  for (auto _ : state) {
    auto preds = predict_window(m);
    benchmark::DoNotOptimize(preds.data());
  }
}
BENCHMARK(BM_ModelInference)->Unit(benchmark::kMillisecond);

void BM_KalmanStep(benchmark::State& state) {
  const est::VelocityKfConfig cfg;
  est::VelocityKf kf{{}, cfg.p0};
  for (auto _ : state) {
    kf.predict({0.1, 0, 0}, 0.25, cfg.q_imu);
    kf.update({0.5, 0, 0}, cfg.r_audio_vel);
    auto v = kf.velocity();
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_KalmanStep);

void BM_KsWindowTest(benchmark::State& state) {
  Rng rng{1};
  std::vector<double> residuals(300);
  for (auto& r : residuals) r = rng.normal();
  for (auto _ : state) {
    auto result = detect::ks_test_normal(residuals, 0.0, 1.0);
    benchmark::DoNotOptimize(result.statistic);
  }
}
BENCHMARK(BM_KsWindowTest);

// Observability probe costs: a disabled span must stay in the "one relaxed
// atomic load" regime (tracing is off by default in production), an enabled
// span pays two clock reads plus a thread-local buffer append.
void BM_DisabledSpan(benchmark::State& state) {
  const bool was = obs::enabled();
  obs::set_enabled(false);
  for (auto _ : state) {
    obs::ScopedSpan span{"overhead_probe"};
    benchmark::DoNotOptimize(&span);
  }
  obs::set_enabled(was);
}
BENCHMARK(BM_DisabledSpan);

// The same contract holds for the flight recorder and telemetry switches:
// with SB_RECORDER unset the per-event check is one relaxed atomic load, and
// with SB_TELEMETRY unset so is the scheduler's per-pump telemetry_tick().
void BM_DisabledRecorderProbe(benchmark::State& state) {
  obs::set_recorder_enabled(false);
  for (auto _ : state) {
    bool on = obs::recorder_enabled();
    benchmark::DoNotOptimize(on);
  }
}
BENCHMARK(BM_DisabledRecorderProbe);

void BM_DisabledTelemetryTick(benchmark::State& state) {
  obs::set_telemetry("");  // disable regardless of the environment
  for (auto _ : state) obs::telemetry_tick();
}
BENCHMARK(BM_DisabledTelemetryTick);

void BM_EnabledSpan(benchmark::State& state) {
  const bool was = obs::enabled();
  obs::set_enabled(true);
  for (auto _ : state) {
    obs::ScopedSpan span{"overhead_probe"};
    benchmark::DoNotOptimize(&span);
  }
  obs::set_enabled(was);
  obs::Trace::instance().clear();  // don't let probe events swamp the export
}
// Bounded iterations: every enabled span appends an event, and the default
// auto-tuned iteration count would buffer hundreds of MB of them.
BENCHMARK(BM_EnabledSpan)->Iterations(1 << 16);

// Signature-generation duty cycle: processing one 0.5 s window (filter +
// STFT + banding; audio capture itself is a DMA transfer on real hardware)
// relative to the 0.25 s stride budget.
void BM_SignatureDutyCycle(benchmark::State& state) {
  const auto& audio = window_audio();
  core::SignatureConfig cfg;
  double seconds = 0.0;
  std::size_t iterations = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    auto sig = core::compute_signature(audio, cfg);
    benchmark::DoNotOptimize(sig.data());
    seconds += std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                   .count();
    ++iterations;
  }
  state.counters["duty_cycle_%"] =
      100.0 * (seconds / static_cast<double>(iterations)) / 0.25;
}
BENCHMARK(BM_SignatureDutyCycle)->Unit(benchmark::kMillisecond);

// Headline observability metric: the default-off tracing cost on the online
// per-window path.  Measures the cost of one disabled span, counts how many
// spans that path actually executes (by running it once with tracing on),
// and reports their product relative to the measured per-window time — an
// upper bound on the overhead instrumentation adds when SB_TRACE is unset.
void report_tracing_overhead(bench::BenchReport& report) {
  auto& m = mapper();

  const bool was = obs::enabled();
  obs::set_enabled(false);
  constexpr int kSpanIters = 1 << 20;
  const double span_t0 = obs::now_us();
  for (int i = 0; i < kSpanIters; ++i) {
    obs::ScopedSpan span{"overhead_probe"};
    benchmark::DoNotOptimize(&span);
  }
  const double disabled_span_ns = (obs::now_us() - span_t0) * 1e3 / kSpanIters;

  // Disabled recorder/telemetry probes, measured the same way so the BENCH
  // json keeps all three "one relaxed atomic load" claims as numbers.
  obs::set_recorder_enabled(false);
  const double rec_t0 = obs::now_us();
  for (int i = 0; i < kSpanIters; ++i) {
    bool on = obs::recorder_enabled();
    benchmark::DoNotOptimize(on);
  }
  const double disabled_recorder_ns =
      (obs::now_us() - rec_t0) * 1e3 / kSpanIters;

  obs::set_telemetry("");
  const double tel_t0 = obs::now_us();
  for (int i = 0; i < kSpanIters; ++i) obs::telemetry_tick();
  const double disabled_telemetry_ns =
      (obs::now_us() - tel_t0) * 1e3 / kSpanIters;

  constexpr int kWinIters = 20;
  const double win_t0 = obs::now_us();
  for (int i = 0; i < kWinIters; ++i) {
    auto preds = predict_window(m);
    benchmark::DoNotOptimize(preds.data());
  }
  const double window_seconds = (obs::now_us() - win_t0) * 1e-6 / kWinIters;

  obs::set_enabled(true);
  obs::Trace::instance().clear();
  {
    auto preds = predict_window(m);
    benchmark::DoNotOptimize(preds.data());
  }
  const auto spans = static_cast<double>(obs::Trace::instance().event_count());
  obs::Trace::instance().clear();
  obs::set_enabled(was);

  const double overhead_pct =
      window_seconds > 0.0 ? 100.0 * spans * disabled_span_ns * 1e-9 / window_seconds
                           : 0.0;
  report.metric("disabled_span_ns", disabled_span_ns);
  report.metric("disabled_recorder_ns", disabled_recorder_ns);
  report.metric("disabled_telemetry_ns", disabled_telemetry_ns);
  report.metric("spans_per_window", spans);
  report.metric("window_seconds", window_seconds);
  report.metric("tracing_disabled_overhead_pct", overhead_pct);
  std::printf(
      "tracing disabled: %.2f ns/span (recorder %.2f ns, telemetry %.2f ns), "
      "%.0f spans/window -> %.5f%% overhead\n",
      disabled_span_ns, disabled_recorder_ns, disabled_telemetry_ns, spans,
      overhead_pct);
}

}  // namespace

// Hand-written main (instead of BENCHMARK_MAIN) so the run still emits the
// BENCH_runtime_overhead.json wall-clock report like the other benches.
int main(int argc, char** argv) {
  // Shared flags first (stripped from argv), google-benchmark's own after.
  bench::bench_init(argc, argv, /*allow_unknown=*/true);
  bench::BenchReport report{"runtime_overhead"};
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  report_tracing_overhead(report);
  ::benchmark::Shutdown();
  return 0;
}
