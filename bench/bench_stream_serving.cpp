// Online serving bench (DESIGN.md "Streaming architecture"): N concurrent
// flight sessions stream their microphone/IMU/GPS feeds chunk-by-chunk into
// RcaSessions while one InferenceScheduler micro-batches every session's
// ready windows into single model forwards.  Reports how many realtime
// streams one core sustains (realtime factor), the window->verdict latency
// distribution and the backpressure shed rate.
//
// Workload knobs (environment, so the CI smoke job can shrink the run
// without recompiling; the shared --seed/--threads/--out-dir flags apply):
//   SB_BENCH_TINY=1            tiny model + short flights (CI smoke)
//   SB_BENCH_SESSIONS=N        concurrent sessions   (default 8)
//   SB_BENCH_FLIGHT_SECONDS=S  per-flight duration   (default 30, tiny 10)
// Counts must be whole numbers >= 1 and seconds positive; a bad knob prints
// the usage and exits 2 before any training.
//
// The emitted BENCH_stream_serving.json is self-checked with the obs JSON
// validator before exit; a malformed report (and the TRACE file, when
// tracing) fails the run with a nonzero exit code.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "stream/inference_scheduler.hpp"
#include "stream/rca_session.hpp"

namespace {

using namespace sb;

// Pre-rendered per-session feed: the full flight stream, sliced on demand.
struct SessionFeed {
  core::Flight flight;
  acoustics::MultiChannelAudio audio;  // whole continuous capture
  bench::FeedCursor cursor;
};

}  // namespace

int main(int argc, char** argv) {
  bench::bench_init(argc, argv);
  const bool tiny = bench::tiny_mode();
  const int n_sessions = bench::env_count(argv[0], "SB_BENCH_SESSIONS", 8);
  const double duration = bench::env_seconds(argv[0], "SB_BENCH_FLIGHT_SECONDS",
                                             tiny ? 10.0 : 30.0);

  // Model + calibrated detectors.
  core::SensoryMapper mapper = bench::serving_mapper(tiny);
  const auto det = bench::calibrate_detectors(mapper, tiny ? 2 : 10,
                                              tiny ? 12.0 : 40.0);

  // Per-session flights: a benign / GPS-spoof / IMU-attack mix so the served
  // verdict stream exercises both detector stages and the mode switch.
  obs::logf(obs::LogLevel::kInfo, "setup", "rendering %d session feeds (%.0f s each)",
            n_sessions, duration);
  std::vector<SessionFeed> feeds(static_cast<std::size_t>(n_sessions));
  for (int i = 0; i < n_sessions; ++i) {
    core::FlightScenario s;
    switch (i % 3) {
      case 0: s = bench::benign_scenario(i, duration); break;
      case 1: s = bench::gps_attack_scenario(i, duration); break;
      default: s = bench::imu_attack_scenario(i, duration); break;
    }
    auto& feed = feeds[static_cast<std::size_t>(i)];
    feed.flight = bench::lab().fly(s);
    feed.audio = bench::lab()
                     .synthesizer(feed.flight)
                     .synthesize(feed.flight.log, 0.0, duration);
  }

  bench::BenchReport report{"stream_serving"};
  report.note("mode", tiny ? "tiny" : "standard");
  report.metric("sessions", n_sessions);
  report.metric("flight_seconds", duration);

  // Serve: advance every stream in 100 ms ticks (a realistic transport
  // cadence), pumping the scheduler once per tick — windows from all sessions
  // that completed in the tick share forwards.  With --repeat N the whole
  // serve phase runs N times against fresh sessions (the feeds are re-wound,
  // re-rendering nothing) and the median wall clock is reported; shed/latency
  // counters come from the last rep.
  const double tick = 0.1;
  std::size_t verdicts = 0;
  std::size_t windows_inferred = 0, windows_shed = 0, batches_run = 0;
  std::uint64_t steady_heap_allocs = 0;
  int imu_flagged = 0, gps_flagged = 0;
  // Black boxes land next to the BENCH json so CI can pick them up.
  stream::RcaSessionConfig session_config;
  session_config.recorder_dir = bench::bench_output_dir().string();
  const double serve_wall = bench::repeat_median([&](int) {
    for (auto& f : feeds) f.cursor = {};
    verdicts = 0;
    imu_flagged = gps_flagged = 0;
    std::vector<stream::RcaSession> sessions;
    sessions.reserve(feeds.size());
    for (std::size_t i = 0; i < feeds.size(); ++i)
      sessions.emplace_back(static_cast<std::uint64_t>(i), mapper, det.imu,
                            det.gps, session_config);
    stream::InferenceScheduler scheduler{mapper};
    for (auto& s : sessions) scheduler.attach(s);

    // Steady-state heap discipline: past the warm-up ticks the scratch pool
    // must stop growing even with the recorder on (the zero-alloc serving
    // contract).  Baselined 20% in, checked after the drain.
    obs::Counter& heap_allocs =
        obs::Registry::instance().counter("ml.workspace.heap_allocs");
    const double warm_until = 0.2 * duration;
    std::uint64_t heap_baseline = 0;
    bool baselined = false;

    bench::Stopwatch serve_timer;
    for (double t = tick; t < duration + tick; t += tick) {
      for (std::size_t i = 0; i < sessions.size(); ++i) {
        bench::push_until(sessions[i], feeds[i].flight, feeds[i].audio,
                          feeds[i].cursor, std::min(t, duration));
        for ([[maybe_unused]] auto& e : sessions[i].poll_verdicts()) ++verdicts;
      }
      scheduler.pump();
      if (!baselined && t >= warm_until) {
        heap_baseline = heap_allocs.value();
        baselined = true;
      }
    }
    scheduler.drain();
    steady_heap_allocs = heap_allocs.value() - heap_baseline;
    const double rep_wall = serve_timer.seconds();
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      const auto r = sessions[i].finish();
      verdicts += sessions[i].poll_verdicts().size();
      imu_flagged += r.imu_attacked ? 1 : 0;
      gps_flagged += r.gps_attacked ? 1 : 0;
    }
    // Guarantee one validating black box per run regardless of verdict mix
    // (force bypasses the rate-limit gap, not the per-session dump bound).
    if (obs::FlightRecorder* rec = sessions.front().recorder())
      rec->trigger("bench_snapshot", /*force=*/true);
    windows_inferred = scheduler.windows_inferred();
    windows_shed = scheduler.windows_shed();
    batches_run = scheduler.batches_run();
    return rep_wall;
  });
  report.wall_seconds(serve_wall);

  // Headline: how many realtime streams this serving loop keeps up with.
  const double streamed_seconds = static_cast<double>(n_sessions) * duration;
  report.metric("serve_wall_seconds", serve_wall);
  report.metric("realtime_factor",
                serve_wall > 0.0 ? streamed_seconds / serve_wall : 0.0);

  const auto latency = obs::Registry::instance()
                           .histogram("stream.window_to_verdict_seconds")
                           .snapshot();
  report.metric("latency_p50_seconds", latency.p50);
  report.metric("latency_p99_seconds", latency.p99);
  report.metric("latency_max_seconds", latency.max);

  // The serving SLO (stream::kSloP50Seconds / kSloP99Seconds) against the
  // attained quantiles; a breach is one delivery above the p99 target.
  report.metric("slo_breaches",
                static_cast<double>(obs::Registry::instance()
                                        .counter("stream.slo_breaches")
                                        .value()));
  report.metric("slo_met", latency.count > 0 &&
                                   latency.p50 <= stream::kSloP50Seconds &&
                                   latency.p99 <= stream::kSloP99Seconds
                               ? 1.0
                               : 0.0);
  report.metric("steady_state_heap_allocs",
                static_cast<double>(steady_heap_allocs));

  const double staged = static_cast<double>(windows_inferred + windows_shed);
  report.metric("windows_inferred", static_cast<double>(windows_inferred));
  report.metric("windows_shed", static_cast<double>(windows_shed));
  report.metric("shed_rate",
                staged > 0.0 ? static_cast<double>(windows_shed) / staged
                             : 0.0);
  report.metric("batches", static_cast<double>(batches_run));
  report.metric("mean_batch_size",
                batches_run > 0 ? static_cast<double>(windows_inferred) /
                                      static_cast<double>(batches_run)
                                : 0.0);
  report.metric("verdict_events", static_cast<double>(verdicts));
  report.metric("sessions_imu_flagged", imu_flagged);
  report.metric("sessions_gps_flagged", gps_flagged);

  report.flush();

  std::printf(
      "stream_serving: %d sessions x %.0f s in %.2f s wall -> %.1fx realtime, "
      "p50 %.3f s / p99 %.3f s window->verdict, %zu shed (%.1f%%)\n",
      n_sessions, duration, serve_wall,
      serve_wall > 0.0 ? streamed_seconds / serve_wall : 0.0, latency.p50,
      latency.p99, windows_shed,
      staged > 0.0 ? 100.0 * static_cast<double>(windows_shed) / staged : 0.0);

  // Self-check every JSON artifact this run produced (CI gates on this).
  // The forced bench_snapshot dump makes a black box mandatory under
  // SB_RECORDER; any further incident dumps must validate too.
  bool ok = bench::validate_json_file(bench::bench_output_dir() /
                                      "BENCH_stream_serving.json");
  if (obs::enabled())
    ok = bench::validate_json_file(bench::bench_output_dir() /
                                   "TRACE_stream_serving.json") &&
         ok;
  if (obs::recorder_enabled())
    ok = bench::validate_black_boxes(static_cast<std::size_t>(n_sessions)) && ok;
  if (obs::telemetry_enabled())
    ok = bench::validate_jsonl_file(obs::telemetry_path()) && ok;
  return ok ? 0 : 1;
}
