// Fleet serving bench (DESIGN.md "Fleet architecture"): N concurrent flight
// sessions sharded across per-shard inference schedulers (FleetServer), the
// shards pumping in parallel on one shared mapper.  Grids the fleet size and
// reports, per N: sessions-per-core at realtime, window->verdict latency,
// the shed/thinned rates under deliberate overload (the per-shard queue
// bound is fixed while N grows), admission verdict counts and the
// steady-state heap discipline.  The first grid point also measures the
// checkpoint/restore round trip: every session is checkpointed, restored
// into a SECOND fleet, and both fleets' final reports are compared field
// for field — any divergence fails the bench.
//
// Workload knobs (environment, so the CI smoke job can shrink the run
// without recompiling; the shared --seed/--threads/--out-dir flags apply):
//   SB_BENCH_TINY=1            tiny model + short flights (CI smoke)
//   SB_BENCH_FLEET_GRID=CSV    fleet sizes      (default "64,256,1024,4096",
//                              tiny "8,24")
//   SB_BENCH_FLEET_SHARDS=K    shards           (default 4)
//   SB_BENCH_FLIGHT_SECONDS=S  per-flight duration (default 20, tiny 8)
//   SB_BENCH_FLEET_MODE=checkpoint|restore + SB_BENCH_FLEET_DIR=DIR
//     restart-recovery smoke: `checkpoint` serves the first half, dumps
//     every session + a verdict digest into DIR, then finishes the flight;
//     `restore` (a fresh process) restores from DIR, serves the identical
//     second half and fails on any digest divergence.
// Counts must be whole numbers >= 1 and seconds positive; a bad knob prints
// the usage and exits 2 before any training.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "stream/fleet_server.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace sb;

std::string env_string(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v ? std::string{v} : fallback;
}

// SB_BENCH_FLEET_GRID: comma-separated fleet sizes, each a whole number
// >= 1; anything else prints the usage and exits 2.
std::vector<int> parse_grid(const char* argv0, const std::string& csv) {
  std::vector<int> out;
  std::stringstream ss{csv};
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    const std::optional<int> n = bench::parse_whole<int>(tok);
    if (!n || *n < 1)
      bench::bench_usage_error(argv0, "bad SB_BENCH_FLEET_GRID entry '" + tok +
                                          "' in '" + csv +
                                          "' (need whole numbers >= 1)");
    out.push_back(*n);
  }
  if (out.empty() || csv.back() == ',')
    bench::bench_usage_error(argv0, "bad SB_BENCH_FLEET_GRID '" + csv + "'");
  return out;
}

// A handful of feeds are rendered and shared read-only across the whole
// fleet (4096 private renders would be tens of GB); each session keeps its
// own cursors into its assigned feed.
struct Feed {
  core::Flight flight;
  acoustics::MultiChannelAudio audio;
};

// A session's feed and its read positions in it.
struct Cursor {
  std::size_t feed = 0;
  bench::FeedCursor at;
};

// One line per session, every field printed with round-trip precision, so
// string equality == bitwise verdict equality.
std::string digest_report(std::uint64_t id, const core::RcaReport& r) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"id\": %llu, \"imu_attacked\": %d, \"gps_attacked\": %d, "
                "\"imu_detect_time\": %.17g, \"gps_detect_time\": %.17g, "
                "\"windows_total\": %zu, \"imu_windows_skipped\": %zu}",
                static_cast<unsigned long long>(id), r.imu_attacked ? 1 : 0,
                r.gps_attacked ? 1 : 0, r.imu_detect_time, r.gps_detect_time,
                r.health.windows_total, r.health.imu_windows_skipped);
  return buf;
}

// Forces one black-box dump (the first live session with a recorder) so a
// run under SB_RECORDER always writes a black box to validate; force
// bypasses the rate-limit gap, not the per-session dump bound.
void snapshot_black_box(const std::vector<stream::RcaSession*>& sessions) {
  for (stream::RcaSession* s : sessions)
    if (s != nullptr && s->recorder() != nullptr) {
      s->recorder()->trigger("bench_snapshot", /*force=*/true);
      return;
    }
}

constexpr double kTick = 0.1;

struct ServeStats {
  double wall = 0.0;
  std::size_t verdicts = 0;
  std::uint64_t steady_heap_allocs = 0;
};

// Advances every live session in lock-step kTick rounds over the half-open
// tick range (k_begin, k_end], pumping the fleet once per round.  Tick times
// are k * kTick (multiplication, not accumulation) so a restored process
// reproduces the checkpointing process's push boundaries exactly.
ServeStats serve_phase(stream::FleetServer& fleet,
                       std::vector<stream::RcaSession*>& sessions,
                       const std::vector<Feed>& feeds,
                       std::vector<Cursor>& cursors, long k_begin, long k_end,
                       double duration) {
  ServeStats stats;
  obs::Counter& heap_allocs =
      obs::Registry::instance().counter("ml.workspace.heap_allocs");
  // Baseline at mid-phase: the GPS monitors only seed a few seconds into
  // the flight, and their first windows legitimately warm new scratch sizes.
  // Under SB_THREADS>1 the counter can still tick after the baseline when a
  // shard first lands on a pool thread whose scratch pool hasn't served it
  // yet (chunk->thread claiming is not deterministic; results are) — that is
  // warm-up attribution, not a steady-state allocation.  The zero-alloc
  // contract is pinned at one thread, where this reads exactly 0.
  const long warm_k = k_begin + (k_end - k_begin) / 2;
  std::uint64_t heap_baseline = 0;
  bench::Stopwatch timer;
  for (long k = k_begin + 1; k <= k_end; ++k) {
    const double t = static_cast<double>(k) * kTick;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      if (sessions[i] == nullptr) continue;
      const Feed& feed = feeds[cursors[i].feed];
      bench::push_until(*sessions[i], feed.flight, feed.audio, cursors[i].at,
                        std::min(t, duration));
      stats.verdicts += sessions[i]->poll_verdicts().size();
    }
    fleet.pump();
    if (k == warm_k) heap_baseline = heap_allocs.value();
  }
  fleet.drain();
  stats.steady_heap_allocs = heap_allocs.value() - heap_baseline;
  stats.wall = timer.seconds();
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  bench::bench_init(argc, argv);
  const bool tiny = bench::tiny_mode();
  const double duration = bench::env_seconds(argv[0], "SB_BENCH_FLIGHT_SECONDS",
                                             tiny ? 8.0 : 20.0);
  const auto shards = bench::env_count<std::size_t>(
      argv[0], "SB_BENCH_FLEET_SHARDS", 4);
  const std::string mode = env_string("SB_BENCH_FLEET_MODE", "");
  const std::string ckpt_dir = env_string("SB_BENCH_FLEET_DIR", "");
  std::vector<int> grid = parse_grid(
      argv[0],
      env_string("SB_BENCH_FLEET_GRID", tiny ? "8,24" : "64,256,1024,4096"));
  if (!mode.empty()) {
    if (mode != "checkpoint" && mode != "restore")
      bench::bench_usage_error(argv[0], "bad value for SB_BENCH_FLEET_MODE: '" +
                                            mode + "' (checkpoint|restore)");
    // Restart-recovery smoke serves one fixed fleet size.
    grid = {bench::env_count(argv[0], "SB_BENCH_SESSIONS", tiny ? 8 : 64)};
    if (ckpt_dir.empty()) {
      std::fprintf(stderr, "fleet_serving: SB_BENCH_FLEET_MODE needs "
                           "SB_BENCH_FLEET_DIR\n");
      return 1;
    }
  }
  const long total_ticks = std::lround(duration / kTick);
  const long half_ticks = total_ticks / 2;

  core::SensoryMapper mapper = bench::serving_mapper(tiny);
  const auto det = bench::calibrate_detectors(mapper, tiny ? 2 : 10,
                                              tiny ? 12.0 : 40.0);

  // Shared feeds: benign / GPS-spoof / IMU-attack mix, one render each.
  const int max_n = *std::max_element(grid.begin(), grid.end());
  const int n_feeds = std::min(max_n, tiny ? 6 : 12);
  obs::logf(obs::LogLevel::kInfo, "setup",
            "rendering %d shared feeds (%.0f s each) for fleets up to %d",
            n_feeds, duration, max_n);
  std::vector<Feed> feeds(static_cast<std::size_t>(n_feeds));
  for (int i = 0; i < n_feeds; ++i) {
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

  bench::BenchReport report{"fleet_serving"};
  report.note("mode", mode.empty() ? (tiny ? "tiny" : "standard") : mode);
  report.metric("shards", static_cast<double>(shards));
  report.metric("flight_seconds", duration);
  const double cores = static_cast<double>(util::ThreadPool::threads());

  auto fleet_config = [&](int n) {
    stream::FleetServerConfig fc;
    fc.num_shards = shards;
    // Degrade watermark at 3/4 of the expected per-shard occupancy: the last
    // quarter of admissions at each N serve with thinned evidence, so the
    // grid exercises every admission verdict and the thinning path.
    fc.degrade_sessions_per_shard = std::max<std::size_t>(
        1, (3 * static_cast<std::size_t>(n)) / (4 * shards));
    fc.session.recorder_dir = bench::bench_output_dir().string();
    return fc;
  };
  auto make_cursors = [&](int n) {
    std::vector<Cursor> cursors(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      cursors[static_cast<std::size_t>(i)].feed =
          static_cast<std::size_t>(i % n_feeds);
    return cursors;
  };

  bool ok = true;
  double total_wall = 0.0;
  std::size_t admitted = 0, degraded = 0;

  if (mode == "restore") {
    // ---- Restart-recovery smoke, phase 2: restore + serve second half ----
    const int n = grid[0];
    stream::FleetServer fleet{mapper, det.imu, det.gps, fleet_config(n)};
    std::vector<stream::RcaSession*> sessions(static_cast<std::size_t>(n),
                                              nullptr);
    auto cursors = make_cursors(n);
    const double half = static_cast<double>(half_ticks) * kTick;
    std::size_t restored = 0;
    for (int i = 0; i < n; ++i) {
      const auto path =
          ckpt_dir + "/SESSION_" + std::to_string(i) + ".sbsess";
      const auto res = fleet.restore(path);
      if (res.session == nullptr) {
        std::fprintf(stderr, "fleet_serving: restore of %s failed\n",
                     path.c_str());
        ok = false;
        continue;
      }
      sessions[static_cast<std::size_t>(i)] = res.session;
      // Resume the feed where the checkpointing process pushed up to.
      Cursor& cur = cursors[static_cast<std::size_t>(i)];
      cur.at = bench::feed_cursor_at(feeds[cur.feed].flight,
                                     feeds[cur.feed].audio, half);
      ++restored;
    }
    report.metric("sessions", n);
    report.metric("sessions_restored", static_cast<double>(restored));
    const auto stats = serve_phase(fleet, sessions, feeds, cursors, half_ticks,
                                   total_ticks, duration);
    total_wall += stats.wall;
    snapshot_black_box(sessions);
    std::string digest = "{\"sessions\": [\n";
    for (int i = 0; i < n; ++i) {
      if (sessions[static_cast<std::size_t>(i)] == nullptr) continue;
      const auto r = fleet.finish(static_cast<std::uint64_t>(i));
      digest += digest_report(static_cast<std::uint64_t>(i), r);
      digest += i + 1 < n ? ",\n" : "\n";
    }
    digest += "]}\n";
    std::ifstream ref_is{ckpt_dir + "/FLEET_DIGEST.json"};
    std::ostringstream ref;
    ref << ref_is.rdbuf();
    const bool identical = ref_is && ref.str() == digest;
    report.metric("restored_verdict_divergence", identical ? 0.0 : 1.0);
    if (!identical) {
      std::fprintf(stderr,
                   "fleet_serving: restored fleet verdicts DIVERGE from the "
                   "checkpointing process\n");
      ok = false;
    } else {
      std::printf("fleet_serving: %zu restored sessions, second half served, "
                  "verdict digest identical\n", restored);
    }
  } else {
    // ---- Grid (and checkpoint-mode first half) ----
    for (std::size_t gi = 0; gi < grid.size(); ++gi) {
      const int n = grid[gi];
      const std::string tag = "n" + std::to_string(n) + ".";
      ServeStats stats;
      std::size_t shed = 0, thinned = 0, inferred = 0;
      const double wall = bench::repeat_median([&](int) {
        stream::FleetServer fleet{mapper, det.imu, det.gps, fleet_config(n)};
        std::vector<stream::RcaSession*> sessions(static_cast<std::size_t>(n),
                                                  nullptr);
        auto cursors = make_cursors(n);
        admitted = degraded = 0;
        for (int i = 0; i < n; ++i) {
          const auto res = fleet.admit(static_cast<std::uint64_t>(i));
          sessions[static_cast<std::size_t>(i)] = res.session;
          if (res.verdict == stream::Admission::kAdmitted) ++admitted;
          if (res.verdict == stream::Admission::kDegraded) ++degraded;
        }

        const bool split = mode == "checkpoint" && gi == 0;
        const long mid = split ? half_ticks : total_ticks;
        stats = serve_phase(fleet, sessions, feeds, cursors, 0, mid, duration);

        if (split) {
          // Dump every session + the continuation digest, then keep serving
          // to the end of the flight in THIS process too — the digest is
          // what the restored process must reproduce bit for bit.
          bench::Stopwatch ckpt_timer;
          const std::size_t written = fleet.checkpoint_all(ckpt_dir);
          report.metric("checkpoint_wall_seconds", ckpt_timer.seconds());
          report.metric("checkpoints_written", static_cast<double>(written));
          const auto tail = serve_phase(fleet, sessions, feeds, cursors,
                                        half_ticks, total_ticks, duration);
          stats.wall += tail.wall;
          stats.verdicts += tail.verdicts;
        }
        shed = fleet.windows_shed();
        thinned = fleet.windows_thinned();
        inferred = fleet.windows_inferred();

        snapshot_black_box(sessions);

        std::string digest = "{\"sessions\": [\n";
        for (int i = 0; i < n; ++i) {
          if (sessions[static_cast<std::size_t>(i)] == nullptr) continue;
          const auto r = fleet.finish(static_cast<std::uint64_t>(i));
          digest += digest_report(static_cast<std::uint64_t>(i), r);
          digest += i + 1 < n ? ",\n" : "\n";
        }
        digest += "]}\n";
        if (split) {
          std::ofstream os{ckpt_dir + "/FLEET_DIGEST.json"};
          os << digest;
        }
        return stats.wall;
      });
      total_wall += wall;

      const double streamed = static_cast<double>(n) * duration;
      const double realtime = wall > 0.0 ? streamed / wall : 0.0;
      const double staged = static_cast<double>(inferred + shed + thinned);
      report.metric(tag + "sessions", n);
      report.metric(tag + "serve_wall_seconds", wall);
      report.metric(tag + "realtime_factor", realtime);
      report.metric(tag + "sessions_per_core",
                    cores > 0.0 ? realtime / cores : realtime);
      report.metric(tag + "admitted", static_cast<double>(admitted));
      report.metric(tag + "degraded", static_cast<double>(degraded));
      report.metric(tag + "windows_inferred", static_cast<double>(inferred));
      report.metric(tag + "windows_shed", static_cast<double>(shed));
      report.metric(tag + "windows_thinned", static_cast<double>(thinned));
      report.metric(tag + "shed_rate",
                    staged > 0.0 ? static_cast<double>(shed) / staged : 0.0);
      report.metric(tag + "steady_state_heap_allocs",
                    static_cast<double>(stats.steady_heap_allocs));
      report.metric(tag + "verdict_events",
                    static_cast<double>(stats.verdicts));
      // Cumulative across grid points (one process-wide histogram): the
      // largest N dominates the mass, earlier snapshots show the trend.
      const auto latency = obs::Registry::instance()
                               .histogram("stream.window_to_verdict_seconds")
                               .snapshot();
      report.metric(tag + "latency_p50_cumulative", latency.p50);
      report.metric(tag + "latency_p99_cumulative", latency.p99);
      std::printf(
          "fleet_serving: N=%d on %zu shards: %.2f s wall -> %.1fx realtime "
          "(%.1f sessions/core), shed %zu thinned %zu, heap +%llu\n",
          n, shards, wall, realtime, cores > 0.0 ? realtime / cores : realtime,
          shed, thinned,
          static_cast<unsigned long long>(stats.steady_heap_allocs));
    }

    // ---- Checkpoint/restore round trip on a fresh small fleet ----
    if (mode.empty()) {
      const int n = grid[0];
      const auto dir = bench::bench_output_dir() / "fleet_ckpt";
      std::filesystem::create_directories(dir);
      stream::FleetServer fleet{mapper, det.imu, det.gps, fleet_config(n)};
      std::vector<stream::RcaSession*> sessions(static_cast<std::size_t>(n),
                                                nullptr);
      auto cursors = make_cursors(n);
      for (int i = 0; i < n; ++i)
        sessions[static_cast<std::size_t>(i)] =
            fleet.admit(static_cast<std::uint64_t>(i)).session;
      serve_phase(fleet, sessions, feeds, cursors, 0, half_ticks, duration);

      bench::Stopwatch ckpt_timer;
      const std::size_t written = fleet.checkpoint_all(dir.string());
      const double ckpt_wall = ckpt_timer.seconds();
      stream::FleetServer fleet2{mapper, det.imu, det.gps, fleet_config(n)};
      bench::Stopwatch restore_timer;
      std::size_t restored = 0;
      for (int i = 0; i < n; ++i)
        if (fleet2
                .restore((dir / ("SESSION_" + std::to_string(i) + ".sbsess"))
                             .string())
                .session != nullptr)
          ++restored;
      const double restore_wall = restore_timer.seconds();
      report.metric("checkpoint_sessions", static_cast<double>(written));
      report.metric("checkpoint_ms_per_session",
                    written > 0 ? 1e3 * ckpt_wall / static_cast<double>(written)
                                : 0.0);
      report.metric("restore_ms_per_session",
                    restored > 0
                        ? 1e3 * restore_wall / static_cast<double>(restored)
                        : 0.0);
      // Serve both fleets to the end of the flight and require bitwise
      // identical final reports — the restored fleet must be indistinguishable.
      auto cursors2 = cursors;
      std::vector<stream::RcaSession*> sessions2(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i)
        sessions2[static_cast<std::size_t>(i)] =
            fleet2.find(static_cast<std::uint64_t>(i));
      serve_phase(fleet, sessions, feeds, cursors, half_ticks, total_ticks,
                  duration);
      serve_phase(fleet2, sessions2, feeds, cursors2, half_ticks, total_ticks,
                  duration);
      std::size_t divergent = written == static_cast<std::size_t>(n) &&
                                      restored == written
                                  ? 0
                                  : 1;
      for (int i = 0; i < n; ++i) {
        const auto a = fleet.finish(static_cast<std::uint64_t>(i));
        const auto b = fleet2.finish(static_cast<std::uint64_t>(i));
        if (digest_report(static_cast<std::uint64_t>(i), a) !=
            digest_report(static_cast<std::uint64_t>(i), b))
          ++divergent;
      }
      report.metric("restored_verdict_divergence",
                    static_cast<double>(divergent));
      if (divergent > 0) {
        std::fprintf(stderr,
                     "fleet_serving: checkpoint/restore round trip diverged "
                     "on %zu sessions\n", divergent);
        ok = false;
      } else {
        std::printf("fleet_serving: checkpoint/restore round trip: %zu "
                    "sessions, %.2f ms save / %.2f ms load per session, "
                    "0 divergent verdicts\n",
                    written,
                    written > 0 ? 1e3 * ckpt_wall / static_cast<double>(written)
                                : 0.0,
                    restored > 0
                        ? 1e3 * restore_wall / static_cast<double>(restored)
                        : 0.0);
      }
    }
  }

  report.wall_seconds(total_wall);
  report.flush();

  ok = bench::validate_json_file(bench::bench_output_dir() /
                                 "BENCH_fleet_serving.json") &&
       ok;
  if (obs::enabled())
    ok = bench::validate_json_file(bench::bench_output_dir() /
                                   "TRACE_fleet_serving.json") &&
         ok;
  // Every black box a session of this run dumped (ids 0..max_n-1).
  if (obs::recorder_enabled())
    ok = bench::validate_black_boxes(static_cast<std::size_t>(max_n)) && ok;
  return ok ? 0 : 1;
}
