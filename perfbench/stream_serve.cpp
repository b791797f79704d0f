// stream_serve: open loop.  Eight sessions (benign / GPS-spoof / IMU-attack
// mix, 60 s flights) stream pre-rendered continuous audio plus IMU/GPS data
// in 100 ms chunks, sent on a fixed schedule at 4x real time into one
// stream::InferenceScheduler.  Each tick is one push round and one pump() —
// the serving heartbeat — so batch composition, shedding and every verdict
// depend only on the push pattern, never on wall-clock time.  Session i
// starts i % kStagger ticks late, as independent users do, so windows
// complete in every tick instead of all sessions' at once.  The serving loop
// runs on 1 worker, as one FleetServer shard does.
//
// Set-up (setup_s): fly the flights, load the model, calibrate detectors and
// render every feed (2 workers, one task per feed).
// Latency runs from the scheduled send time of the chunk that completed a
// window to the end of the pump that delivered its verdict; a shed, thinned
// or later-than-kLatencyLimit window counts as failed, so a backlog that
// grows across the run shows as failure.
//
// Checks: the scheduler's documented steps driven by hand (ascending session
// id, take_ready, at most max_batch windows per predict_prepared, deliver in
// order) must reproduce the pump() run's final reports bitwise; in the traced
// run, so must sessions checkpointed mid-flight and restored.
#include <cmath>
#include <deque>
#include <limits>
#include <stdexcept>

#include "rig.hpp"
#include "stream/inference_scheduler.hpp"
#include "stream/rca_session.hpp"

namespace sb::perfbench {
namespace {

constexpr std::size_t kSetupWorkers = 2;
constexpr std::size_t kServeWorkers = 1;
constexpr double kTick = 0.1;          // flight seconds per chunk
constexpr std::size_t kStagger = 5;    // start offsets 0..4 ticks
constexpr double kLatencyLimit = 1.0;  // s, the scheduler's default p99 SLO

struct Inputs {
  std::vector<core::FlightScenario> scenarios;
  double duration = 60.0;
  double pace = 4.0;  // x real time
  int calibration_flights = 10;
  double calibration_seconds = 40.0;
};

Inputs make_inputs(const Options& opt) {
  Inputs in;
  const int sessions = opt.tiny ? 3 : 8;
  if (opt.tiny) {
    in.duration = 12.0;
    in.pace = 20.0;
    in.calibration_flights = 2;
    in.calibration_seconds = 12.0;
  }
  for (int i = 0; i < sessions; ++i) {
    switch (i % 3) {
      case 0: in.scenarios.push_back(bench::benign_scenario(i, in.duration)); break;
      case 1: in.scenarios.push_back(bench::gps_attack_scenario(i, in.duration)); break;
      default: in.scenarios.push_back(bench::imu_attack_scenario(i, in.duration)); break;
    }
  }
  return in;
}

struct Setup {
  std::vector<core::Flight> flights;
  std::vector<acoustics::MultiChannelAudio> audio;  // one continuous render each
  std::vector<double> render_task_s;
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
  {
    Scoped span{tracer, "acoustics.render"};
    const std::size_t n = s.flights.size();
    s.audio.resize(n);
    s.render_task_s.assign(n, 0.0);
    util::parallel_for(
        n,
        [&](std::size_t i) {
          const double t0 = now_seconds();
          const core::Flight& f = s.flights[i];
          s.audio[i] = bench::lab().synthesizer(f).synthesize(f.log, 0.0, in.duration);
          s.render_task_s[i] = now_seconds() - t0;
        },
        /*grain=*/1);
  }
  return s;
}

// One session's feed cursors into its pre-rendered streams.
struct Cursor {
  std::size_t audio = 0;
  std::size_t imu = 0;
  std::size_t gps = 0;
};

// Pushes everything with t < until that has not been pushed yet.
void push_until(stream::RcaSession& session, const core::Flight& flight,
                const acoustics::MultiChannelAudio& audio, Cursor& c, double until) {
  const auto upto = static_cast<std::size_t>(std::min(
      until * audio.sample_rate, static_cast<double>(audio.num_samples())));
  if (upto > c.audio) {
    acoustics::MultiChannelAudio chunk;
    chunk.sample_rate = audio.sample_rate;
    for (std::size_t ch = 0; ch < sensors::kNumMics; ++ch)
      chunk.channels[ch].assign(audio.channels[ch].begin() + c.audio,
                                audio.channels[ch].begin() + upto);
    session.push_audio(chunk);
    c.audio = upto;
  }
  const auto& imu = flight.log.imu;
  std::size_t i = c.imu;
  while (i < imu.size() && imu[i].t < until) ++i;
  session.push_imu(std::span{imu}.subspan(c.imu, i - c.imu));
  c.imu = i;
  const auto& gps = flight.log.gps;
  std::size_t g = c.gps;
  while (g < gps.size() && gps[g].t < until) ++g;
  session.push_gps(std::span{gps}.subspan(c.gps, g - c.gps));
  c.gps = g;
}

// Busy-waits until `due`.  Sleeping between ticks let the host hand the
// idle vCPU to other guests, and the serving loop came back to cold caches:
// its capacity swung between ~65x and ~90x from run to run.
void wait_until(double due) {
  while (now_seconds() < due) {
  }
}

core::TimedPrediction nan_prediction(const core::WindowSpan& span) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return {span.t0, span.t1, Vec3{nan, nan, nan}, Vec3{nan, nan, nan}};
}

enum class Driver {
  kPump,   // InferenceScheduler::pump() once per tick
  kSteps,  // the scheduler's documented steps, each call spanned
};

struct DriveResult {
  std::vector<core::RcaReport> reports;
  std::vector<double> latency_s;     // per window, from its chunk's due time
  std::vector<double> queue_wait_s;  // due time -> take_ready (kSteps)
  std::vector<double> lag_s;         // per tick, wake-up minus due time
  double busy_s = 0.0;
  double wall_s = 0.0;
  std::size_t staged = 0, shed = 0, thinned = 0, late = 0;
  std::size_t batches = 0, batch_rows = 0, prepared = 0, delivered = 0;
  // Mid-flight checkpoint/restore (when requested).
  std::vector<double> checkpoint_ms, restore_ms, state_bytes;
};

// The kSteps replacement for pump(): collect in ascending session id, shed
// the oldest beyond the queue bound, retire thinned windows, run at most
// max_batch windows through one predict_prepared and deliver in order.
class Stepper {
 public:
  Stepper(const core::SensoryMapper& mapper, Tracer& tracer)
      : mapper_(mapper), tracer_(tracer) {}

  // Returns the number of windows retired (inferred, shed or thinned).
  template <typename DueOf>
  std::size_t step(std::vector<std::unique_ptr<stream::RcaSession>>& sessions,
                   DriveResult& r, DueOf&& due_of) {
    for (auto& s : sessions) {
      std::vector<stream::RcaSession::ReadyWindow> ready;
      {
        Scoped span{tracer_, "signature.prepare", s->id()};
        ready = s->take_ready();
      }
      const double taken = now_seconds();
      for (auto& w : ready) {
        if (!w.thinned) ++r.prepared;
        r.queue_wait_s.push_back(taken - due_of(w.session, w.seq));
        queue_.push_back(std::move(w));
      }
    }
    std::size_t retired = 0;
    while (queue_.size() > config_.queue_capacity) {
      deliver(sessions, queue_.front(), nan_prediction(queue_.front().span));
      queue_.pop_front();
      ++r.shed;
      ++retired;
    }
    std::vector<stream::RcaSession::ReadyWindow> batch;
    std::vector<ml::Tensor> sigs;
    std::vector<core::WindowSpan> spans;
    while (batch.size() < config_.max_batch && !queue_.empty()) {
      stream::RcaSession::ReadyWindow w = std::move(queue_.front());
      queue_.pop_front();
      if (w.thinned) {
        deliver(sessions, w, nan_prediction(w.span));
        ++r.thinned;
        ++retired;
        continue;
      }
      sigs.push_back(std::move(w.signature));
      spans.push_back(w.span);
      batch.push_back(std::move(w));
    }
    if (batch.empty()) return retired;
    std::vector<core::TimedPrediction> preds;
    {
      Scoped span{tracer_, "ml.forward", r.batches};
      preds = mapper_.predict_prepared(sigs, spans);
    }
    ++r.batches;
    r.batch_rows += batch.size();
    for (std::size_t i = 0; i < batch.size(); ++i) deliver(sessions, batch[i], preds[i]);
    return retired + batch.size();
  }

 private:
  void deliver(std::vector<std::unique_ptr<stream::RcaSession>>& sessions,
               const stream::RcaSession::ReadyWindow& w,
               const core::TimedPrediction& pred) {
    Scoped span{tracer_, "detect.deliver", (w.session << 32) | w.seq};
    sessions[w.session]->deliver(pred);
  }

  const core::SensoryMapper& mapper_;
  Tracer& tracer_;
  const stream::InferenceSchedulerConfig config_{};
  std::deque<stream::RcaSession::ReadyWindow> queue_;
};

// Drives every session through the whole flight.  Paced drives wait until
// each tick's scheduled send time; unpaced ones replay the same push/pump
// pattern as fast as possible (same verdicts, no latency figures).  With
// `checkpoint_dir`, every session is checkpointed after the middle tick
// (scheduler drained first), restored into a fresh session and finished.
DriveResult drive(const Setup& s, const Inputs& in, Driver driver, bool paced,
                  Tracer& tracer, const std::filesystem::path* checkpoint_dir = nullptr) {
  const std::size_t n = s.flights.size();
  const core::ImuRcaDetector& imu = s.detectors->imu;
  const core::GpsRcaDetector& gps = s.detectors->gps;
  std::vector<std::unique_ptr<stream::RcaSession>> sessions;
  for (std::size_t i = 0; i < n; ++i)
    sessions.push_back(std::make_unique<stream::RcaSession>(i, *s.mapper, imu, gps));
  stream::InferenceScheduler scheduler{*s.mapper};
  for (auto& session : sessions) scheduler.attach(*session);
  Stepper stepper{*s.mapper, tracer};

  std::vector<Cursor> cursors(n);
  std::vector<std::vector<std::size_t>> staged_tick(n);  // [session][seq]
  std::vector<std::size_t> delivered(n, 0);
  const auto feed_ticks = static_cast<std::size_t>(std::ceil(in.duration / kTick - 1e-9));
  const std::size_t ticks = feed_ticks + std::min(n, kStagger) - 1;
  const double period = kTick / in.pace;
  DriveResult r;

  const double start = now_seconds();
  auto due = [&](std::size_t tick) { return start + static_cast<double>(tick) * period; };
  auto due_of = [&](std::uint64_t session, std::uint64_t seq) {
    return due(staged_tick[session][seq]);
  };
  // Windows delivered since the last call get their latency from due time.
  auto account = [&](double now) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t d = sessions[i]->windows_delivered();
      for (; delivered[i] < d; ++delivered[i]) {
        if (!paced) continue;
        const double latency = now - due_of(i, delivered[i]);
        r.latency_s.push_back(latency);
        if (latency > kLatencyLimit) ++r.late;
      }
    }
  };
  auto pump_round = [&] {
    if (driver == Driver::kPump) return scheduler.pump();
    return stepper.step(sessions, r, due_of);
  };

  for (std::size_t k = 1; k <= ticks; ++k) {
    if (paced) wait_until(due(k));
    const double wake = now_seconds();
    if (paced) r.lag_s.push_back(std::max(0.0, wake - due(k)));
    {
      Scoped tick_span{tracer, "stream.tick", k};
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t offset = i % kStagger;
        if (k <= offset) continue;
        const double until =
            std::min(static_cast<double>(k - offset) * kTick, in.duration);
        {
          Scoped span{tracer, "stream.push", i};
          push_until(*sessions[i], s.flights[i], s.audio[i], cursors[i], until);
        }
        staged_tick[i].resize(sessions[i]->windows_staged(), k);
      }
      pump_round();
      account(now_seconds());
      for (auto& session : sessions) session->poll_verdicts();
    }
    r.busy_s += now_seconds() - wake;

    if (checkpoint_dir != nullptr && k == ticks / 2) {
      // Quiesce, checkpoint, restore into fresh sessions, re-attach.
      if (driver == Driver::kPump) scheduler.drain();
      else while (stepper.step(sessions, r, due_of) > 0) {}
      account(now_seconds());
      for (std::size_t i = 0; i < n; ++i) {
        const std::string path =
            (*checkpoint_dir / ("session_" + std::to_string(i) + ".sbsess")).string();
        double t0 = now_seconds();
        if (!sessions[i]->checkpoint(path))
          throw std::runtime_error{"cannot write checkpoint " + path};
        r.checkpoint_ms.push_back(1e3 * (now_seconds() - t0));
        r.state_bytes.push_back(static_cast<double>(std::filesystem::file_size(path)));
        scheduler.detach(*sessions[i]);
        t0 = now_seconds();
        auto restored = stream::RcaSession::restore(path, *s.mapper, imu, gps);
        r.restore_ms.push_back(1e3 * (now_seconds() - t0));
        if (!restored) throw std::runtime_error{"cannot restore checkpoint " + path};
        sessions[i] = std::move(restored);
        scheduler.attach(*sessions[i]);
      }
    }
  }
  {
    const double t0 = now_seconds();
    Scoped tick_span{tracer, "stream.tick", ticks + 1};
    if (driver == Driver::kPump) scheduler.drain();
    else while (stepper.step(sessions, r, due_of) > 0) {}
    account(now_seconds());
    r.busy_s += now_seconds() - t0;
  }
  r.wall_s = now_seconds() - start;
  if (driver == Driver::kPump) {
    r.shed = scheduler.windows_shed();
    r.thinned = scheduler.windows_thinned();
    r.batches = scheduler.batches_run();
    r.batch_rows = scheduler.windows_inferred();
  }
  for (auto& session : sessions) {
    r.staged += session->windows_staged();
    r.delivered += session->windows_delivered();
    r.reports.push_back(session->finish());
  }
  return r;
}

}  // namespace

Outcome run_stream_serve(const Options& opt) {
  const std::string model = provision_model(opt, kSetupWorkers);
  const Inputs in = make_inputs(opt);
  bench::BenchReport report{std::string{"perfbench_stream_serve"} +
                            (opt.trace ? "_trace" : "")};
  Tracer tracer{opt.trace};

  util::ThreadPool::set_threads(kSetupWorkers);
  const double setup_start = now_seconds();
  const Setup s = set_up(opt, in, model, tracer);
  const double setup_s = now_seconds() - setup_start;
  reset_peak_rss();

  util::ThreadPool::set_threads(kServeWorkers);
  Tracer off{false};
  const DriveResult timed = drive(s, in, Driver::kPump, /*paced=*/true, off);
  const double peak_rss = peak_rss_mib();

  Outcome out;
  auto same_reports = [&](const DriveResult& a, const char* what) {
    for (std::size_t i = 0; i < a.reports.size(); ++i)
      out.check(same_report(a.reports[i], timed.reports[i]),
                std::string{what} + ": session " + std::to_string(i) +
                    " report differs from the pump() run");
  };
  const Detection detection = score(in.scenarios, timed.reports);
  const double stream_seconds = static_cast<double>(s.flights.size()) * in.duration;
  out.attempted = timed.staged;
  out.failed = timed.shed + timed.thinned + timed.late;

  Values values;
  if (!opt.trace) {
    // Untimed equivalence replay of the documented steps.
    same_reports(drive(s, in, Driver::kSteps, /*paced=*/false, off), "step replay");
    values["setup_s"] = setup_s;
    values["throughput_rtf"] = stream_seconds / timed.busy_s;
    values["latency_p50_ms"] = 1e3 * quantile(timed.latency_s, 0.5);
    values["latency_p90_ms"] = 1e3 * quantile(timed.latency_s, 0.9);
    values["peak_rss_mb"] = peak_rss;
    values["ok_ratio"] =
        1.0 - static_cast<double>(out.failed) / static_cast<double>(out.attempted);
    out.emit(values, false);
    out.note("tpr", detection.tpr, "ratio");
    out.note("fpr", detection.fpr, "ratio");
    out.note("failed_ratio", 1.0 - values["ok_ratio"], "ratio");
    out.note("offered_stream_s_per_s",
             static_cast<double>(s.flights.size()) * in.pace, "stream-s/s");
    out.note("latency_samples", static_cast<double>(timed.latency_s.size()), "count");
  } else {
    ProgramCounters counters;
    const DriveResult traced = drive(s, in, Driver::kSteps, /*paced=*/true, tracer);
    counters.finish(values, traced.prepared);
    const double prepared = static_cast<double>(std::max<std::size_t>(traced.prepared, 1));
    same_reports(traced, "traced step drive");

    const std::filesystem::path dir = opt.work_dir / "checkpoints";
    std::filesystem::create_directories(dir);
    const DriveResult resumed = drive(s, in, Driver::kPump, /*paced=*/false, off, &dir);
    same_reports(resumed, "checkpoint/restore drive");

    double render_task_s = 0.0;
    for (double t : s.render_task_s) render_task_s += t;
    const double frames = static_cast<double>(s.audio.size()) *
                          static_cast<double>(s.audio.front().num_samples());
    values["sim.fly_s"] = tracer.total_seconds("sim.fly");
    values["ml.model_load_s"] = tracer.total_seconds("ml.model_load");
    values["core.calibrate_s"] = tracer.total_seconds("core.calibrate");
    values["acoustics.render_s"] = tracer.total_seconds("acoustics.render");
    values["acoustics.render_ns_per_sample"] = 1e9 * render_task_s / frames;
    values["stream.push_s"] = tracer.self_seconds("stream.push");
    values["signature.prepare_s"] = tracer.self_seconds("signature.prepare");
    values["signature.us_per_window"] = 1e6 * values["signature.prepare_s"] / prepared;
    values["ml.forward_s"] = tracer.self_seconds("ml.forward");
    values["ml.forward_batches"] = static_cast<double>(traced.batches);
    values["ml.batch_rows_mean"] =
        static_cast<double>(traced.batch_rows) /
        static_cast<double>(std::max<std::size_t>(traced.batches, 1));
    values["detect.deliver_s"] = tracer.self_seconds("detect.deliver");
    values["detect.us_per_window"] =
        1e6 * values["detect.deliver_s"] /
        static_cast<double>(std::max<std::size_t>(traced.delivered, 1));
    values["stream.queue_wait_ms_p50"] = 1e3 * quantile(traced.queue_wait_s, 0.5);
    values["stream.busy_ratio"] = traced.busy_s / traced.wall_s;
    values["stream.generator_lag_ms_p50"] = 1e3 * quantile(traced.lag_s, 0.5);
    values["stream.generator_lag_ms_max"] = 1e3 * quantile(traced.lag_s, 1.0);
    values["stream.windows_staged"] = static_cast<double>(traced.staged);
    values["stream.windows_shed"] = static_cast<double>(traced.shed);
    values["stream.windows_thinned"] = static_cast<double>(traced.thinned);
    values["stream.checkpoint_ms"] = quantile(resumed.checkpoint_ms, 0.5);
    values["stream.restore_ms"] = quantile(resumed.restore_ms, 0.5);
    values["stream.state_bytes"] = quantile(resumed.state_bytes, 0.5);
    values["core.tpr"] = detection.tpr;
    values["core.fpr"] = detection.fpr;
    values["trace.overhead_s"] = traced.busy_s - timed.busy_s;
    const double ticks = tracer.total_seconds("stream.tick");
    values["trace.coverage"] =
        ticks > 0.0 ? 1.0 - tracer.self_seconds("stream.tick") / ticks : 0.0;
    out.emit(values, true);
    tracer.write_json(opt.work_dir / "SPANS_stream_serve.json");
  }
  add_provenance(report, opt, kSetupWorkers, kServeWorkers);
  report.metric("sessions", static_cast<double>(s.flights.size()));
  report.metric("flight_seconds", in.duration);
  report.metric("pace", in.pace);
  report.metric("latency_samples", static_cast<double>(timed.latency_s.size()));
  for (const auto& m : out.metrics) report.metric(m.name, m.value);
  report.flush();
  return out;
}

}  // namespace sb::perfbench
