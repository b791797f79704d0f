#include "stream/inference_scheduler.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/log.hpp"
#include "obs/recorder.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace sb::stream {
namespace {

core::TimedPrediction shed_prediction(const core::WindowSpan& span) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return {span.t0, span.t1, Vec3{nan, nan, nan}, Vec3{nan, nan, nan}};
}

}  // namespace

InferenceScheduler::InferenceScheduler(const core::SensoryMapper& mapper,
                                       const InferenceSchedulerConfig& config)
    : mapper_(&mapper), config_(config) {
  if (config_.max_batch == 0 || config_.queue_capacity == 0)
    throw std::invalid_argument{"InferenceScheduler: zero batch/capacity"};
  auto& reg = obs::Registry::instance();
  shed_count_ = &reg.counter("stream.windows_shed");
  thinned_count_ = &reg.counter("stream.windows_thinned");
  submitted_count_ = &reg.counter("stream.windows_submitted");
  batches_count_ = &reg.counter("stream.batches");
  occupancy_hist_ = &reg.histogram("stream.batch_occupancy");
  latency_hist_ = &reg.histogram("stream.window_to_verdict_seconds");
  slo_breach_count_ = &reg.counter("stream.slo_breaches");
  if (config_.metric_scope.empty()) {
    active_gauge_ = &reg.gauge("stream.sessions_active");
    backlog_gauge_ = &reg.gauge("stream.backlog");
  } else {
    const std::string& scope = config_.metric_scope;
    active_gauge_ = &reg.gauge(scope + ".sessions_active");
    backlog_gauge_ = &reg.gauge(scope + ".backlog");
    scoped_shed_ = &reg.counter(scope + ".windows_shed");
    scoped_thinned_ = &reg.counter(scope + ".windows_thinned");
    scoped_submitted_ = &reg.counter(scope + ".windows_submitted");
    scoped_batches_ = &reg.counter(scope + ".batches");
  }
}

void InferenceScheduler::update_active_gauge() {
  active_gauge_->set(static_cast<double>(
      std::count_if(sessions_.begin(), sessions_.end(),
                    [](const RcaSession* s) { return !s->finished(); })));
}

void InferenceScheduler::attach(RcaSession& session) {
  const auto pos = std::lower_bound(
      sessions_.begin(), sessions_.end(), session.id(),
      [](const RcaSession* s, std::uint64_t id) { return s->id() < id; });
  if (pos != sessions_.end() && (*pos)->id() == session.id())
    throw std::invalid_argument{"InferenceScheduler: duplicate session id"};
  sessions_.insert(pos, &session);
  update_active_gauge();
}

void InferenceScheduler::detach(RcaSession& session) {
  const auto pos = std::lower_bound(
      sessions_.begin(), sessions_.end(), session.id(),
      [](const RcaSession* s, std::uint64_t id) { return s->id() < id; });
  if (pos == sessions_.end() || *pos != &session)
    throw std::invalid_argument{"InferenceScheduler: detach of unknown session"};
  if (session.windows_staged() != session.windows_delivered())
    throw std::logic_error{
        "InferenceScheduler: detach with in-flight windows — drain first"};
  sessions_.erase(pos);
  update_active_gauge();
}

void InferenceScheduler::collect() {
  // Ascending session id, each session seq-ascending: queue order (and thus
  // batch composition) is a pure function of the push pattern.
  for (RcaSession* s : sessions_)
    for (auto& w : s->take_ready()) queue_.push_back(std::move(w));
}

void InferenceScheduler::shed_excess() {
  while (queue_.size() > config_.queue_capacity) {
    RcaSession::ReadyWindow w = std::move(queue_.front());
    queue_.pop_front();
    ++shed_;
    shed_count_->add();
    if (scoped_shed_) scoped_shed_->add();
    const core::TimedPrediction pred = shed_prediction(w.span);
    deliver(std::move(w), pred, Delivery::kShed);
  }
}

void InferenceScheduler::deliver(RcaSession::ReadyWindow&& window,
                                 const core::TimedPrediction& pred,
                                 Delivery how) {
  const auto it = std::lower_bound(
      sessions_.begin(), sessions_.end(), window.session,
      [](const RcaSession* s, std::uint64_t id) { return s->id() < id; });
  if (it == sessions_.end() || (*it)->id() != window.session)
    throw std::logic_error{"InferenceScheduler: window from unknown session"};
  RcaSession& session = **it;
  session.deliver(pred);
  // One record per window, amortized over a model forward — not a hot loop,
  // so the latency histogram stays unconditionally accurate for serving
  // dashboards and bench percentiles.
  const double now = obs::now_us();
  const double seconds = (now - window.ready_at_us) * 1e-6;
  latency_hist_->record(seconds);
  const bool breach = seconds > kSloP99Seconds;
  if (breach) slo_breach_count_->add();
  if (obs::FlightRecorder* rec = session.recorder()) {
    switch (how) {
      case Delivery::kShed:
        rec->record({obs::RecorderEvent::Kind::kShed, true, window.seq, now,
                     window.span.t1, static_cast<double>(queue_.size()), 0.0});
        rec->trigger("shed");
        break;
      case Delivery::kThinned:
        rec->record({obs::RecorderEvent::Kind::kThinned, false, window.seq,
                     now, window.span.t1, static_cast<double>(window.seq),
                     0.0});
        break;
      case Delivery::kInferred:
        rec->record({obs::RecorderEvent::Kind::kDeliver, false, window.seq,
                     now, window.span.t1, seconds, 0.0});
        break;
    }
    if (breach) {
      rec->record({obs::RecorderEvent::Kind::kSloBreach, true, window.seq, now,
                   window.span.t1, seconds, kSloP99Seconds});
      rec->trigger("slo_breach");
    }
  }
}

std::size_t InferenceScheduler::pump() {
  obs::ScopedSpan span{"scheduler_pump", obs::Stage::kPredict};
  // The pump loop is the serving heartbeat, so it doubles as the telemetry
  // clock: one relaxed atomic load when SB_TELEMETRY is unset.  Fleet
  // shards pumped on pool workers leave ticking to the fleet's own round.
  // Shards pumped inline (one shard, or SB_THREADS=1) tick too, one after
  // another, so when the export interval ends partway through a round the
  // sample is written between two shard pumps.
  if (!util::ThreadPool::in_parallel_region()) obs::telemetry_tick();
  update_active_gauge();
  collect();
  shed_excess();
  if (queue_.empty()) {
    backlog_gauge_->set(0.0);
    return 0;
  }

  // Build the batch from the queue front.  Thinned windows (degraded
  // evidence stride) never reach the model: they retire right here as NaN
  // deliveries WITHOUT consuming a batch slot — but they still flow through
  // the queue, because delivery is strictly seq-ordered per session and a
  // thinned window may sit behind un-inferred older ones.
  std::vector<RcaSession::ReadyWindow> batch;
  std::vector<ml::Tensor> sigs;
  std::vector<core::WindowSpan> spans;
  batch.reserve(config_.max_batch);
  sigs.reserve(config_.max_batch);
  spans.reserve(config_.max_batch);
  while (batch.size() < config_.max_batch && !queue_.empty()) {
    RcaSession::ReadyWindow w = std::move(queue_.front());
    queue_.pop_front();
    if (w.thinned) {
      ++thinned_;
      thinned_count_->add();
      if (scoped_thinned_) scoped_thinned_->add();
      const core::TimedPrediction pred = shed_prediction(w.span);
      deliver(std::move(w), pred, Delivery::kThinned);
      continue;
    }
    batch.push_back(std::move(w));
    sigs.push_back(std::move(batch.back().signature));
    spans.push_back(batch.back().span);
  }
  const std::size_t n = batch.size();
  if (n > 0) {
    const auto preds = mapper_->predict_prepared(sigs, spans);
    for (std::size_t i = 0; i < n; ++i)
      deliver(std::move(batch[i]), preds[i], Delivery::kInferred);
    inferred_ += n;
    ++batches_;
    submitted_count_->add(n);
    if (scoped_submitted_) scoped_submitted_->add(n);
    batches_count_->add();
    if (scoped_batches_) scoped_batches_->add();
    occupancy_hist_->record(static_cast<double>(n));
  }
  backlog_gauge_->set(static_cast<double>(queue_.size()));
  return n;
}

bool InferenceScheduler::drain(std::size_t max_retired) {
  // Outstanding work at entry: queued windows plus everything staged but
  // not yet delivered inside the sessions.  Nothing pushes sensor data
  // while draining, so retiring more than this means a session is
  // generating windows from thin air — a bug worth failing loudly on
  // rather than spinning the serving loop forever.
  std::size_t budget = max_retired;
  if (budget == 0) {
    budget = queue_.size();
    for (const RcaSession* s : sessions_)
      budget += s->windows_staged() - s->windows_delivered();
  }
  std::size_t retired_total = 0;
  while (true) {
    const std::size_t before = inferred_ + shed_ + thinned_;
    pump();
    const std::size_t retired = inferred_ + shed_ + thinned_ - before;
    if (retired == 0) return true;
    retired_total += retired;
    if (retired_total > budget) {
      obs::logf(obs::LogLevel::kError, "stream",
                "InferenceScheduler: drain aborted after retiring %zu windows "
                "(budget %zu) — a session keeps producing mid-drain",
                retired_total, budget);
      obs::Registry::instance().counter("stream.drain_aborts").add();
      return false;
    }
  }
}

}  // namespace sb::stream
