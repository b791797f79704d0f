#include "stream/rca_session.hpp"

#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"

namespace sb::stream {

RcaSession::RcaSession(std::uint64_t id, const core::SensoryMapper& mapper,
                       const core::ImuRcaDetector& imu_detector,
                       const core::GpsRcaDetector& gps_detector,
                       const RcaSessionConfig& config)
    : id_(id),
      mapper_(&mapper),
      config_(config),
      extractor_({.settle = mapper.config().dataset.settle_time,
                  .stride = mapper.config().dataset.stride,
                  .window_seconds =
                      mapper.config().dataset.signature.window_seconds}),
      monitor_(imu_detector, gps_detector) {
  if (!mapper.trained())
    throw std::logic_error{"RcaSession: mapper not trained"};
  if (obs::recorder_enabled())
    recorder_ = std::make_unique<obs::FlightRecorder>(id, config.recorder_dir);
  // Pay serving's one-time costs (FFT plan, window coefficients) now rather
  // than inside the first window's latency.
  mapper.warm_serving();
}

void RcaSession::push_audio(const acoustics::MultiChannelAudio& chunk) {
  if (finished_) throw std::logic_error{"RcaSession: push after finish"};
  obs::ScopedSpan span{"session_push_audio", obs::Stage::kPredict};
  if (recorder_)
    recorder_->record({obs::RecorderEvent::Kind::kChunk, false, audio_chunks_,
                       obs::now_us(), 0.0,
                       static_cast<double>(chunk.num_samples()), 0.0});
  ++audio_chunks_;
  for (auto& w : extractor_.push(chunk)) {
    // Stage the raw slice only; signature preparation (the expensive part of
    // serving) is deferred to take_ready() so it runs on the pump thread —
    // in a fleet, the shard's worker — keeping scratch-pool allocations
    // thread-local.  Thinned windows (degraded evidence) skip it entirely.
    const bool thinned =
        config_.evidence_stride > 1 && next_seq_ % config_.evidence_stride != 0;
    ReadyWindow rw;
    rw.session = id_;
    rw.seq = next_seq_++;
    rw.span = {w.t0, w.t1};
    rw.audio = std::move(w.audio);
    rw.thinned = thinned;
    rw.ready_at_us = obs::now_us();
    ++health_.windows_total;
    ready_.push_back(std::move(rw));
  }
}

void RcaSession::prepare_window(ReadyWindow& w) {
  // Extraction, hooks, channel diagnosis + masking, standardization — the
  // exact per-window path the offline predict_windows runs.
  std::array<bool, sensors::kNumMics> healthy{};
  w.signature =
      mapper_->prepare_signature(w.audio, config_.hooks, &healthy, w.span.t0);
  w.audio = {};
  const std::size_t masked = health_.add_window_mask(healthy);
  if (recorder_) {
    const bool any_masked = masked > 0;
    recorder_->record({obs::RecorderEvent::Kind::kWindow, any_masked, w.seq,
                       w.ready_at_us, w.span.t1, static_cast<double>(masked),
                       0.0});
    if (any_masked) {
      recorder_->record({obs::RecorderEvent::Kind::kDegrade, true, w.seq,
                         w.ready_at_us, w.span.t1,
                         static_cast<double>(health_.windows_degraded), 0.0});
      recorder_->trigger("health_degraded");
    }
  }
}

void RcaSession::push_imu(std::span<const sim::ImuSample> samples) {
  if (finished_) throw std::logic_error{"RcaSession: push after finish"};
  monitor_.push_imu(samples);
}

void RcaSession::push_gps(std::span<const sim::GpsSample> samples) {
  if (finished_) throw std::logic_error{"RcaSession: push after finish"};
  monitor_.push_gps(samples);
}

std::vector<RcaSession::ReadyWindow> RcaSession::take_ready() {
  auto out = std::exchange(ready_, {});
  for (auto& w : out)
    if (!w.thinned) prepare_window(w);
  return out;
}

void RcaSession::emit_imu_decisions(std::size_t begin, double decided_at) {
  const auto& decisions = monitor_.imu_decisions();
  for (std::size_t i = begin; i < decisions.size(); ++i) {
    const core::ImuWindowDecision& d = decisions[i];
    VerdictEvent e;
    e.kind = VerdictEvent::Kind::kImuWindow;
    e.decided_at = decided_at;
    e.imu_attacked = monitor_.imu_attacked();
    e.imu = d;
    if (recorder_) {
      recorder_->record({obs::RecorderEvent::Kind::kImuVerdict, d.alert, i,
                         obs::now_us(), d.t1, d.score, d.threshold});
      if (d.alert) recorder_->trigger("imu_alert");
    }
    events_.push_back(e);
  }
}

void RcaSession::deliver(const core::TimedPrediction& pred) {
  if (finished_) throw std::logic_error{"RcaSession: deliver after finish"};
  if (delivered_ >= next_seq_)
    throw std::logic_error{"RcaSession: deliver without a staged window"};
  ++delivered_;
  last_t1_ = pred.t1;

  const auto delivery = monitor_.deliver(pred);
  emit_imu_decisions(delivery.imu_begin, pred.t1);
  const auto& fixes = monitor_.gps_decisions(delivery.gps_mode);
  for (std::size_t i = delivery.gps_begin; i < fixes.size(); ++i) {
    VerdictEvent e;
    e.kind = VerdictEvent::Kind::kGpsFix;
    e.decided_at = pred.t1;
    e.imu_attacked = monitor_.imu_attacked();
    e.gps_mode = delivery.gps_mode;
    e.gps = fixes[i];
    if (recorder_) {
      recorder_->record({obs::RecorderEvent::Kind::kGpsVerdict, e.gps.alert, i,
                         obs::now_us(), e.gps.t, e.gps.running_mean_err,
                         e.gps.pos_dev});
      if (e.gps.alert) recorder_->trigger("gps_alert");
    }
    events_.push_back(e);
  }
}

std::vector<VerdictEvent> RcaSession::poll_verdicts() {
  return std::exchange(events_, {});
}

core::RcaReport RcaSession::finish(core::RcaDecisionTrace* trace_out) {
  if (finished_) throw std::logic_error{"RcaSession: finish twice"};
  finished_ = true;
  const std::size_t imu_begin = monitor_.imu_decisions().size();
  const core::RcaReport report = monitor_.finish(health_, trace_out);
  emit_imu_decisions(imu_begin, last_t1_);
  // Attack verdict: the session's black box is the post-incident evidence —
  // always dump (force bypasses the rate-limit gap, not the dump bound).
  if (recorder_ && report.any_attack())
    recorder_->trigger("final_verdict", /*force=*/true);
  return report;
}

}  // namespace sb::stream
