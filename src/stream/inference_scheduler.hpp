// Micro-batching inference scheduler for multi-session serving.
//
// The scheduler coalesces ready windows from all attached sessions into ONE
// batched SensoryMapper forward per round, so the per-layer fixed costs of
// a forward are paid once per round instead of once per window.  Batching
// runs along the tensor's leading dimension inside a single forward, which
// is bitwise identical to per-window forwards (pinned by ml_test).  Eval
// forwards write no model state, so several schedulers (a fleet's shards)
// may pump on one mapper at once.
//
// Determinism: each round collects ready windows in ascending session-id
// order (each session's windows are already seq-ascending) into a FIFO
// queue, so batch composition is a pure function of the push pattern —
// never of wall-clock time or thread scheduling.
//
// Backpressure: the ready queue is bounded.  When it overflows, the OLDEST
// queued windows are shed — their deadline is the most blown — by delivering
// a NaN prediction, which the session routes through the pipeline's
// existing degradation paths (IMU window skip, GPS coast).  Overload
// therefore thins evidence instead of growing latency without bound, and
// every shed is counted (`stream.windows_shed`).
#pragma once

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

#include "core/sensory_mapper.hpp"
#include "obs/metrics.hpp"
#include "stream/rca_session.hpp"

namespace sb::stream {

// The serving SLO on window→verdict latency (seconds, staging to delivery,
// recorded in the "stream.window_to_verdict_seconds" histogram): p50 within
// one stride of the standard 4 Hz analysis grid, p99 within a second.  A
// delivery above kSloP99Seconds is a breach, counted in
// "stream.slo_breaches" and written to the session's black box.
inline constexpr double kSloP50Seconds = 0.25;
inline constexpr double kSloP99Seconds = 1.0;

struct InferenceSchedulerConfig {
  std::size_t max_batch = 16;       // windows per forward
  std::size_t queue_capacity = 64;  // bound on staged-but-uninferred windows
  // When non-empty (e.g. "stream.shard0"), this scheduler ALSO maintains
  // scoped copies of its counters and gauges under "<scope>.<name>" —
  // per-shard shed/throughput accounting on top of the fleet-wide
  // "stream.*" totals.  Scoped gauges replace the global ones (concurrent
  // shards would race-overwrite a shared gauge); counters and histograms
  // are parallel-safe and always feed the global instruments too.
  std::string metric_scope{};
};

class InferenceScheduler {
 public:
  InferenceScheduler(const core::SensoryMapper& mapper,
                     const InferenceSchedulerConfig& config = {});

  // Registers a session (ids must be unique; kept sorted ascending).
  void attach(RcaSession& session);

  // Unregisters a session — the migration half of checkpoint/restore (a
  // restored session attaches to whichever shard its id maps to).  Throws
  // invalid_argument for an unknown id and logic_error while the session
  // still has in-flight windows (staged but undelivered): drain first, or
  // the queued windows would dangle.
  void detach(RcaSession& session);

  // One scheduling round: collect ready windows, shed the oldest beyond the
  // queue bound, deliver thinned windows, run at most one batched forward
  // and deliver its predictions.  Returns the number of windows inferred
  // this round (thinned/shed deliveries retire windows without counting).
  std::size_t pump();

  // Pumps until a round makes no progress (no window inferred, shed or
  // thinned) — i.e. no session has ready windows and the queue is empty.
  // The loop is bounded: at entry the outstanding work is snapshotted
  // (`max_retired` overrides the snapshot when non-zero), and a session
  // that keeps producing new windows mid-drain — which no well-behaved
  // session can, as nothing pushes sensor data during a drain — aborts the
  // loop with an obs error and a `stream.drain_aborts` count instead of
  // spinning forever.  Returns true when fully drained.
  bool drain(std::size_t max_retired = 0);

  std::size_t backlog() const { return queue_.size(); }
  std::size_t windows_shed() const { return shed_; }
  std::size_t windows_thinned() const { return thinned_; }
  std::size_t windows_inferred() const { return inferred_; }
  std::size_t batches_run() const { return batches_; }
  std::size_t sessions_attached() const { return sessions_.size(); }
  const InferenceSchedulerConfig& config() const { return config_; }

 private:
  enum class Delivery { kInferred, kShed, kThinned };

  void collect();
  void shed_excess();
  void update_active_gauge();
  void deliver(RcaSession::ReadyWindow&& window,
               const core::TimedPrediction& pred, Delivery how);

  const core::SensoryMapper* mapper_;
  InferenceSchedulerConfig config_;
  std::vector<RcaSession*> sessions_;  // ascending id
  std::deque<RcaSession::ReadyWindow> queue_;
  std::size_t shed_ = 0;
  std::size_t thinned_ = 0;
  std::size_t inferred_ = 0;
  std::size_t batches_ = 0;

  // Global instruments (resolved once; registry lookups take a lock).
  obs::Counter* shed_count_;
  obs::Counter* thinned_count_;
  obs::Counter* submitted_count_;
  obs::Counter* batches_count_;
  obs::Histogram* occupancy_hist_;
  obs::Histogram* latency_hist_;
  obs::Counter* slo_breach_count_;
  obs::Gauge* active_gauge_;   // scoped when metric_scope is set
  obs::Gauge* backlog_gauge_;  // scoped when metric_scope is set
  // Scoped counter copies (null without a metric_scope).
  obs::Counter* scoped_shed_ = nullptr;
  obs::Counter* scoped_thinned_ = nullptr;
  obs::Counter* scoped_submitted_ = nullptr;
  obs::Counter* scoped_batches_ = nullptr;
};

}  // namespace sb::stream
