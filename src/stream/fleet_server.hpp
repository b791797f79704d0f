// Fleet-scale serving: RcaSessions sharded across per-shard inference
// schedulers, with admission control and crash-safe checkpoint/restore.
//
// Every shard serves the one trained mapper: eval forwards write no model
// state (ml/layer.hpp), so a pump() fans shards out across the thread pool
// and each shard runs its batched forwards on the shared model in parallel
// with the others.  Shard assignment is a pure function of the session id
// (shard_of: splitmix64(id) mod shards), never of load or arrival order, so
// batch composition per shard — and therefore every verdict — is
// bit-identical at any SB_THREADS and across checkpoint/restore migrations.
//
// Admission control: every session enters through admit(), which returns an
// explicit verdict.  A shard at its degrade watermark admits new sessions
// with a thinned evidence stride (every kDegradedEvidenceStride-th window
// inferred, the rest delivered as NaN — the detectors' existing degradation
// paths).  There is no hard cap: combined with the per-shard bounded queues
// (shedding), overload thins evidence instead of growing latency without
// bound or corrupting verdict ordering.
//
// Threading contract: ingestion (admit / find / push_* / poll) belongs to
// ONE driver thread; pump()/drain() parallelize internally over shards and
// join before returning, so driver-side code never races a shard worker.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stream/inference_scheduler.hpp"

namespace sb::stream {

// Evidence stride of a degraded admission: every second window is inferred.
inline constexpr std::size_t kDegradedEvidenceStride = 2;

struct FleetServerConfig {
  std::size_t num_shards = 4;
  // Degrade watermark: a session admitted to a shard already holding this
  // many is served with kDegradedEvidenceStride.  0 = never degrade.
  std::size_t degrade_sessions_per_shard = 0;
  // Per-shard scheduler settings (queue bound, batch).  The
  // fleet assigns each shard's metric_scope.
  InferenceSchedulerConfig scheduler;
  // Session settings for admitted sessions; evidence_stride is overridden
  // for degraded admissions and by restore() from the checkpoint.
  RcaSessionConfig session;
};

enum class Admission : std::uint8_t {
  kAdmitted = 0,  // full evidence
  kDegraded = 1,  // admitted with a thinned evidence stride
  kRejected = 2,  // checkpoint rejected by restore(): no session
};

const char* to_string(Admission verdict);

class FleetServer {
 public:
  // Detectors must be calibrated and the mapper trained.  The fleet holds
  // all three by reference, so they must outlive it.
  FleetServer(const core::SensoryMapper& mapper,
              const core::ImuRcaDetector& imu_detector,
              const core::GpsRcaDetector& gps_detector,
              const FleetServerConfig& config = {});

  // Deterministic shard assignment: a pure function of (id, num_shards) —
  // independent of load, arrival order and thread count.
  static std::size_t shard_of(std::uint64_t id, std::size_t num_shards);

  struct AdmissionResult {
    Admission verdict = Admission::kRejected;
    std::size_t shard = 0;
    RcaSession* session = nullptr;  // null when rejected
  };

  // Admits a new session under the admission policy above.  The returned
  // session pointer is owned by the fleet and stays valid until finish().
  AdmissionResult admit(std::uint64_t id);

  // The live session with this id, or nullptr.
  RcaSession* find(std::uint64_t id);

  // One serving round: every shard scheduler pumps once, in parallel across
  // the thread pool (all shards on the one mapper).  Returns the
  // number of windows inferred across all shards.  Also the fleet's
  // telemetry clock (one tick per round, outside the parallel region).
  std::size_t pump();

  // Drains every shard (see InferenceScheduler::drain).  Returns true when
  // all shards fully drained.
  bool drain();

  // Finishes a session: drains its shard, assembles the flight report,
  // detaches and destroys the session.
  core::RcaReport finish(std::uint64_t id,
                         core::RcaDecisionTrace* trace_out = nullptr);

  // Checkpoints one session to `path` (drains its shard first — checkpoints
  // require quiescence).  Returns false on I/O failure.
  bool checkpoint(std::uint64_t id, const std::string& path);

  // Drains everything and checkpoints every live session to
  // `dir`/SESSION_<id>.sbsess, creating `dir` (and its parents) first.
  // Returns the number written — 0, with a warning, when the directory
  // cannot be created.
  std::size_t checkpoint_all(const std::string& dir);

  // Restores a checkpointed session and attaches it to whichever shard its
  // id maps to — the migration path: the fleet it lands in may shard
  // differently than the one that wrote the file.  Malformed or mismatched
  // checkpoints are rejected loudly (kRejected, no session).  A checkpoint
  // of a session that is live here throws std::invalid_argument and
  // attaches nothing.
  AdmissionResult restore(const std::string& path);

  std::size_t num_shards() const { return shards_.size(); }
  std::size_t sessions_live() const;
  const InferenceScheduler& scheduler(std::size_t shard) const {
    return *shards_[shard].scheduler;
  }
  std::size_t windows_inferred() const;
  std::size_t windows_shed() const;
  std::size_t windows_thinned() const;

 private:
  struct Shard {
    std::unique_ptr<InferenceScheduler> scheduler;
    std::vector<std::unique_ptr<RcaSession>> sessions;
  };

  void update_global_gauges();

  FleetServerConfig config_;
  const core::SensoryMapper* mapper_;
  const core::ImuRcaDetector* imu_detector_;
  const core::GpsRcaDetector* gps_detector_;
  std::vector<Shard> shards_;
  obs::Counter* admitted_count_;
  obs::Counter* degraded_count_;
  obs::Counter* restored_count_;
};

}  // namespace sb::stream
