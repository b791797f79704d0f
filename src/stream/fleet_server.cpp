#include "stream/fleet_server.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "obs/log.hpp"
#include "obs/recorder.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace sb::stream {
namespace {

// splitmix64 finalizer: decorrelates shard choice from id patterns (fleet
// ids are often dense ranges, which id % shards would stripe degenerately).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* to_string(Admission verdict) {
  switch (verdict) {
    case Admission::kAdmitted:
      return "admitted";
    case Admission::kDegraded:
      return "degraded";
    case Admission::kRejected:
      return "rejected";
  }
  return "admission";
}

std::size_t FleetServer::shard_of(std::uint64_t id, std::size_t num_shards) {
  if (num_shards <= 1) return 0;
  return static_cast<std::size_t>(mix64(id) %
                                  static_cast<std::uint64_t>(num_shards));
}

FleetServer::FleetServer(const core::SensoryMapper& mapper,
                         const core::ImuRcaDetector& imu_detector,
                         const core::GpsRcaDetector& gps_detector,
                         const FleetServerConfig& config)
    : config_(config),
      mapper_(&mapper),
      imu_detector_(&imu_detector),
      gps_detector_(&gps_detector) {
  if (config_.num_shards == 0)
    throw std::invalid_argument{"FleetServer: zero shards"};
  if (!mapper.trained())
    throw std::logic_error{"FleetServer: mapper not trained"};
  auto& reg = obs::Registry::instance();
  admitted_count_ = &reg.counter("stream.shard.admitted");
  degraded_count_ = &reg.counter("stream.shard.degraded");
  restored_count_ = &reg.counter("stream.shard.restored");

  shards_.resize(config_.num_shards);
  for (std::size_t k = 0; k < config_.num_shards; ++k) {
    InferenceSchedulerConfig sc = config_.scheduler;
    // Shards pump inside one parallel region: gauges/extra counters go to
    // the shard's own scope so concurrent shards never share a gauge.
    sc.metric_scope = "stream.shard" + std::to_string(k);
    shards_[k].scheduler = std::make_unique<InferenceScheduler>(mapper, sc);
  }
}

std::size_t FleetServer::sessions_live() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) n += s.sessions.size();
  return n;
}

std::size_t FleetServer::windows_inferred() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) n += s.scheduler->windows_inferred();
  return n;
}

std::size_t FleetServer::windows_shed() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) n += s.scheduler->windows_shed();
  return n;
}

std::size_t FleetServer::windows_thinned() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) n += s.scheduler->windows_thinned();
  return n;
}

RcaSession* FleetServer::find(std::uint64_t id) {
  Shard& shard = shards_[shard_of(id, shards_.size())];
  for (auto& s : shard.sessions)
    if (s->id() == id) return s.get();
  return nullptr;
}

FleetServer::AdmissionResult FleetServer::admit(std::uint64_t id) {
  const std::size_t k = shard_of(id, shards_.size());
  Shard& shard = shards_[k];
  if (find(id) != nullptr)
    throw std::invalid_argument{"FleetServer: duplicate session id"};
  const bool degrade =
      config_.degrade_sessions_per_shard > 0 &&
      shard.sessions.size() >= config_.degrade_sessions_per_shard;
  RcaSessionConfig sc = config_.session;
  if (degrade) sc.evidence_stride = kDegradedEvidenceStride;
  auto session = std::make_unique<RcaSession>(id, *mapper_, *imu_detector_,
                                              *gps_detector_, sc);
  RcaSession* ptr = session.get();
  shard.scheduler->attach(*ptr);
  shard.sessions.push_back(std::move(session));
  const Admission verdict =
      degrade ? Admission::kDegraded : Admission::kAdmitted;
  (degrade ? degraded_count_ : admitted_count_)->add();
  if (obs::FlightRecorder* rec = ptr->recorder())
    rec->record({obs::RecorderEvent::Kind::kAdmit, degrade, id, obs::now_us(),
                 0.0, static_cast<double>(verdict), static_cast<double>(k)});
  return {verdict, k, ptr};
}

void FleetServer::update_global_gauges() {
  auto& reg = obs::Registry::instance();
  std::size_t backlog = 0, live = 0;
  for (const Shard& s : shards_) {
    backlog += s.scheduler->backlog();
    for (const auto& sess : s.sessions)
      if (!sess->finished()) ++live;
  }
  reg.gauge("stream.sessions_active").set(static_cast<double>(live));
  reg.gauge("stream.backlog").set(static_cast<double>(backlog));
}

std::size_t FleetServer::pump() {
  obs::ScopedSpan span{"fleet_pump", obs::Stage::kPredict};
  // The fleet round is the telemetry clock; shard pumps on pool workers do
  // not tick.
  obs::telemetry_tick();
  std::vector<std::size_t> inferred(shards_.size(), 0);
  // grain 1 = one chunk per shard: bodies touch disjoint shard state (own
  // queue, own scoped instruments) and run eval forwards on the shared
  // mapper, which write no model state; the shared global
  // counters/histograms are parallel-safe.
  util::parallel_for(
      shards_.size(),
      [&](std::size_t k) { inferred[k] = shards_[k].scheduler->pump(); },
      /*grain=*/1);
  update_global_gauges();
  std::size_t total = 0;
  for (std::size_t n : inferred) total += n;
  return total;
}

bool FleetServer::drain() {
  std::vector<std::uint8_t> ok(shards_.size(), 1);
  util::parallel_for(
      shards_.size(),
      [&](std::size_t k) { ok[k] = shards_[k].scheduler->drain() ? 1 : 0; },
      /*grain=*/1);
  update_global_gauges();
  return std::all_of(ok.begin(), ok.end(), [](std::uint8_t v) { return v; });
}

core::RcaReport FleetServer::finish(std::uint64_t id,
                                    core::RcaDecisionTrace* trace_out) {
  const std::size_t k = shard_of(id, shards_.size());
  Shard& shard = shards_[k];
  const auto it = std::find_if(
      shard.sessions.begin(), shard.sessions.end(),
      [id](const std::unique_ptr<RcaSession>& s) { return s->id() == id; });
  if (it == shard.sessions.end())
    throw std::invalid_argument{"FleetServer: finish of unknown session"};
  shard.scheduler->drain();
  core::RcaReport report = (*it)->finish(trace_out);
  shard.scheduler->detach(**it);
  shard.sessions.erase(it);
  update_global_gauges();
  return report;
}

bool FleetServer::checkpoint(std::uint64_t id, const std::string& path) {
  RcaSession* session = find(id);
  if (session == nullptr)
    throw std::invalid_argument{"FleetServer: checkpoint of unknown session"};
  shards_[shard_of(id, shards_.size())].scheduler->drain();
  return session->checkpoint(path);
}

std::size_t FleetServer::checkpoint_all(const std::string& dir) {
  drain();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    obs::logf(obs::LogLevel::kWarn, "fleet", "cannot create checkpoint dir %s: %s",
              dir.c_str(), ec.message().c_str());
    return 0;
  }
  std::size_t written = 0;
  for (Shard& shard : shards_)
    for (const auto& session : shard.sessions) {
      const std::string path =
          dir + "/SESSION_" + std::to_string(session->id()) + ".sbsess";
      if (session->checkpoint(path)) ++written;
    }
  return written;
}

FleetServer::AdmissionResult FleetServer::restore(const std::string& path) {
  // The one SBSESS01 read: the restored session names its own id, which
  // picks the shard.
  auto session = RcaSession::restore(path, *mapper_, *imu_detector_,
                                     *gps_detector_, config_.session);
  if (!session) return {};
  if (find(session->id()) != nullptr)
    throw std::invalid_argument{"FleetServer: restore of a live session id"};
  const std::size_t k = shard_of(session->id(), shards_.size());
  Shard& shard = shards_[k];
  RcaSession* ptr = session.get();
  shard.scheduler->attach(*ptr);
  shard.sessions.push_back(std::move(session));
  restored_count_->add();
  const Admission verdict = ptr->config().evidence_stride > 1
                                ? Admission::kDegraded
                                : Admission::kAdmitted;
  if (obs::FlightRecorder* rec = ptr->recorder())
    rec->record({obs::RecorderEvent::Kind::kAdmit, true, ptr->id(),
                 obs::now_us(), 0.0, static_cast<double>(verdict),
                 static_cast<double>(k)});
  return {verdict, k, ptr};
}

}  // namespace sb::stream
