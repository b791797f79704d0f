// Crash-safe RcaSession checkpoint/restore (SBSESS01).
//
// A checkpoint is the COMPLETE state of a quiescent session — extractor ring
// and cursors, the decision monitor (IMU baseline/run state, both GPS
// monitors with their KF velocity and variance, sensor buffers, decision
// traces), verdict backlog and window tally — so a restarted server resumes
// mid-flight and every subsequent verdict is bitwise identical to the
// uninterrupted session (pinned by the StreamingEquivalence integration
// suite at SB_THREADS 1 and 4).
//
// The payload travels in the shared integrity frame (util::io::read_frame:
// magic, format version, payload size, CRC-32), validated before any field
// is parsed, so truncated, bit-flipped, wrong-magic and version-skewed files
// are rejected loudly up front instead of surfacing as a silently corrupted
// session.  The payload additionally carries the configuration the state was
// taken under (grid, baseline horizon, detector thresholds); a mismatch
// against the restoring detectors rejects the file — resuming against
// different calibration would silently change every subsequent verdict.
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "stream/rca_session.hpp"
#include "util/binary_io.hpp"

namespace sb::stream {
namespace {

constexpr std::uint64_t kSessionMagic = 0x5342534553533031ULL;  // "SBSESS01"
constexpr std::uint32_t kSessionVersion = 3;

void reject(const std::string& path, const char* why) {
  obs::logf(obs::LogLevel::kWarn, "io", "rejecting session checkpoint %s: %s",
            path.c_str(), why);
  obs::Registry::instance().counter("stream.checkpoint_rejected").add();
}

// A verdict event in VerdictEvent's own byte layout (see
// core::write_imu_decision): kind, 4 bytes of padding, decided_at,
// imu_attacked, 3 bytes of padding, gps_mode, then the two decision records.
// Both enums are 32-bit and must read 0 or 1.
constexpr std::size_t kEventBytes = 160;
static_assert(sizeof(VerdictEvent) == kEventBytes);

void write_event(std::ostream& os, const VerdictEvent& e) {
  using util::io::write_padding;
  using util::io::write_pod;
  write_pod(os, static_cast<std::int32_t>(e.kind));
  write_padding(os, 4);
  write_pod(os, e.decided_at);
  util::io::write_bool(os, e.imu_attacked);
  write_padding(os, 3);
  write_pod(os, static_cast<std::int32_t>(e.gps_mode));
  core::write_imu_decision(os, e.imu);
  core::write_gps_decision(os, e.gps);
}

bool read_event(std::istream& is, VerdictEvent& e) {
  using util::io::read_pod;
  using util::io::skip_padding;
  std::int32_t kind = 0, gps_mode = 0;
  if (!read_pod(is, kind) || kind < 0 || kind > 1 || !skip_padding(is, 4) ||
      !read_pod(is, e.decided_at) || !util::io::read_bool(is, e.imu_attacked) ||
      !skip_padding(is, 3) || !read_pod(is, gps_mode) || gps_mode < 0 ||
      gps_mode > 1)
    return false;
  e.kind = static_cast<VerdictEvent::Kind>(kind);
  e.gps_mode = static_cast<core::GpsDetectorMode>(gps_mode);
  return core::read_imu_decision(is, e.imu) &&
         core::read_gps_decision(is, e.gps);
}

}  // namespace

void RcaSession::save_payload(std::ostream& os) const {
  using util::io::write_pod;
  write_pod(os, id_);
  // Configuration the state was taken under; load_payload and the monitor
  // load_state guards reject any mismatch.
  write_pod(os, static_cast<std::uint64_t>(config_.evidence_stride));
  write_pod(os, sensors::kMicSampleRate);

  write_pod(os, audio_chunks_);
  extractor_.save_state(os);
  monitor_.save_state(os);
  write_pod(os, next_seq_);
  write_pod(os, delivered_);
  write_pod(os, last_t1_);
  util::io::write_records(os, events_, write_event);
  write_pod(os, health_);
}

bool RcaSession::load_payload(std::istream& is) {
  using util::io::read_pod;
  std::uint64_t id = 0, stride = 0;
  double sample_rate = 0.0;
  if (!read_pod(is, id) || id != id_) return false;
  if (!read_pod(is, stride) || stride == 0) return false;
  if (!read_pod(is, sample_rate) || sample_rate != sensors::kMicSampleRate)
    return false;
  // The degradation level travels WITH the session: a fleet restoring a
  // degraded session must not silently promote it back to full evidence.
  config_.evidence_stride = static_cast<std::size_t>(stride);

  if (!read_pod(is, audio_chunks_)) return false;
  if (!extractor_.load_state(is)) return false;
  if (!monitor_.load_state(is)) return false;
  if (!read_pod(is, next_seq_) || !read_pod(is, delivered_) ||
      !read_pod(is, last_t1_))
    return false;
  if (next_seq_ != delivered_) return false;  // quiescence invariant
  if (!util::io::read_records(is, events_, kEventBytes, read_event))
    return false;
  if (!read_pod(is, health_)) return false;
  return util::io::at_end(is);
}

bool RcaSession::checkpoint(const std::string& path) const {
  if (finished_)
    throw std::logic_error{"RcaSession: checkpoint after finish"};
  if (!ready_.empty() || delivered_ != next_seq_)
    throw std::logic_error{
        "RcaSession: checkpoint with in-flight windows — drain first"};
  std::ostringstream os{std::ios::binary};
  save_payload(os);
  if (!os) return false;
  std::ofstream file{path, std::ios::binary};
  if (!file) return false;
  util::io::write_frame(file, kSessionMagic, kSessionVersion, os.str());
  return static_cast<bool>(file);
}

std::unique_ptr<RcaSession> RcaSession::restore(
    const std::string& path, const core::SensoryMapper& mapper,
    const core::ImuRcaDetector& imu_detector,
    const core::GpsRcaDetector& gps_detector, const RcaSessionConfig& config) {
  std::ifstream file{path, std::ios::binary};
  if (!file) {
    reject(path, "cannot open");
    return nullptr;
  }
  std::string payload;
  if (const char* why =
          util::io::read_frame(file, kSessionMagic, kSessionVersion, payload)) {
    reject(path, why);
    return nullptr;
  }
  std::istringstream is{payload, std::ios::binary};
  std::uint64_t id = 0;
  if (!util::io::read_pod(is, id)) {
    reject(path, "payload too short for a session id");
    return nullptr;
  }
  is.seekg(0, std::ios::beg);
  auto session = std::make_unique<RcaSession>(id, mapper, imu_detector,
                                              gps_detector, config);
  if (!session->load_payload(is)) {
    reject(path, "state mismatch (different grid, calibration or corrupt "
                 "payload)");
    return nullptr;
  }
  return session;
}

}  // namespace sb::stream
