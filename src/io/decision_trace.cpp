#include "io/decision_trace.hpp"

#include <fstream>

#include "obs/json.hpp"

namespace sb::io {
namespace {

void append_imu_line(std::string& out, const core::ImuWindowDecision& d) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("type", "imu_window");
  w.kv("t0", d.t0);
  w.kv("t1", d.t1);
  w.key("mean_z");
  w.begin_array();
  for (double z : d.mean_z) w.value(z);
  w.end_array();
  w.key("spread_z");
  w.begin_array();
  for (double z : d.spread_z) w.value(z);
  w.end_array();
  w.kv("score", d.score);
  w.kv("threshold", d.threshold);
  w.kv("flagged", d.flagged);
  w.kv("alert", d.alert);
  w.end_object();
  out += w.str();
  out += '\n';
}

void append_gps_line(std::string& out, const core::GpsFixDecision& d) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("type", "gps_fix");
  w.kv("t", d.t);
  w.kv("running_mean_err", d.running_mean_err);
  w.kv("pos_dev", d.pos_dev);
  w.kv("vel_threshold", d.vel_threshold);
  w.kv("pos_threshold", d.pos_threshold);
  w.kv("vel_hit", d.vel_hit);
  w.kv("pos_hit", d.pos_hit);
  w.kv("alert", d.alert);
  w.kv("coast_reset", d.coast_reset);
  w.end_object();
  out += w.str();
  out += '\n';
}

void append_health_line(std::string& out, const faults::HealthReport& h) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("type", "health");
  w.kv("mics_alive", static_cast<std::uint64_t>(h.mics_alive()));
  w.key("mic_windows_masked");
  w.begin_array();
  for (std::size_t masked : h.mic_windows_masked)
    w.value(static_cast<std::uint64_t>(masked));
  w.end_array();
  w.kv("windows_total", static_cast<std::uint64_t>(h.windows_total));
  w.kv("windows_degraded", static_cast<std::uint64_t>(h.windows_degraded));
  w.kv("imu_samples_nonfinite",
       static_cast<std::uint64_t>(h.imu_samples_nonfinite));
  w.kv("imu_windows_skipped", static_cast<std::uint64_t>(h.imu_windows_skipped));
  w.kv("gps_fixes_nonfinite", static_cast<std::uint64_t>(h.gps_fixes_nonfinite));
  w.kv("gps_coast_intervals", static_cast<std::uint64_t>(h.gps_coast_intervals));
  w.kv("gps_coast_seconds", h.gps_coast_seconds);
  w.kv("kf_fallback_steps", static_cast<std::uint64_t>(h.kf_fallback_steps));
  w.kv("degraded", h.degraded());
  w.end_object();
  out += w.str();
  out += '\n';
}

}  // namespace

std::string decision_trace_jsonl(const core::RcaDecisionTrace& trace) {
  std::string out;
  for (const auto& d : trace.imu) append_imu_line(out, d);
  for (const auto& d : trace.gps) append_gps_line(out, d);
  append_health_line(out, trace.health);
  obs::JsonWriter w;
  w.begin_object();
  w.kv("type", "summary");
  w.kv("imu_attacked", trace.imu_attacked);
  w.kv("gps_attacked", trace.gps_attacked);
  w.kv("gps_mode", trace.gps_mode == core::GpsDetectorMode::kAudioOnly
                       ? "audio_only"
                       : "audio_imu");
  w.end_object();
  out += w.str();
  out += '\n';
  return out;
}

bool write_decision_trace_jsonl(const std::string& path,
                                const core::RcaDecisionTrace& trace) {
  std::ofstream os{path};
  if (!os) return false;
  os << decision_trace_jsonl(trace);
  return static_cast<bool>(os);
}

}  // namespace sb::io
