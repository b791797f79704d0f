// Export of RCA per-decision evidence (core/decision_trace.hpp) for offline
// audit: JSONL, one decision per line, `type` discriminated, with trailing
// health and summary records.
#pragma once

#include <string>

#include "core/decision_trace.hpp"

namespace sb::io {

// One JSON object per line:
//   {"type":"imu_window","t0":..,"t1":..,"mean_z":[..],"spread_z":[..],
//    "score":..,"threshold":..,"flagged":..,"alert":..}
//   {"type":"gps_fix","t":..,"running_mean_err":..,"pos_dev":..,
//    "vel_threshold":..,"pos_threshold":..,"vel_hit":..,"pos_hit":..,
//    "alert":..,"coast_reset":..}
//   {"type":"health","mics_alive":..,"mic_windows_masked":[..],
//    "windows_total":..,"windows_degraded":..,"imu_samples_nonfinite":..,
//    "imu_windows_skipped":..,"gps_fixes_nonfinite":..,
//    "gps_coast_intervals":..,"gps_coast_seconds":..,"kf_fallback_steps":..,
//    "degraded":..}
//   {"type":"summary","imu_attacked":..,"gps_attacked":..,"gps_mode":".."}
bool write_decision_trace_jsonl(const std::string& path,
                                const core::RcaDecisionTrace& trace);

// Serialized form of the above, for embedding or in-memory inspection.
std::string decision_trace_jsonl(const core::RcaDecisionTrace& trace);

}  // namespace sb::io
