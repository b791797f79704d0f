// Sensor-health diagnostics and the per-flight HealthReport.
//
// The RCA pipeline runs AFTER an incident, on whatever the recording rig
// managed to capture — dead or clipped mic channels, IMU gaps and NaN
// bursts, GPS outages.  Instead of silently regressing, every stage
// diagnoses its inputs, degrades gracefully (masking, skipping, coasting)
// and records WHAT it tolerated in a HealthReport so the final verdict can
// be weighed against the evidence that produced it.
//
// This header sits below core: it depends only on sensors (channel count).
#pragma once

#include <array>
#include <cstddef>
#include <span>

#include "sensors/mic_array.hpp"

namespace sb::faults {

// Summary statistics of one audio channel, the inputs to the health rules.
struct ChannelStats {
  double rms = 0.0;            // sqrt(mean x^2), DC included
  double dc = 0.0;             // mean sample value
  double peak = 0.0;           // max |x|
  double clip_fraction = 0.0;  // fraction of samples in flat-top plateaus
};

// One pass over the samples.  Clipping is detected structurally rather than
// by amplitude: a sample counts as clipped only when it is part of a run of
// >= 3 consecutive bit-identical samples at high level (>= half the channel
// peak).  Hard limiting produces exactly such plateaus; natural or
// synthesized rotor sound (sums of drifting oscillators plus noise)
// essentially never repeats a double bit-for-bit, so pure tones and loud
// but unclipped audio do not false-positive.
ChannelStats analyze_channel(std::span<const double> samples);

struct ChannelHealthConfig {
  double dead_rms_abs = 1e-6;      // below this the channel is silent
  double dead_rms_rel = 0.05;      // ... or this fraction of the median RMS
  double max_clip_fraction = 0.01; // plateau fraction above this = clipped
  double max_dc_ratio = 1.0;       // |DC| above this multiple of the AC RMS
};

// Applies the health rules to one window's per-channel stats.  The relative
// dead-channel rule compares against the median channel RMS, so it needs
// all channels of the same window at once.
std::array<bool, sensors::kNumMics> healthy_channels(
    std::span<const ChannelStats> stats, const ChannelHealthConfig& config = {});

// What the pipeline tolerated while analyzing one flight.  Populated by
// SensoryMapper (mic health), ImuRcaDetector (residual hygiene) and
// GpsRcaDetector (outage coasting); RcaEngine::Monitor aggregates all three
// and mirrors the totals into the `faults.*` obs counters.
struct HealthReport {
  // Acoustic front-end: windows in which each channel was masked out.
  std::array<std::size_t, sensors::kNumMics> mic_windows_masked{};
  std::size_t windows_total = 0;     // signature windows analyzed
  std::size_t windows_degraded = 0;  // windows with >= 1 masked channel

  // IMU stage.
  std::size_t imu_samples_total = 0;
  std::size_t imu_samples_nonfinite = 0;  // dropped before residual stats
  std::size_t imu_windows_skipped = 0;    // too few samples / non-finite

  // GPS stage.
  std::size_t gps_fixes_total = 0;
  std::size_t gps_fixes_nonfinite = 0;  // rejected before the monitor
  std::size_t gps_coast_intervals = 0;  // outages the KF coasted through
  double gps_coast_seconds = 0.0;       // total time without usable fixes
  std::size_t kf_fallback_steps = 0;    // KF steps denied their nominal
                                        // inputs: fused steps fed audio accel
                                        // (IMU window empty/NaN) and
                                        // predict-only coasts (no usable
                                        // audio prediction)

  // Tallies one analyzed window's channel mask (true = healthy) into the
  // mic counts and the `faults.mic_windows_masked` counter — the single
  // mic-health tally of the offline and streaming front ends — and returns
  // how many channels it masked.  The caller counts windows_total
  // (streaming also counts windows it never prepares).
  std::size_t add_window_mask(const std::array<bool, sensors::kNumMics>& healthy);

  // Adds every tally of `other`: each stage reports into its own tally and
  // the flight's report is their sum.
  HealthReport& operator+=(const HealthReport& other);

  // A channel is considered alive when it survived at least half of the
  // analyzed windows (a transient glitch does not kill a mic).
  bool mic_alive(std::size_t channel) const {
    return windows_total == 0 || 2 * mic_windows_masked[channel] <= windows_total;
  }

  std::size_t mics_alive() const {
    std::size_t n = 0;
    for (std::size_t c = 0; c < sensors::kNumMics; ++c)
      if (mic_alive(c)) ++n;
    return n;
  }

  bool degraded() const {
    return windows_degraded > 0 || imu_samples_nonfinite > 0 ||
           imu_windows_skipped > 0 || gps_fixes_nonfinite > 0 ||
           gps_coast_intervals > 0 || kf_fallback_steps > 0;
  }
};

}  // namespace sb::faults
