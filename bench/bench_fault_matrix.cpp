// Fault-tolerance matrix: sweeps injected sensor faults (type x severity)
// against the Tab. II GPS-spoofing workload and reports how the two-stage
// RCA verdicts degrade.  "Degrades gracefully" becomes a measured claim:
// every cell writes its TPR/FPR into BENCH_fault_matrix.json.
//
// Determinism check baked in: every severity-0 cell must reproduce the
// unfaulted baseline bit-for-bit (a faulted flight log is compared bitwise,
// then the full analysis re-run on it; mic faults damage each window as a
// prediction hook, so their predictions and verdicts are compared bitwise).  The `severity0_matches_baseline` metric is 1 only if every cell
// passed; run under SB_THREADS=1 and SB_THREADS=4 to cover the parallel
// paths.
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_common.hpp"
#include "faults/fault_injector.hpp"
#include "faults/health.hpp"
#include "util/table.hpp"

using namespace sb;

namespace {

constexpr int kBenign = 8;
constexpr int kAttacks = 6;
constexpr double kSeverities[] = {0.0, 0.35, 0.7, 1.0};
constexpr double kFaultStart = 8.0;  // overlaps every spoof period

enum class Cell { kMicDead, kMicClip, kImuDropout, kImuNan, kGpsOutage, kGpsJitter };
constexpr Cell kCells[] = {Cell::kMicDead,    Cell::kMicClip,  Cell::kImuDropout,
                           Cell::kImuNan,     Cell::kGpsOutage, Cell::kGpsJitter};

const char* cell_name(Cell c) {
  switch (c) {
    case Cell::kMicDead: return "mic_dead";
    case Cell::kMicClip: return "mic_clip";
    case Cell::kImuDropout: return "imu_dropout";
    case Cell::kImuNan: return "imu_nan";
    case Cell::kGpsOutage: return "gps_outage";
    case Cell::kGpsJitter: return "gps_jitter";
  }
  return "?";
}

bool is_mic(Cell c) { return c == Cell::kMicDead || c == Cell::kMicClip; }

faults::FaultPlan make_plan(Cell cell, double severity, int flight_index) {
  faults::FaultPlan plan;
  plan.seed = 900 + static_cast<std::uint64_t>(flight_index);
  switch (cell) {
    case Cell::kMicDead:
      plan.mic.push_back({faults::MicFaultType::kChannelDead,
                          flight_index % static_cast<int>(sensors::kNumMics),
                          severity, kFaultStart, 1e9});
      break;
    case Cell::kMicClip:
      plan.mic.push_back({faults::MicFaultType::kClipping,
                          flight_index % static_cast<int>(sensors::kNumMics),
                          severity, kFaultStart, 1e9});
      break;
    case Cell::kImuDropout:
      plan.imu.push_back({faults::ImuFaultType::kDropout, severity, kFaultStart, 1e9});
      break;
    case Cell::kImuNan:
      plan.imu.push_back({faults::ImuFaultType::kNanBurst, severity, kFaultStart, 1e9});
      break;
    case Cell::kGpsOutage:
      // Bounded interval: severity scales the outage from 0 to 16 s, after
      // which the receiver reacquires — exercising coast + monitor reset
      // rather than just "no GPS, nothing to score".
      plan.gps.push_back({faults::GpsFaultType::kOutage, severity, kFaultStart, 24.0});
      break;
    case Cell::kGpsJitter:
      plan.gps.push_back({faults::GpsFaultType::kLatencyJitter, severity, kFaultStart, 1e9});
      break;
  }
  return plan;
}

bool same_verdict(const core::RcaReport& a, const core::RcaReport& b) {
  return a.imu_attacked == b.imu_attacked && a.gps_attacked == b.gps_attacked &&
         std::memcmp(&a.gps_detect_time, &b.gps_detect_time, sizeof(double)) == 0;
}

bool same_preds(std::span<const core::TimedPrediction> a,
                std::span<const core::TimedPrediction> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(core::TimedPrediction)) == 0);
}

bool same_log(const sim::FlightLog& a, const sim::FlightLog& b) {
  const auto bytes_equal = [](const auto& x, const auto& y) {
    using T = typename std::decay_t<decltype(x)>::value_type;
    return x.size() == y.size() &&
           (x.empty() || std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0);
  };
  return bytes_equal(a.imu, b.imu) && bytes_equal(a.gps, b.gps);
}

struct CellTally {
  int benign_alerts = 0;
  int attack_alerts = 0;
  int degraded_flights = 0;
  std::size_t windows_degraded = 0;
  std::size_t coast_intervals = 0;

  void record(bool attacked_flight, const core::RcaReport& v) {
    if (v.gps_attacked) (attacked_flight ? attack_alerts : benign_alerts)++;
    if (v.health.degraded()) ++degraded_flights;
    windows_degraded += v.health.windows_degraded;
    coast_intervals += v.health.gps_coast_intervals;
  }
};

}  // namespace

int main(int argc, char** argv) {
  sb::bench::bench_init(argc, argv);
  bench::BenchReport report{"fault_matrix"};
  std::printf("=== Fault matrix: %zu fault types x %zu severities over %d benign + %d attack flights ===\n",
              std::size(kCells), std::size(kSeverities), kBenign, kAttacks);

  auto mapper = bench::standard_mapper();
  auto det = bench::calibrate_detectors(mapper);
  // One prediction set per flight, many verdicts: the engine decides from
  // predictions already in hand.
  const core::RcaEngine engine{mapper, det.imu, det.gps};

  CellTally tallies[std::size(kCells)][std::size(kSeverities)];
  CellTally baseline_tally;
  bool severity0_ok = true;

  const int total_flights = kBenign + kAttacks;
  for (int fi = 0; fi < total_flights; ++fi) {
    const bool attacked = fi >= kBenign;
    const auto scenario = attacked ? bench::gps_attack_scenario(fi - kBenign, 60.0)
                                   : bench::benign_scenario(fi, 40.0);
    const auto flight = bench::lab().fly(scenario);
    obs::logf(obs::LogLevel::kInfo, "run", "flight %d/%d (%s)", fi + 1, total_flights,
              attacked ? "gps spoof" : "benign");

    const auto recording =
        bench::lab().synthesizer(flight).synthesize(flight.log, 0.0, flight.log.duration());
    const auto base_preds = mapper.predict_windows(recording);
    const auto base_verdict = engine.decide(flight, base_preds);
    baseline_tally.record(attacked, base_verdict);

    for (std::size_t ci = 0; ci < std::size(kCells); ++ci) {
      const Cell cell = kCells[ci];
      for (std::size_t si = 0; si < std::size(kSeverities); ++si) {
        const double severity = kSeverities[si];
        const auto plan = make_plan(cell, severity, fi);
        core::RcaReport v;
        if (is_mic(cell)) {
          // Mic faults damage each analyzed window's copy of the recording.
          core::PredictionHooks hooks;
          hooks.audio_transform = [&plan](acoustics::MultiChannelAudio& audio, double t0) {
            faults::apply_to_audio(audio, t0, plan);
          };
          faults::HealthReport window_health;
          const auto preds = mapper.predict_windows(recording, hooks, &window_health);
          v = engine.decide(flight, preds, window_health);
          if (severity <= 0.0)
            severity0_ok = severity0_ok && same_preds(preds, base_preds) &&
                           same_verdict(v, base_verdict);
        } else {
          auto faulted = flight;
          faults::apply_to_log(faulted.log, plan);
          v = engine.decide(faulted, base_preds);
          if (severity <= 0.0)
            severity0_ok = severity0_ok && same_log(faulted.log, flight.log) &&
                           same_verdict(v, base_verdict);
        }
        tallies[ci][si].record(attacked, v);
      }
    }
  }

  report.metric("flights_benign", kBenign);
  report.metric("flights_attack", kAttacks);
  report.metric("baseline_tpr", static_cast<double>(baseline_tally.attack_alerts) / kAttacks);
  report.metric("baseline_fpr", static_cast<double>(baseline_tally.benign_alerts) / kBenign);
  report.metric("severity0_matches_baseline", severity0_ok ? 1.0 : 0.0);

  Table table({"fault", "severity", "TPR", "FPR", "degraded flights", "coast intervals"});
  for (std::size_t ci = 0; ci < std::size(kCells); ++ci)
    for (std::size_t si = 0; si < std::size(kSeverities); ++si) {
      const auto& t = tallies[ci][si];
      const double tpr = static_cast<double>(t.attack_alerts) / kAttacks;
      const double fpr = static_cast<double>(t.benign_alerts) / kBenign;
      char sev[16];
      std::snprintf(sev, sizeof sev, "%.2f", kSeverities[si]);
      table.add_row({cell_name(kCells[ci]), sev, Table::fmt(tpr, 2), Table::fmt(fpr, 2),
                     std::to_string(t.degraded_flights),
                     std::to_string(t.coast_intervals)});
      const std::string key = std::string{cell_name(kCells[ci])} + "_sev" + sev;
      report.metric(key + "_tpr", tpr);
      report.metric(key + "_fpr", fpr);
      report.metric(key + "_degraded_flights", t.degraded_flights);
    }
  std::printf("%s", table.to_string().c_str());
  std::printf("severity-0 cells bit-identical to baseline: %s\n",
              severity0_ok ? "yes" : "NO — determinism violation");
  report.note("workload", "Tab. II shape (benign + GPS drag-spoof flights), reduced set");
  return severity0_ok ? 0 : 1;
}
