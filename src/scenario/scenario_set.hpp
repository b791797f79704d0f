// ScenarioSet: the (airframe x environment x attack x seed) evaluation
// matrix.  Enumerates one ScenarioCell per flight, owns a FlightLab per
// (airframe, environment) pair, and emits train/eval splits whose
// session-disjointness is provable in the dataset layer
// (core::enforce_disjoint_split):
//
//  * flight-disjoint — one model trained on all airframes; no flight
//    contributes windows to both train and eval (EchoHawk leakage caution,
//    PAPERS.md).
//  * airframe-disjoint — leave-one-airframe-out: the held-out airframe's
//    flights appear only in eval, so the score measures cross-airframe
//    generalization of the acoustic mapping.
//
// Everything is deterministic in ScenarioSetConfig::seed: each cell's flight
// seed is derived from (set seed, flight id), flights are flown in parallel
// over cells with all randomness seeded per cell, so results are bit
// identical at any SB_THREADS.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/dataset.hpp"
#include "scenario/airframe.hpp"
#include "scenario/environment.hpp"

namespace sb::scenario {

enum class AttackKind { kBenign, kImuBias, kGpsSpoof };

// What a cell's flight is for.  Calibration cells are benign flights
// reserved for detector-threshold calibration — disjoint from both the
// training corpus and the scored eval set.
enum class CellRole { kTrain, kCalibration, kEval };

struct ScenarioCell {
  int airframe = 0;     // index into ScenarioSetConfig::airframes
  int environment = 0;  // index into ScenarioSetConfig::environments
  AttackKind attack = AttackKind::kBenign;
  CellRole role = CellRole::kTrain;
  int repeat = 0;  // repetition index within (airframe, environment, attack, role)
  // Unique across the whole set; the provenance id the dataset layer records
  // per window in flight-disjoint mode.
  std::int64_t flight_id = 0;
  std::uint64_t seed = 0;  // derived: set_seed * 1000003 + flight_id
};

struct ScenarioSetConfig {
  std::vector<AirframeSpec> airframes;           // default: airframe_catalog()
  std::vector<EnvironmentProfile> environments;  // default: environment_catalog()
  int train_repeats = 3;        // benign training flights per (airframe, env)
  int calib_repeats = 2;        // benign calibration flights per (airframe, env)
  int eval_benign_repeats = 2;  // scored benign flights per (airframe, env)
  int eval_attack_repeats = 1;  // flights per attack kind per (airframe, env)
  double train_duration = 12.0;  // s
  double eval_duration = 30.0;   // s (calibration + eval flights)
  std::uint64_t seed = 1;
};

// One side-assignment of the matrix.  `train` feeds the dataset builder,
// `calibration` the detector thresholds, `eval` the scored verdicts.
struct TrainEvalSplit {
  core::SplitMode mode = core::SplitMode::kNone;
  int holdout_airframe = -1;  // airframe-disjoint only
  std::vector<ScenarioCell> train;
  std::vector<ScenarioCell> calibration;
  std::vector<ScenarioCell> eval;
};

class ScenarioSet {
 public:
  explicit ScenarioSet(ScenarioSetConfig config);

  const ScenarioSetConfig& config() const { return config_; }
  std::span<const ScenarioCell> cells() const { return cells_; }

  const AirframeSpec& airframe(const ScenarioCell& cell) const {
    return config_.airframes[static_cast<std::size_t>(cell.airframe)];
  }
  const EnvironmentProfile& environment(const ScenarioCell& cell) const {
    return config_.environments[static_cast<std::size_t>(cell.environment)];
  }

  // The lab a cell flies in: airframe physics/acoustics with the
  // environment's acoustic fields applied.  One lab per (airframe,
  // environment) pair, built eagerly at construction.
  const core::FlightLab& lab(const ScenarioCell& cell) const;

  // The closed-loop scenario of one cell: mission mix cycling with the
  // repeat index, the environment's wind regime, the cell's attack, and the
  // cell seed.  Pure function of the cell + config.
  core::FlightScenario scenario(const ScenarioCell& cell) const;

  // Flies the given cells in parallel (util::parallel_for, grain 1).  All
  // randomness is seeded inside each cell's fly(), so the batch is bit
  // identical to a serial loop at any SB_THREADS.
  std::vector<core::Flight> fly(std::span<const ScenarioCell> batch) const;

  // Split policies.  Train cells of every airframe vs eval cells of every
  // airframe (flight-disjoint), or train/calibration restricted to the
  // non-held-out airframes with eval restricted to the holdout
  // (airframe-disjoint / leave-one-airframe-out).
  TrainEvalSplit flight_disjoint_split() const;
  TrainEvalSplit airframe_disjoint_split(int holdout_airframe) const;

  // The provenance id a cell's windows must be annotated with under `mode`
  // (core::DatasetBuilder::add_flight(flight, id)): the flight id in
  // flight-disjoint mode, the airframe index in airframe-disjoint mode.
  static std::int64_t cell_id(const ScenarioCell& cell, core::SplitMode mode);
  static std::vector<std::int64_t> cell_ids(std::span<const ScenarioCell> batch,
                                            core::SplitMode mode);

 private:
  ScenarioSetConfig config_;
  std::vector<ScenarioCell> cells_;
  std::vector<core::FlightLab> labs_;  // [airframe * n_env + environment]
};

// Leakage guard at the scenario level: checks the per-window provenance a
// DatasetBuilder recorded (window ids annotated via cell_id under
// split.mode) against split.eval, throwing std::invalid_argument on the
// first id that contributes windows to both sides.
void enforce_split(std::span<const std::int64_t> train_window_ids,
                   const TrainEvalSplit& split);

}  // namespace sb::scenario
