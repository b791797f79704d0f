#include "scenario/scenario_set.hpp"

#include <cmath>
#include <utility>

#include "util/thread_pool.hpp"

namespace sb::scenario {

ScenarioSet::ScenarioSet(ScenarioSetConfig config) : config_(std::move(config)) {
  if (config_.airframes.empty()) config_.airframes = airframe_catalog();
  if (config_.environments.empty()) config_.environments = environment_catalog();

  const int n_air = static_cast<int>(config_.airframes.size());
  const int n_env = static_cast<int>(config_.environments.size());

  labs_.reserve(static_cast<std::size_t>(n_air * n_env));
  for (int a = 0; a < n_air; ++a) {
    const auto base = config_.airframes[static_cast<std::size_t>(a)].lab_config();
    for (int e = 0; e < n_env; ++e)
      labs_.emplace_back(
          config_.environments[static_cast<std::size_t>(e)].apply(base));
  }

  // Cell order is part of the determinism contract: flight ids (and through
  // them the seeds) are assigned in this fixed enumeration order.
  std::int64_t next_id = 0;
  auto push = [&](int a, int e, AttackKind attack, CellRole role, int repeat) {
    ScenarioCell cell;
    cell.airframe = a;
    cell.environment = e;
    cell.attack = attack;
    cell.role = role;
    cell.repeat = repeat;
    cell.flight_id = next_id++;
    cell.seed = config_.seed * 1000003ULL +
                static_cast<std::uint64_t>(cell.flight_id);
    cells_.push_back(cell);
  };
  for (int a = 0; a < n_air; ++a)
    for (int e = 0; e < n_env; ++e) {
      for (int r = 0; r < config_.train_repeats; ++r)
        push(a, e, AttackKind::kBenign, CellRole::kTrain, r);
      for (int r = 0; r < config_.calib_repeats; ++r)
        push(a, e, AttackKind::kBenign, CellRole::kCalibration, r);
      for (int r = 0; r < config_.eval_benign_repeats; ++r)
        push(a, e, AttackKind::kBenign, CellRole::kEval, r);
      for (int r = 0; r < config_.eval_attack_repeats; ++r)
        push(a, e, AttackKind::kImuBias, CellRole::kEval, r);
      for (int r = 0; r < config_.eval_attack_repeats; ++r)
        push(a, e, AttackKind::kGpsSpoof, CellRole::kEval, r);
    }
}

const core::FlightLab& ScenarioSet::lab(const ScenarioCell& cell) const {
  const auto idx = static_cast<std::size_t>(cell.airframe) *
                       config_.environments.size() +
                   static_cast<std::size_t>(cell.environment);
  return labs_[idx];
}

core::FlightScenario ScenarioSet::scenario(const ScenarioCell& cell) const {
  core::FlightScenario s;
  s.wind = environment(cell).wind();
  s.seed = cell.seed;
  const double duration =
      cell.role == CellRole::kTrain ? config_.train_duration : config_.eval_duration;
  const double f = static_cast<double>(cell.repeat);

  if (cell.attack == AttackKind::kImuBias) {
    // IMU biasing over a hover segment (§IV-B): alternating Side-Swing and
    // accelerometer-DoS, 10 s spoof window inside the flight.
    s.mission = sim::Mission::hover({0, 0, -10}, duration);
    attacks::ImuAttackConfig a;
    a.type = cell.repeat % 2 == 0 ? attacks::ImuAttackType::kSideSwing
                                  : attacks::ImuAttackType::kAccelDos;
    a.start = 12.0 + static_cast<double>(cell.repeat % 4);
    a.end = a.start + 10.0;
    a.axis = cell.repeat % 3 == 2 ? 1 : 0;
    s.imu_attack = a;
    return s;
  }
  if (cell.attack == AttackKind::kGpsSpoof) {
    // GPS drag-spoofing (§IV-C): hover and en-route missions, drag direction
    // varied per (airframe, repeat) so no two cells pull the same way.
    if (cell.repeat % 2 == 0)
      s.mission = sim::Mission::hover({0, 0, -10}, duration);
    else
      s.mission = sim::Mission::line({0, 0, -10}, {18, 4, -10}, 2.2, duration);
    attacks::GpsSpoofConfig g;
    g.start = 10.0 + static_cast<double>(cell.repeat % 3);
    g.end = duration - 5.0;
    const double ang = 0.7 * (f + static_cast<double>(cell.airframe));
    g.drag_direction = {std::cos(ang), std::sin(ang), 0.0};
    g.drag_rate = 0.9 + 0.08 * static_cast<double>(cell.repeat % 6);
    s.gps_spoof = g;
    return s;
  }

  // Benign mission mix, cycling with the repeat index inside the training
  // envelope (hover / line / figure-eight / square).
  switch (cell.repeat % 4) {
    case 0:
      s.mission = sim::Mission::hover({1, 1, -10 - 0.4 * f}, duration);
      break;
    case 1:
      s.mission = sim::Mission::line({0, 0, -10}, {16 + 2 * f, 6, -11},
                                     2.4 + 0.2 * f, duration);
      break;
    case 2:
      s.mission =
          sim::Mission::figure_eight({0, 2, -12}, 8 + 0.5 * f, 2.4 + 0.2 * f, duration);
      break;
    default:
      s.mission = sim::Mission::square({0, 0, 0}, 13 + f, 10, 2.2 + 0.1 * f, duration);
      break;
  }
  return s;
}

std::vector<core::Flight> ScenarioSet::fly(
    std::span<const ScenarioCell> batch) const {
  std::vector<core::Flight> out(batch.size());
  // Grain 1 + per-cell seeding inside fly(): bit identical to the serial
  // loop at any SB_THREADS (no rng draws in the parallel region itself).
  util::parallel_for(
      batch.size(),
      [&](std::size_t i) { out[i] = lab(batch[i]).fly(scenario(batch[i])); }, 1);
  return out;
}

TrainEvalSplit ScenarioSet::flight_disjoint_split() const {
  TrainEvalSplit split;
  split.mode = core::SplitMode::kFlightDisjoint;
  for (const ScenarioCell& cell : cells_) {
    switch (cell.role) {
      case CellRole::kTrain: split.train.push_back(cell); break;
      case CellRole::kCalibration: split.calibration.push_back(cell); break;
      case CellRole::kEval: split.eval.push_back(cell); break;
    }
  }
  return split;
}

TrainEvalSplit ScenarioSet::airframe_disjoint_split(int holdout_airframe) const {
  TrainEvalSplit split;
  split.mode = core::SplitMode::kAirframeDisjoint;
  split.holdout_airframe = holdout_airframe;
  for (const ScenarioCell& cell : cells_) {
    if (cell.airframe == holdout_airframe) {
      // Only the holdout's scored flights matter; its train/calibration
      // cells are simply unused in this fold.
      if (cell.role == CellRole::kEval) split.eval.push_back(cell);
      continue;
    }
    switch (cell.role) {
      case CellRole::kTrain: split.train.push_back(cell); break;
      case CellRole::kCalibration: split.calibration.push_back(cell); break;
      case CellRole::kEval: break;  // scored in its own fold
    }
  }
  return split;
}

std::int64_t ScenarioSet::cell_id(const ScenarioCell& cell, core::SplitMode mode) {
  switch (mode) {
    case core::SplitMode::kFlightDisjoint: return cell.flight_id;
    case core::SplitMode::kAirframeDisjoint: return cell.airframe;
    case core::SplitMode::kNone: break;
  }
  return core::kNoFlightId;
}

std::vector<std::int64_t> ScenarioSet::cell_ids(std::span<const ScenarioCell> batch,
                                                core::SplitMode mode) {
  std::vector<std::int64_t> out;
  out.reserve(batch.size());
  for (const ScenarioCell& cell : batch) out.push_back(cell_id(cell, mode));
  return out;
}

void enforce_split(std::span<const std::int64_t> train_window_ids,
                   const TrainEvalSplit& split) {
  const auto eval_ids = ScenarioSet::cell_ids(split.eval, split.mode);
  core::enforce_disjoint_split(train_window_ids, eval_ids, split.mode);
}

}  // namespace sb::scenario
