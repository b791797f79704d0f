// Scenario matrix: detection quality across the airframe x environment fleet
// under leakage-proof splits (src/scenario).  Two questions, two split modes:
//
//  * flight-disjoint — one model trained on every airframe; per-airframe
//    TPR/FPR shows how well a shared acoustic mapping serves a mixed fleet.
//  * airframe-disjoint (leave-one-airframe-out) — the cross-airframe column:
//    each airframe is scored by a model that never heard it, measuring how
//    far the acoustic side-channel generalizes across physical platforms.
//
// Every fold's training corpus is annotated with per-window provenance and
// passed through core::enforce_disjoint_split before training; a violation
// exits nonzero.  The whole bench is deterministic in --seed and bit
// identical at any SB_THREADS (flights are flown in parallel over scenario
// cells, seeded per cell).
//
//   SB_BENCH_TINY=1   2 airframes x 2 environments, flight-disjoint only
//                     (CI smoke; validates the report JSON and the guard).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "scenario/scenario_set.hpp"
#include "util/table.hpp"

using namespace sb;

namespace {

scenario::ScenarioSetConfig matrix_config() {
  scenario::ScenarioSetConfig cfg;
  cfg.airframes = scenario::airframe_catalog();
  cfg.environments = scenario::environment_catalog();
  cfg.seed = 1 + bench::bench_args().seed_offset;
  if (bench::tiny_mode()) {
    cfg.airframes.resize(2);
    cfg.environments.resize(2);
    cfg.train_repeats = 2;
    cfg.calib_repeats = 2;
    cfg.eval_benign_repeats = 1;
    cfg.train_duration = 8.0;
    cfg.eval_duration = 24.0;
  }
  return cfg;
}

core::SensoryMapperConfig mapper_config() {
  auto cfg = bench::standard_mapper_config();
  if (bench::tiny_mode()) cfg.train.epochs = 4;
  return cfg;
}

bool detected(const core::RcaReport& v, scenario::AttackKind attack) {
  switch (attack) {
    case scenario::AttackKind::kBenign: return v.imu_attacked || v.gps_attacked;
    case scenario::AttackKind::kImuBias: return v.imu_attacked;
    case scenario::AttackKind::kGpsSpoof: return v.gps_attacked;
  }
  return false;
}

struct Tally {
  int benign = 0, benign_alerts = 0;
  int attacks = 0, attack_alerts = 0;
  double tpr() const {
    return attacks > 0 ? static_cast<double>(attack_alerts) / attacks : 0.0;
  }
  double fpr() const {
    return benign > 0 ? static_cast<double>(benign_alerts) / benign : 0.0;
  }
};

// Trains (or loads from the bench cache) the fold's mapper on the split's
// annotated multi-lab corpus.  The leakage guard runs BEFORE training: a
// leaky corpus aborts the fold, and the bench, with the guard's message.
core::SensoryMapper train_fold(const scenario::ScenarioSet& set,
                               const scenario::TrainEvalSplit& split,
                               const std::vector<core::Flight>& flights,
                               const std::string& tag) {
  core::SensoryMapper mapper{mapper_config()};
  core::DatasetBuilder builder{mapper_config().dataset,
                               set.lab(split.train.front())};
  for (const auto& cell : split.train)
    builder.add_flight(flights[static_cast<std::size_t>(cell.flight_id)],
                       scenario::ScenarioSet::cell_id(cell, split.mode),
                       set.lab(cell));
  scenario::enforce_split(builder.window_flight_ids(), split);

  const std::string path =
      (bench::cache_dir() /
       ("soundboost_bench_" + tag + "_" + bench::cache_tag() + ".bin"))
          .string();
  if (mapper.load(path)) {
    obs::logf(obs::LogLevel::kInfo, "cache", "%s", tag.c_str());
    return mapper;
  }
  obs::logf(obs::LogLevel::kInfo, "setup", "training %s on %zu windows...",
            tag.c_str(), builder.size());
  mapper.fit_dataset(builder.build());
  mapper.save(path);
  return mapper;
}

// Calibrates both detector stages on the split's calibration cells, each
// predicted with its own cell's lab.
bench::CalibratedDetectors calibrate_fold(const scenario::ScenarioSet& set,
                                          const scenario::TrainEvalSplit& split,
                                          const std::vector<core::Flight>& flights,
                                          const core::SensoryMapper& mapper) {
  std::vector<core::Flight> cal;
  std::vector<std::vector<core::TimedPrediction>> preds;
  for (const auto& cell : split.calibration) {
    cal.push_back(flights[static_cast<std::size_t>(cell.flight_id)]);
    preds.push_back(mapper.predict_flight(set.lab(cell), cal.back()));
  }
  return core::calibrate_detectors(cal, preds);
}

// Scores the split's eval cells, tallied per airframe index.
std::map<int, Tally> score_fold(const scenario::ScenarioSet& set,
                                const scenario::TrainEvalSplit& split,
                                const std::vector<core::Flight>& flights,
                                const core::SensoryMapper& mapper,
                                const bench::CalibratedDetectors& det) {
  std::map<int, Tally> per_airframe;
  const core::RcaEngine engine{mapper, det.imu, det.gps};
  for (const auto& cell : split.eval) {
    const auto& flight = flights[static_cast<std::size_t>(cell.flight_id)];
    const auto preds = mapper.predict_flight(set.lab(cell), flight);
    const core::RcaReport v = engine.decide(flight, preds);
    Tally& t = per_airframe[cell.airframe];
    if (cell.attack == scenario::AttackKind::kBenign) {
      ++t.benign;
      if (detected(v, cell.attack)) ++t.benign_alerts;
    } else {
      ++t.attacks;
      if (detected(v, cell.attack)) ++t.attack_alerts;
    }
  }
  return per_airframe;
}

// The report must actually carry the matrix: every expected key is looked up
// in the written JSON, and a missing one fails the bench.
bool validate_report(const std::string& path,
                     const std::vector<std::string>& required_keys) {
  std::ifstream is{path};
  if (!is) {
    std::fprintf(stderr, "scenario_matrix: report %s missing\n", path.c_str());
    return false;
  }
  std::stringstream ss;
  ss << is.rdbuf();
  const std::string json = ss.str();
  bool ok = true;
  for (const auto& key : required_keys)
    if (json.find("\"" + key + "\"") == std::string::npos) {
      std::fprintf(stderr, "scenario_matrix: report lacks key \"%s\"\n",
                   key.c_str());
      ok = false;
    }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bench::bench_init(argc, argv);
  const auto set_cfg = matrix_config();
  const scenario::ScenarioSet set{set_cfg};
  const auto n_air = set_cfg.airframes.size();
  const auto n_env = set_cfg.environments.size();

  std::printf("=== Scenario matrix: %zu airframes x %zu environments, %zu flights ===\n",
              n_air, n_env, set.cells().size());

  std::vector<std::string> required_keys;
  int exit_code = 0;
  {
    bench::BenchReport report{"scenario_matrix"};
    report.metric("airframes", static_cast<double>(n_air));
    report.metric("environments", static_cast<double>(n_env));
    report.metric("flights", static_cast<double>(set.cells().size()));
    report.note("split_guard", "enforced");
    for (std::size_t a = 0; a < n_air; ++a)
      report.note("airframe_" + std::to_string(a), set_cfg.airframes[a].name);

    // The whole matrix flies once, in parallel over cells; folds index the
    // result by flight id.
    bench::Stopwatch fly_timer;
    const auto flights = set.fly(set.cells());
    report.metric("fly_seconds", fly_timer.seconds());

    Table table({"split", "airframe", "TPR", "FPR", "attacks", "benign"});
    const std::string seed_tag = std::to_string(set_cfg.seed) +
                                 (bench::tiny_mode() ? "_tiny" : "");
    try {
      // Flight-disjoint: one shared model, scored per airframe.
      const auto fd = set.flight_disjoint_split();
      const auto mapper = train_fold(set, fd, flights, "scenario_fd_" + seed_tag);
      const auto det = calibrate_fold(set, fd, flights, mapper);
      Tally overall;
      for (const auto& [air, tally] : score_fold(set, fd, flights, mapper, det)) {
        const std::string& name =
            set_cfg.airframes[static_cast<std::size_t>(air)].name;
        table.add_row({"flight-disjoint", name, Table::fmt(tally.tpr(), 2),
                       Table::fmt(tally.fpr(), 2),
                       std::to_string(tally.attacks), std::to_string(tally.benign)});
        report.metric("fd_" + name + "_tpr", tally.tpr());
        report.metric("fd_" + name + "_fpr", tally.fpr());
        required_keys.push_back("fd_" + name + "_tpr");
        required_keys.push_back("fd_" + name + "_fpr");
        overall.benign += tally.benign;
        overall.benign_alerts += tally.benign_alerts;
        overall.attacks += tally.attacks;
        overall.attack_alerts += tally.attack_alerts;
      }
      report.metric("fd_tpr", overall.tpr());
      report.metric("fd_fpr", overall.fpr());
      required_keys.push_back("fd_tpr");
      required_keys.push_back("fd_fpr");

      // Cross-airframe column: leave-one-airframe-out, each airframe scored
      // by a model that never trained on it.
      if (!bench::tiny_mode()) {
        Tally cross;
        for (std::size_t holdout = 0; holdout < n_air; ++holdout) {
          const auto loao = set.airframe_disjoint_split(static_cast<int>(holdout));
          const std::string& name = set_cfg.airframes[holdout].name;
          const auto xa_mapper = train_fold(
              set, loao, flights, "scenario_xa" + std::to_string(holdout) + "_" + seed_tag);
          const auto xa_det = calibrate_fold(set, loao, flights, xa_mapper);
          const auto scored = score_fold(set, loao, flights, xa_mapper, xa_det);
          const Tally& tally = scored.at(static_cast<int>(holdout));
          table.add_row({"airframe-disjoint", name, Table::fmt(tally.tpr(), 2),
                         Table::fmt(tally.fpr(), 2),
                         std::to_string(tally.attacks),
                         std::to_string(tally.benign)});
          report.metric("xa_" + name + "_tpr", tally.tpr());
          report.metric("xa_" + name + "_fpr", tally.fpr());
          required_keys.push_back("xa_" + name + "_tpr");
          required_keys.push_back("xa_" + name + "_fpr");
          cross.benign += tally.benign;
          cross.benign_alerts += tally.benign_alerts;
          cross.attacks += tally.attacks;
          cross.attack_alerts += tally.attack_alerts;
        }
        report.metric("xa_tpr", cross.tpr());
        report.metric("xa_fpr", cross.fpr());
        required_keys.push_back("xa_tpr");
        required_keys.push_back("xa_fpr");
      }
    } catch (const std::invalid_argument& e) {
      // The split guard fired: a train/eval leak is a bench failure, not a
      // number to report.
      std::fprintf(stderr, "scenario_matrix: DISJOINTNESS VIOLATION: %s\n",
                   e.what());
      report.note("split_violation", e.what());
      exit_code = 1;
    }
    std::printf("%s", table.to_string().c_str());
  }  // report flushes here

  if (exit_code == 0) {
    const auto path =
        (bench::bench_output_dir() / "BENCH_scenario_matrix.json").string();
    if (!validate_report(path, required_keys)) exit_code = 1;
    std::printf("report self-validation: %s\n",
                exit_code == 0 ? "ok" : "FAILED");
  }
  return exit_code;
}
