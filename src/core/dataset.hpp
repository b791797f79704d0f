// Training-corpus construction: slides the signature window over recorded
// flights, pairs each window with the intact IMU's mean NED acceleration
// (the ground-truth label, §III-B), and applies time-shift augmentation —
// re-capturing each window at stretched lengths to simulate head/tail winds
// (Fig. 3, Tab. I).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/flight_lab.hpp"
#include "core/signature.hpp"
#include "ml/trainer.hpp"

namespace sb::core {

// Regression targets per window: NED acceleration (3) + NED velocity (3).
inline constexpr std::size_t kLabelDim = 6;

// Flight id recorded for windows added without provenance (legacy
// add_flight overload).  Never matches a real id, so un-annotated corpora
// trivially pass the disjointness guard against themselves but cannot be
// proven disjoint from anything — scenario splits always annotate.
inline constexpr std::int64_t kNoFlightId = -1;

// Session-disjointness contract of a train/eval split (EchoHawk leakage
// caution, PAPERS.md): in a disjoint mode, no flight — or no airframe, in
// leave-one-airframe-out evaluation — may contribute windows to both sides.
enum class SplitMode {
  kNone,             // no disjointness requirement
  kFlightDisjoint,   // ids are flight ids; train ∩ eval must be empty
  kAirframeDisjoint, // ids are airframe ids; train ∩ eval must be empty
};

const char* split_mode_name(SplitMode mode);

// Leakage guard: verifies that no id occurs on both sides of a disjoint
// split.  Throws std::invalid_argument naming the first leaking id when the
// mode demands disjointness and the sets intersect; kNone always passes.
// kNoFlightId entries are ignored on either side (unknown provenance cannot
// prove leakage), so callers that need a guarantee must annotate every
// window.
void enforce_disjoint_split(std::span<const std::int64_t> train_ids,
                            std::span<const std::int64_t> eval_ids,
                            SplitMode mode);

struct DatasetConfig {
  SignatureConfig signature;
  double stride = 0.25;   // s between window starts
  double settle_time = 2.0;  // s skipped at flight start (takeoff transient)
  // Capture-length multipliers added on top of the base (1x) windows.
  // Tab. I explores {0.5}, {}, {1}, {2}, {3}, {5}.
  std::vector<double> augmentation_factors;
};

class DatasetBuilder {
 public:
  DatasetBuilder(const DatasetConfig& config, const FlightLab& lab);

  // Renders the flight's recording once, extracts all windows (base and
  // augmented) as views of it, appends them to the corpus and frees the
  // recording before returning.
  // The id variant records `flight_id` as the provenance of every window it
  // appends, feeding the disjointness guard; the plain variant records
  // kNoFlightId (unknown provenance).
  void add_flight(const Flight& flight);
  void add_flight(const Flight& flight, std::int64_t flight_id);
  // Multi-lab corpora (scenario matrix): renders this flight's recording
  // with `lab`'s synthesizer instead of the builder's own, so one corpus can
  // span airframes/environments whose acoustics differ.  The signature
  // config (and therefore the tensor shape) stays the builder's.
  void add_flight(const Flight& flight, std::int64_t flight_id,
                  const FlightLab& lab);

  std::size_t size() const { return count_; }

  // Provenance of each window in corpus order (one entry per window).
  std::span<const std::int64_t> window_flight_ids() const {
    return window_flight_ids_;
  }

  // Assembles the accumulated windows into a dataset ([N,C,H,W] / [N,3]).
  ml::RegressionDataset build() const;

 private:
  DatasetConfig config_;
  const FlightLab* lab_;
  SignatureShape shape_;
  std::vector<float> xs_;
  std::vector<float> ys_;
  std::vector<std::int64_t> window_flight_ids_;
  std::size_t count_ = 0;
};

}  // namespace sb::core
