#include "core/dataset.hpp"

#include <array>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace sb::core {
namespace {

struct WindowResult {
  bool valid = false;
  ml::Tensor sig;
  std::array<float, kLabelDim> label{};
};

}  // namespace

const char* split_mode_name(SplitMode mode) {
  switch (mode) {
    case SplitMode::kNone: return "none";
    case SplitMode::kFlightDisjoint: return "flight-disjoint";
    case SplitMode::kAirframeDisjoint: return "airframe-disjoint";
  }
  return "?";
}

void enforce_disjoint_split(std::span<const std::int64_t> train_ids,
                            std::span<const std::int64_t> eval_ids,
                            SplitMode mode) {
  if (mode == SplitMode::kNone) return;
  std::unordered_set<std::int64_t> train_set;
  for (std::int64_t id : train_ids)
    if (id != kNoFlightId) train_set.insert(id);
  for (std::int64_t id : eval_ids) {
    if (id == kNoFlightId) continue;
    if (train_set.count(id) != 0)
      throw std::invalid_argument{
          std::string{"leaky "} + split_mode_name(mode) + " split: id " +
          std::to_string(id) + " contributes windows to both train and eval"};
  }
}

DatasetBuilder::DatasetBuilder(const DatasetConfig& config, const FlightLab& lab)
    : config_(config), lab_(&lab), shape_(signature_shape(config.signature)) {}

void DatasetBuilder::add_flight(const Flight& flight) {
  add_flight(flight, kNoFlightId);
}

void DatasetBuilder::add_flight(const Flight& flight, std::int64_t flight_id) {
  add_flight(flight, flight_id, *lab_);
}

void DatasetBuilder::add_flight(const Flight& flight, std::int64_t flight_id,
                                const FlightLab& lab) {
  obs::ScopedSpan span{"dataset_add_flight", obs::Stage::kSynthesis};
  const double base = config_.signature.window_seconds;
  const double end = flight.log.duration();
  const auto recording = lab.synthesizer(flight).synthesize(flight.log, 0.0, end);

  // Enumerate the (start, length) grid up front; each window's signature is
  // independent, so they run in parallel into indexed slots and are appended
  // in grid order afterwards — same corpus as the serial loop.  Base and
  // augmented (re-captured at stretched lengths) windows are all views of
  // the one recording.
  struct WindowTask {
    double t0, len;
  };
  std::vector<WindowTask> tasks;
  for (const WindowSpan& w : window_grid(config_.settle_time, config_.stride, base, end)) {
    tasks.push_back({w.t0, base});
    for (double factor : config_.augmentation_factors)
      tasks.push_back({w.t0, factor * base});
  }

  std::vector<WindowResult> results(tasks.size());
  util::parallel_for(tasks.size(), [&](std::size_t w) {
    const double t1 = tasks[w].t0 + tasks[w].len;
    if (t1 > end) return;
    const auto audio = recording_window(recording, tasks[w].t0, tasks[w].len);
    if (audio.num_samples() == 0) return;
    results[w].sig = compute_signature(audio, config_.signature);
    // Labels: intact-IMU acceleration (paper §III-B) plus the benign
    // autopilot's navigation velocity — the "audio-derived velocity" target
    // the GPS-stage Kalman filters consume as their measurement.
    const Vec3 accel = flight.log.mean_imu_accel(tasks[w].t0, t1);
    const Vec3 vel = flight.log.mean_nav_vel(tasks[w].t0, t1);
    const std::array<double, kLabelDim> label{accel.x, accel.y, accel.z,
                                              vel.x,   vel.y,   vel.z};
    for (std::size_t j = 0; j < kLabelDim; ++j)
      results[w].label[j] = static_cast<float>(label[j]);
    results[w].valid = true;
  });

  for (const auto& r : results) {
    if (!r.valid) continue;
    xs_.insert(xs_.end(), r.sig.flat().begin(), r.sig.flat().end());
    ys_.insert(ys_.end(), r.label.begin(), r.label.end());
    window_flight_ids_.push_back(flight_id);
    ++count_;
  }
}

ml::RegressionDataset DatasetBuilder::build() const {
  ml::RegressionDataset data;
  data.x = ml::Tensor({count_, shape_.channels, shape_.frames, shape_.bands});
  std::copy(xs_.begin(), xs_.end(), data.x.data());
  data.y = ml::Tensor({count_, kLabelDim});
  std::copy(ys_.begin(), ys_.end(), data.y.data());
  return data;
}

}  // namespace sb::core
