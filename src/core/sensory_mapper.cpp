#include "core/sensory_mapper.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "dsp/fft.hpp"
#include "dsp/window.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "util/binary_io.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace sb::core {

SensoryMapper::SensoryMapper(const SensoryMapperConfig& config) : config_(config) {
  Rng rng{config_.model_seed};
  const auto shape = signature_shape(config_.dataset.signature);
  ml::ModelInputShape in{shape.channels, shape.frames, shape.bands};
  model_ = ml::make_model(config_.model, in, kLabelDim, rng);
}

ml::TrainResult SensoryMapper::fit(const FlightLab& lab,
                                   std::span<const Flight> flights) {
  DatasetBuilder builder{config_.dataset, lab};
  for (const Flight& f : flights) builder.add_flight(f);
  return fit_dataset(builder.build());
}

ml::TrainResult SensoryMapper::fit_dataset(const ml::RegressionDataset& data) {
  obs::ScopedSpan span{"fit_dataset", obs::Stage::kTrain};
  // Fit per-feature standardization on the corpus, then train on the
  // standardized copy.  Rotor-tone amplitude changes are percent-level on a
  // dB-like scale; standardization puts every band on comparable footing.
  const std::size_t d = data.x.row_size();
  const std::size_t n = data.x.dim(0);
  feat_mean_.assign(d, 0.0f);
  feat_inv_std_.assign(d, 1.0f);
  if (n > 0) {
    std::vector<double> sum(d, 0.0), sum_sq(d, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const float* row = data.x.data() + i * d;
      for (std::size_t k = 0; k < d; ++k) {
        sum[k] += row[k];
        sum_sq[k] += static_cast<double>(row[k]) * row[k];
      }
    }
    for (std::size_t k = 0; k < d; ++k) {
      const double m = sum[k] / static_cast<double>(n);
      const double var = sum_sq[k] / static_cast<double>(n) - m * m;
      feat_mean_[k] = static_cast<float>(m);
      feat_inv_std_[k] = static_cast<float>(1.0 / std::sqrt(std::max(var, 1e-8)));
    }
  }
  ml::RegressionDataset standardized{data.x, data.y};
  standardize(standardized.x);

  Rng split_rng{config_.model_seed ^ 0xabcdef};
  auto [train, val] = ml::split_dataset(standardized, config_.val_fraction, split_rng);
  const auto result = ml::train_regressor(*model_, train, val, config_.train);
  trained_ = true;
  fit_output_calibration(standardized);
  return result;
}

void SensoryMapper::warm_serving() const {
  // First-window costs on the streaming path: the FFT plan (bit reversal
  // and twiddles) and the Hann coefficients, both memoized process-wide.
  const auto& sig = config_.dataset.signature;
  dsp::warm_fft_plan(sig.frame_size);
  (void)dsp::cached_hann_window(sig.frame_size);
}

void SensoryMapper::fit_output_calibration(const ml::RegressionDataset& data) {
  calib_a_.fill(1.0);
  calib_b_.fill(0.0);
  const std::size_t n = data.x.empty() ? 0 : data.x.dim(0);
  if (n < 16) return;

  // Accumulate per-dim first/second moments of (pred, label) pairs.
  std::array<double, kLabelDim> sp{}, sl{}, spp{}, spl{};
  constexpr std::size_t kBatch = 64;
  for (std::size_t start = 0; start < n; start += kBatch) {
    const std::size_t end = std::min(start + kBatch, n);
    const ml::Tensor pred = model_->infer(data.x.slice_rows(start, end));
    for (std::size_t i = 0; i < end - start; ++i) {
      for (std::size_t d = 0; d < kLabelDim; ++d) {
        const double p = pred[i * kLabelDim + d];
        const double l = data.y[(start + i) * kLabelDim + d];
        sp[d] += p;
        sl[d] += l;
        spp[d] += p * p;
        spl[d] += p * l;
      }
    }
  }
  for (std::size_t d = 0; d < kLabelDim; ++d) {
    const double nn = static_cast<double>(n);
    const double var_p = spp[d] / nn - (sp[d] / nn) * (sp[d] / nn);
    const double cov = spl[d] / nn - (sp[d] / nn) * (sl[d] / nn);
    if (var_p > 1e-8) {
      // Clamp: recalibration may stretch, never wildly amplify noise.
      calib_a_[d] = std::clamp(cov / var_p, 0.5, 3.0);
      calib_b_[d] = sl[d] / nn - calib_a_[d] * sp[d] / nn;
    }
  }
}

void SensoryMapper::neutralize_frequency_group(ml::Tensor& sig,
                                               dsp::FreqGroup group) const {
  if (sig.ndim() != 4 || sig.row_size() != feat_mean_.size()) return;
  const std::size_t bands = sig.dim(3);
  const auto& band_cfg = config_.dataset.signature.bands;
  for (std::size_t i = 0; i < sig.numel(); ++i) {
    const std::size_t band = i % bands;
    if (dsp::group_of_band(band, band_cfg) == group)
      sig[i] = feat_mean_[i % sig.row_size()];
  }
}

void SensoryMapper::standardize(ml::Tensor& x) const {
  const std::size_t d = x.row_size();
  if (d != feat_mean_.size()) return;
  const std::size_t n = x.dim(0);
  // Clamp to +/-4 sigma: robust input conditioning.  Benign features never
  // reach the clamp; an adversary who silences or saturates a band (Tab.
  // III) is bounded instead of driving the model into unconstrained
  // extrapolation.
  constexpr float kClamp = 4.0f;
  const float* mean = feat_mean_.data();
  const float* inv_std = feat_inv_std_.data();
  // vmax(lo) then vmin(hi) IS std::clamp per element, including NaN
  // passthrough (ordered compares are false on NaN, so the value survives
  // both selects) — both backends bitwise-identical.
  for (std::size_t i = 0; i < n; ++i) {
    float* row = x.data() + i * d;
    std::size_t k = 0;
    if (util::simd_enabled()) {
      namespace v = util::simd;
      const v::VFloat lo = v::broadcast(-kClamp);
      const v::VFloat hi = v::broadcast(kClamp);
      for (; k + v::kFloatLanes <= d; k += v::kFloatLanes) {
        const v::VFloat t =
            v::mul(v::sub(v::load(row + k), v::load(mean + k)),
                   v::load(inv_std + k));
        v::store(row + k, v::vmin(v::vmax(t, lo), hi));
      }
    }
    for (; k < d; ++k)
      row[k] = std::clamp((row[k] - mean[k]) * inv_std[k], -kClamp, kClamp);
  }
}

ml::Tensor SensoryMapper::prepare_signature(
    acoustics::AudioView audio, const PredictionHooks& hooks,
    std::array<bool, sensors::kNumMics>* healthy, double t0) const {
  acoustics::MultiChannelAudio transformed;
  if (hooks.audio_transform) {
    transformed = audio.copy();  // the hook mutates a copy, never the recording
    hooks.audio_transform(transformed, t0);
    audio = transformed;
  }
  ml::Tensor sig = compute_signature(audio, config_.dataset.signature);
  if (hooks.signature_transform) hooks.signature_transform(sig);
  if (healthy) {
    // Diagnose the audio the model would actually see and mask unhealthy
    // channels to the corpus mean (standardizes to exactly zero) — the
    // same neutral imputation as neutralize_frequency_group.
    std::array<faults::ChannelStats, sensors::kNumMics> stats;
    for (std::size_t c = 0; c < sensors::kNumMics; ++c)
      stats[c] = faults::analyze_channel(audio.channels[c]);
    *healthy = faults::healthy_channels(stats);
    const std::size_t per_channel = sig.row_size() / sensors::kNumMics;
    for (std::size_t c = 0; c < sensors::kNumMics; ++c) {
      if ((*healthy)[c]) continue;
      for (std::size_t k = c * per_channel; k < (c + 1) * per_channel; ++k)
        sig[k] = feat_mean_[k];
    }
  }
  standardize(sig);
  return sig;
}

std::vector<TimedPrediction> SensoryMapper::predict_prepared(
    std::span<const ml::Tensor> sigs, std::span<const WindowSpan> spans) const {
  if (!trained_) throw std::logic_error{"SensoryMapper: predict before fit"};
  if (sigs.size() != spans.size())
    throw std::invalid_argument{"predict_prepared: sigs/spans size mismatch"};
  std::vector<TimedPrediction> out;
  if (sigs.empty()) return out;

  const std::size_t n = sigs.size();
  // Every row is copied in below (or the call throws), so no zero fill.
  ml::Tensor batch({n, sigs[0].dim(1), sigs[0].dim(2), sigs[0].dim(3)},
                   ml::kNoFill);
  const std::size_t row = batch.row_size();
  for (std::size_t i = 0; i < n; ++i) {
    if (sigs[i].numel() != row)
      throw std::invalid_argument{"predict_prepared: ragged signature batch"};
    std::copy(sigs[i].flat().begin(), sigs[i].flat().end(),
              batch.data() + i * row);
  }
  const ml::Tensor pred = model_->infer(batch);
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::array<double, kLabelDim> y{};
    for (std::size_t d = 0; d < kLabelDim; ++d)
      y[d] = calib_a_[d] * static_cast<double>(pred[i * kLabelDim + d]) +
             calib_b_[d];
    out.push_back({spans[i].t0, spans[i].t1, Vec3{y[0], y[1], y[2]},
                   Vec3{y[3], y[4], y[5]}});
  }
  return out;
}

std::vector<TimedPrediction> SensoryMapper::predict_windows(
    acoustics::AudioView recording, const PredictionHooks& hooks,
    faults::HealthReport* health) const {
  obs::ScopedSpan span{"predict_windows", obs::Stage::kPredict};
  if (!trained_) throw std::logic_error{"SensoryMapper: predict before fit"};
  const auto& ds = config_.dataset;
  const double window_seconds = ds.signature.window_seconds;
  const auto grid = window_grid(
      ds.settle_time, ds.stride, window_seconds,
      static_cast<double>(recording.num_samples()) / recording.sample_rate);

  // Signature extraction (the expensive part) is independent per window and
  // runs in parallel over views of the one recording; see PredictionHooks
  // for the concurrency contract.  Channel diagnosis writes only its own
  // window's slot; the health tally is reduced serially, in window order,
  // after the loop.
  std::vector<ml::Tensor> sigs(grid.size());
  std::vector<std::array<bool, sensors::kNumMics>> healthy;
  if (health) healthy.assign(grid.size(), {});
  util::parallel_for(grid.size(), [&](std::size_t i) {
    sigs[i] = prepare_signature(recording_window(recording, grid[i].t0, window_seconds),
                                hooks, health ? &healthy[i] : nullptr, grid[i].t0);
  });

  if (health) {
    for (const auto& h : healthy) health->add_window_mask(h);
    health->windows_total += grid.size();
  }

  // Windows batch along the leading dim in grid-order chunks, one forward
  // after another — bitwise identical to per-window forwards because every
  // op processes batch rows independently (pinned by ml_test), and each
  // forward parallelizes inside its layers.  The chunk is the scheduler's
  // default max_batch: the layer graph holds each layer's output as its own
  // pooled tensor, so larger chunks grow what the workers' pools retain.
  std::vector<TimedPrediction> out;
  out.reserve(grid.size());
  constexpr std::size_t kInferBatch = 16;
  for (std::size_t start = 0; start < grid.size(); start += kInferBatch) {
    const std::size_t end = std::min(start + kInferBatch, grid.size());
    auto chunk = predict_prepared(
        std::span<const ml::Tensor>{sigs.data() + start, end - start},
        std::span<const WindowSpan>{grid.data() + start, end - start});
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  return out;
}

std::vector<TimedPrediction> SensoryMapper::predict_flight(
    const FlightLab& lab, const Flight& flight, const PredictionHooks& hooks,
    faults::HealthReport* health) const {
  const auto recording =
      lab.synthesizer(flight).synthesize(flight.log, 0.0, flight.log.duration());
  return predict_windows(recording, hooks, health);
}

namespace {

// SBMAPF02 frame (util::io::write_frame): magic, format version, payload
// size, CRC-32, then the payload.  The frame is validated before any payload
// field is parsed, so truncation and bit flips are caught up front instead
// of surfacing as a silently mis-sized model.
constexpr std::uint64_t kModelMagic = 0x53424d4150463032ULL;   // "SBMAPF02"
constexpr std::uint64_t kLegacyModelMagic = 0x53424d4150313032ULL;  // "SBMAP102"
constexpr std::uint32_t kFormatVersion = 2;

using util::io::read_pod;
using util::io::write_pod;

void reject(const std::string& path, const char* why) {
  obs::logf(obs::LogLevel::kWarn, "io", "rejecting model file %s: %s",
            path.c_str(), why);
}

void write_floats(std::ostream& os, const float* data, std::size_t n) {
  os.write(reinterpret_cast<const char*>(data),
           static_cast<std::streamsize>(n * sizeof(float)));
}

bool read_floats(std::istream& is, float* data, std::size_t n) {
  is.read(reinterpret_cast<char*>(data), static_cast<std::streamsize>(n * sizeof(float)));
  return static_cast<bool>(is);
}

}  // namespace

std::string model_format_tag() {
  return "SBMAPF02v" + std::to_string(kFormatVersion);
}

bool SensoryMapper::save(const std::string& path) const {
  std::ofstream file{path, std::ios::binary};
  if (!file) return false;
  return save(file);
}

bool SensoryMapper::save(std::ostream& out) const {
  if (!trained_) return false;
  std::ostringstream os{std::ios::binary};
  write_pod(os, static_cast<std::uint32_t>(config_.model));

  const auto params = model_->params();
  write_pod(os, static_cast<std::uint64_t>(params.size()));
  for (const ml::Param* p : params) {
    write_pod(os, static_cast<std::uint64_t>(p->value.numel()));
    write_floats(os, p->value.data(), p->value.numel());
  }

  // Persistent non-learnable state (batch-norm running statistics).
  const auto state = model_->state();
  write_pod(os, static_cast<std::uint64_t>(state.size()));
  for (const ml::Tensor* t : state) {
    write_pod(os, static_cast<std::uint64_t>(t->numel()));
    write_floats(os, t->data(), t->numel());
  }

  write_pod(os, static_cast<std::uint64_t>(feat_mean_.size()));
  write_floats(os, feat_mean_.data(), feat_mean_.size());
  write_floats(os, feat_inv_std_.data(), feat_inv_std_.size());
  for (double a : calib_a_) write_pod(os, a);
  for (double b : calib_b_) write_pod(os, b);
  if (!os) return false;

  util::io::write_frame(out, kModelMagic, kFormatVersion, os.str());
  return static_cast<bool>(out);
}

bool SensoryMapper::load(const std::string& path) {
  std::ifstream file{path, std::ios::binary};
  if (!file) return false;
  return load(file, path);
}

bool SensoryMapper::load(std::istream& file, const std::string& path) {
  std::string payload;
  std::uint64_t magic = 0;
  if (const char* why =
          util::io::read_frame(file, kModelMagic, kFormatVersion, payload, &magic)) {
    reject(path, magic == kLegacyModelMagic
                     ? "pre-framing format (no integrity checksum) — retrain and re-save"
                     : why);
    return false;
  }

  // The frame is intact, but its contents come from outside the program:
  // every count must match this mapper's configuration and the payload must
  // be consumed exactly, or the model stays untrained.
  trained_ = false;
  std::istringstream is{payload, std::ios::binary};
  std::uint32_t kind = 0;
  if (!read_pod(is, kind) || kind != static_cast<std::uint32_t>(config_.model))
    return false;

  const auto params = model_->params();
  std::uint64_t count = 0;
  if (!read_pod(is, count) || count != params.size()) return false;
  for (ml::Param* p : params) {
    std::uint64_t numel = 0;
    if (!read_pod(is, numel) || numel != p->value.numel() ||
        !read_floats(is, p->value.data(), p->value.numel()))
      return false;
  }

  const auto state = model_->state();
  std::uint64_t state_count = 0;
  if (!read_pod(is, state_count) || state_count != state.size()) return false;
  for (ml::Tensor* t : state) {
    std::uint64_t numel = 0;
    if (!read_pod(is, numel) || numel != t->numel() ||
        !read_floats(is, t->data(), t->numel()))
      return false;
  }

  // Standardization covers every signature feature; a shorter vector would
  // make standardize() skip and health masking read past its end.
  const auto shape = signature_shape(config_.dataset.signature);
  const std::uint64_t expected_feat = shape.channels * shape.frames * shape.bands;
  std::uint64_t feat = 0;
  if (!read_pod(is, feat) || feat != expected_feat) return false;
  feat_mean_.resize(feat);
  feat_inv_std_.resize(feat);
  if (!read_floats(is, feat_mean_.data(), feat) ||
      !read_floats(is, feat_inv_std_.data(), feat))
    return false;
  for (double& a : calib_a_)
    if (!read_pod(is, a)) return false;
  for (double& b : calib_b_)
    if (!read_pod(is, b)) return false;
  trained_ = util::io::at_end(is);
  return trained_;
}

double SensoryMapper::test_mse(const FlightLab& lab, std::span<const Flight> flights,
                               const PredictionHooks& hooks) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const Flight& f : flights) {
    const auto preds = predict_flight(lab, f, hooks);
    for (const auto& p : preds) {
      const Vec3 d = p.accel - f.log.mean_imu_accel(p.t0, p.t1);
      sum += d.norm_sq();
      n += 3;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace sb::core
