// Data-parallel minibatch training for regression models (MSE loss, Adam).
#pragma once

#include <vector>

#include "ml/layer.hpp"
#include "ml/model.hpp"

namespace sb::ml {

struct RegressionDataset {
  Tensor x;  // [N, ...]
  Tensor y;  // [N, output_dim]

  std::size_t size() const { return x.empty() ? 0 : x.dim(0); }
};

// Splits a dataset into (train, val) with the given validation fraction,
// shuffling with the provided rng.
std::pair<RegressionDataset, RegressionDataset> split_dataset(
    const RegressionDataset& data, double val_fraction, Rng& rng);

struct TrainConfig {
  std::size_t epochs = 12;
  std::size_t batch_size = 32;
  double lr = 1e-3;
  double weight_decay = 1e-4;
  double lr_decay = 1.0;  // per-epoch multiplicative decay
  std::uint64_t shuffle_seed = 1;
  // Batch size for the epoch-end / final evaluate_mse passes.  Bounds eval
  // peak memory to one batch of activations regardless of dataset size.
  std::size_t eval_batch_size = 64;
};

// Data-parallel sharding (DESIGN.md "Training performance"): each minibatch
// splits into kShardGrain-row shards — the grain is INDEPENDENT of the
// thread count — each shard runs forward+backward on a model replica, and
// per-shard gradient/loss/BatchNorm-stat partials reduce in ascending shard
// order, so trained weights are bit-identical in the seed at any
// SB_THREADS.  A batch of at most kShardGrain rows is one shard; larger
// batches associate gradient sums per shard and use per-shard (ghost)
// batch-norm statistics.
inline constexpr std::size_t kShardGrain = 8;

// Schema tag for training-math compatibility: bumped whenever a trainer
// change alters the numeric results of train_regressor for the same seeds
// (not just its speed).  Cached trained-model artifacts — the bench model
// caches — key their filenames on this tag so stale weights retrain instead
// of silently masquerading as current results.  "tr2" = sharded
// data-parallel engine with ghost batch-norm statistics (grain 8).
inline const char* trainer_schema_tag() { return "tr2"; }

struct TrainResult {
  std::vector<double> train_mse_per_epoch;
  std::vector<double> val_mse_per_epoch;
  double final_train_mse = 0.0;
  double final_val_mse = 0.0;
};

TrainResult train_regressor(Layer& model, const RegressionDataset& train,
                            const RegressionDataset& val, const TrainConfig& config);

}  // namespace sb::ml
