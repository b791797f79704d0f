// Loss functions, inference helpers, and the data-parallel replica team
// shared by the trainer and by the SoundBoost sensory-mapping stage.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "ml/layer.hpp"

namespace sb::ml {

// Mean squared error over all elements; grad is dLoss/dPred.
struct MseLoss {
  double value = 0.0;
  Tensor grad;
};

MseLoss mse_loss(const Tensor& pred, const Tensor& target);

// Shard-local loss for the data-parallel trainer: the shard's raw
// squared-error sum (double, ascending element order) plus dLoss/dPred with
// every element scaled by `grad_scale`.  The trainer passes 2 / batch_numel
// — NOT 2 / shard_numel — so per-shard parameter gradients sum (in ascending
// shard order) to a full-batch mse_loss gradient, and a single shard
// reproduces the serial loop bitwise.
struct ShardLoss {
  double sq_err = 0.0;
  Tensor grad;
};

ShardLoss shard_mse_loss(const Tensor& pred, const Tensor& target,
                         float grad_scale);

// Eval-mode MSE of the model over a dataset, computed in batches.
double evaluate_mse(Layer& model, const Tensor& x, const Tensor& y,
                    std::size_t batch_size = 64);

// Data-parallel training replicas (DESIGN.md "Training performance").
// Training forwards are not reentrant — every layer caches activations for
// backward — so concurrent shard forwards run on deep copies built through
// Layer::replicate().  Replicas own their weights and caches; the trainer
// re-syncs weights from the primary after each optimizer step and replicas
// never serve eval traffic, so their persistent state (BatchNorm running
// stats) is scratch.  Construction zeroes replica gradients.
class ReplicaTeam {
 public:
  // Builds `count` replicas of `primary`; empty() when any layer opts out
  // of replication (the trainer then falls back to the serial loop).
  ReplicaTeam(const Layer& primary, std::size_t count);

  bool empty() const { return replicas_.empty(); }
  std::size_t size() const { return replicas_.size(); }
  Layer& replica(std::size_t i) { return *replicas_[i]; }
  const std::vector<Param*>& replica_params(std::size_t i) const {
    return replica_params_[i];
  }

  // Exclusive replica checkout for one shard inside a parallel region.
  // Blocks only when more chunks execute concurrently than replicas exist
  // (replica count below the thread count); which replica runs which shard
  // never affects results — shard outputs land in per-shard slots.
  std::size_t acquire();
  void release(std::size_t i);

  // Copies the primary's parameter values into every replica and bumps the
  // replica Param versions (invalidating packed backward operands).  Driver
  // thread only, between parallel regions.
  void sync_weights(const std::vector<Param*>& primary_params);

 private:
  std::vector<std::unique_ptr<Layer>> replicas_;
  std::vector<std::vector<Param*>> replica_params_;
  std::mutex mutex_;
  std::condition_variable available_;
  std::vector<std::size_t> free_;
};

}  // namespace sb::ml
