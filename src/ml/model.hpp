// The squared-error loss, eval-forward MSE, and the data-parallel replica team
// shared by the trainer and by the SoundBoost sensory-mapping stage.
#pragma once

#include <memory>
#include <vector>

#include "ml/layer.hpp"

namespace sb::ml {

// Squared error over all elements: the raw squared-error sum (double,
// ascending element order) plus dLoss/dPred with every element scaled by
// `grad_scale`.  grad_scale = 2 / numel gives the gradient of the mean
// squared error.  The trainer passes 2 / batch_numel to every shard — NOT
// 2 / shard_numel — so per-shard parameter gradients sum (in ascending
// shard order) to the full batch's.
struct SquaredError {
  double sq_err = 0.0;
  Tensor grad;
};

SquaredError squared_error(const Tensor& pred, const Tensor& target,
                           float grad_scale);

// Eval-forward MSE of the model over a dataset, computed in batches.
double evaluate_mse(const Layer& model, const Tensor& x, const Tensor& y,
                    std::size_t batch_size = 64);

// Data-parallel training replicas (DESIGN.md "Training performance").
// Training forwards cache activations for backward, so concurrent shard
// forwards run on deep copies built through Layer::replicate(): replica r
// runs shards r, r+R, r+2R, ... of each minibatch, one replica per worker.
// Replicas own their weights and caches; the trainer re-syncs weights from
// the primary after each optimizer step and replicas never serve eval
// traffic, so their persistent state (BatchNorm running stats) is scratch.
// Construction zeroes replica gradients.
class ReplicaTeam {
 public:
  ReplicaTeam(const Layer& primary, std::size_t count);

  std::size_t size() const { return replicas_.size(); }
  Layer& replica(std::size_t i) { return *replicas_[i]; }
  const std::vector<Param*>& replica_params(std::size_t i) const {
    return replica_params_[i];
  }

  // Copies the primary's parameter values into every replica.  Driver
  // thread only, between parallel regions.
  void sync_weights(const std::vector<Param*>& primary_params);

 private:
  std::vector<std::unique_ptr<Layer>> replicas_;
  std::vector<std::vector<Param*>> replica_params_;
};

}  // namespace sb::ml
