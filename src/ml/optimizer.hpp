// Adam, the trainer's first-order optimizer over a parameter set.
#pragma once

#include <unordered_map>
#include <vector>

#include "ml/layer.hpp"

namespace sb::ml {

// weight_decay is decoupled (AdamW-style).
class Adam {
 public:
  Adam(std::vector<Param*> params, double lr, double beta1 = 0.9, double beta2 = 0.999,
       double eps = 1e-8, double weight_decay = 0.0);

  void zero_grad();
  void step() { run_step(false); }
  // Fused mutate+clear: `step(); zero_grad();` in a single SIMD sweep per
  // parameter (one load/store pass instead of two), bitwise-identical to the
  // unfused pair on both backends.  Callers that drop their explicit
  // zero_grad() in favour of this must still clear stale gradients once
  // before the first backward.
  void step_and_zero_grad() { run_step(true); }

  void set_lr(double lr) { lr_ = lr; }

 private:
  void run_step(bool zero_grads);

  std::vector<Param*> params_;
  double lr_, beta1_, beta2_, eps_, weight_decay_;
  long step_count_ = 0;
  std::unordered_map<Param*, Tensor> m_, v_;
};

}  // namespace sb::ml
