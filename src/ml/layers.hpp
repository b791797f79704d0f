// Core layers: Dense, activations, BatchNorm, pooling.
#pragma once

#include "ml/layer.hpp"

namespace sb::ml {

// Fully connected: x [N, ...] -> [N, out], reading each dim-0 row of x
// (C·H·W floats of a [N, C, H, W] signature, say) as its `in` features.
// Backward returns dX in x's shape.
class Dense final : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features, Rng& rng);

  Tensor infer(const Tensor& x) const override;
  Tensor forward_train(const Tensor& x) override {
    cached_x_ = x;
    return infer(x);
  }
  Tensor backward(const Tensor& grad_out, bool want_input_grad) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  std::unique_ptr<Layer> replicate() const override {
    return std::make_unique<Dense>(*this);
  }

 private:
  std::size_t in_, out_;
  Param weight_;  // [out, in]
  Param bias_;    // [out]
  Tensor cached_x_;
};

// A standalone activation layer (MLP).  A ReLU that follows a BatchNorm is
// that BatchNorm's Activation instead.
class ReLU final : public Layer {
 public:
  // cap <= 0 means plain ReLU; cap = 6 gives the ReLU6 used by MobileNet.
  explicit ReLU(float cap = 0.0f) : cap_(cap) {}
  Tensor infer(const Tensor& x) const override;
  Tensor forward_train(const Tensor& x) override {
    cached_x_ = x;
    return infer(x);
  }
  Tensor backward(const Tensor& grad_out, bool want_input_grad) override;
  std::unique_ptr<Layer> replicate() const override {
    return std::make_unique<ReLU>(*this);
  }

 private:
  float cap_;
  Tensor cached_x_;
};

class Tanh final : public Layer {
 public:
  Tensor infer(const Tensor& x) const override;
  Tensor forward_train(const Tensor& x) override {
    cached_y_ = infer(x);
    return cached_y_;
  }
  Tensor backward(const Tensor& grad_out, bool want_input_grad) override;
  std::unique_ptr<Layer> replicate() const override {
    return std::make_unique<Tanh>(*this);
  }

 private:
  Tensor cached_y_;
};

// The clamp a BatchNorm applies to its output: none, ReLU (max(y, 0)) or
// ReLU6 (min(max(y, 0), 6)).
enum class Activation { kNone, kRelu, kRelu6 };

// Batch normalization over a [N, C, H, W] tensor, per channel.  Also accepts
// [N, C] (treated as H = W = 1).  With an Activation it is also the ReLU or
// ReLU6 that follows it: the forward writes the clamped output in its one
// pass, and backward masks the incoming gradient on the recomputed
// gamma * xhat + beta — bit for bit BatchNorm followed by ReLU(cap), without
// the extra pass or the cached copy of the activation.
class BatchNorm final : public Layer {
 public:
  explicit BatchNorm(std::size_t channels, Activation act = Activation::kNone,
                     float momentum = 0.9f, float eps = 1e-5f);

  Tensor infer(const Tensor& x) const override;
  Tensor forward_train(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out, bool want_input_grad) override;
  std::vector<Param*> params() override { return {&gamma_, &beta_}; }
  std::vector<Tensor*> state() override { return {&running_mean_, &running_var_}; }
  std::unique_ptr<Layer> replicate() const override {
    return std::make_unique<BatchNorm>(*this);
  }

  // Ghost-batch protocol: a replica's training forward caches its shard's
  // (mean, var); the primary replays the exact serial running-update
  // expression per shard, in ascending shard order.
  std::size_t shard_stats_size() const override { return 2 * channels_; }
  void export_shard_stats(std::span<float> out) const override {
    for (std::size_t ch = 0; ch < channels_; ++ch) {
      out[ch] = cached_mean_[ch];
      out[channels_ + ch] = cached_var_[ch];
    }
  }
  void absorb_shard_stats(std::span<const float> in) override {
    for (std::size_t ch = 0; ch < channels_; ++ch) {
      running_mean_[ch] =
          momentum_ * running_mean_[ch] + (1 - momentum_) * in[ch];
      running_var_[ch] =
          momentum_ * running_var_[ch] + (1 - momentum_) * in[channels_ + ch];
    }
  }

 private:
  std::size_t channels_;
  bool relu_;  // clamp at 0 (both activations)
  float cap_;  // upper clamp, 0 = none (ReLU's convention)
  float momentum_, eps_;
  Param gamma_, beta_;
  Tensor running_mean_, running_var_;
  // Caches for backward (cached_var_ also feeds export_shard_stats).
  Tensor cached_xhat_;
  std::vector<float> cached_mean_, cached_var_, cached_inv_std_;
  std::size_t cached_n_ = 0, cached_hw_ = 0;
};

// Global average pooling: [N, C, H, W] -> [N, C].
class GlobalAvgPool final : public Layer {
 public:
  Tensor infer(const Tensor& x) const override;
  Tensor forward_train(const Tensor& x) override {
    cached_shape_ = x.shape();
    return infer(x);
  }
  Tensor backward(const Tensor& grad_out, bool want_input_grad) override;
  std::unique_ptr<Layer> replicate() const override {
    return std::make_unique<GlobalAvgPool>(*this);
  }

 private:
  Shape cached_shape_;
};

}  // namespace sb::ml
