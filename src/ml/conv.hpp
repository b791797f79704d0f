// 2-D convolutions, standard and depthwise, plus the residual block used by
// ResNetLite.
#pragma once

#include "ml/layer.hpp"
#include "ml/layers.hpp"

namespace sb::ml {

// Standard convolution: x [N, inC, H, W] -> [N, outC, H', W'], lowered to
// im2col plus the shared GEMM kernels.  Backward takes dW from matmul_nn
// over the transposed patch matrix and dX from matmul_tn over the weights
// as they are; with want_input_grad == false it computes no input gradient
// at all.
class Conv2D final : public Layer {
 public:
  Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t stride, std::size_t padding, Rng& rng);

  Tensor infer(const Tensor& x) const override;
  Tensor forward_train(const Tensor& x) override {
    cached_x_ = x;
    return infer(x);
  }
  Tensor backward(const Tensor& grad_out, bool want_input_grad) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  std::unique_ptr<Layer> replicate() const override {
    return std::make_unique<Conv2D>(*this);
  }

 private:
  // 1x1, stride 1, unpadded: x is its own patch matrix, so forward and dX
  // skip im2col and col2im_add.
  bool is_pointwise() const { return k_ == 1 && stride_ == 1 && pad_ == 0; }

  std::size_t in_c_, out_c_, k_, stride_, pad_;
  Param weight_;  // [outC, inC, k, k]
  Param bias_;    // [outC]
  Tensor cached_x_;
};

// Depthwise convolution: one k x k filter per channel, run as a direct
// kernel over each zero-padded plane (no im2col).
class DepthwiseConv2D final : public Layer {
 public:
  DepthwiseConv2D(std::size_t channels, std::size_t kernel, std::size_t stride,
                  std::size_t padding, Rng& rng);

  Tensor infer(const Tensor& x) const override;
  Tensor forward_train(const Tensor& x) override {
    cached_x_ = x;
    return infer(x);
  }
  Tensor backward(const Tensor& grad_out, bool want_input_grad) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  std::unique_ptr<Layer> replicate() const override {
    return std::make_unique<DepthwiseConv2D>(*this);
  }

 private:
  std::size_t c_, k_, stride_, pad_;
  Param weight_;  // [C, k, k]
  Param bias_;    // [C]
  Tensor cached_x_;
};

// ResNet-style basic block: two 3x3 convs with BN (the first one's ReLU
// fused into it), identity (or 1x1 projection) shortcut, ReLU after the sum.
class ResidualBlock final : public Layer {
 public:
  ResidualBlock(std::size_t in_channels, std::size_t out_channels, std::size_t stride,
                Rng& rng);

  Tensor infer(const Tensor& x) const override;
  Tensor forward_train(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out, bool want_input_grad) override;
  std::vector<Param*> params() override;
  std::vector<Tensor*> state() override;
  std::unique_ptr<Layer> replicate() const override;
  // Shard stats concatenate main then shortcut — the same structural order
  // the replica exported in.
  std::size_t shard_stats_size() const override {
    return main_.shard_stats_size() +
           (shortcut_ ? shortcut_->shard_stats_size() : 0);
  }
  void export_shard_stats(std::span<float> out) const override {
    const std::size_t n = main_.shard_stats_size();
    main_.export_shard_stats(out.subspan(0, n));
    if (shortcut_) shortcut_->export_shard_stats(out.subspan(n));
  }
  void absorb_shard_stats(std::span<const float> in) override {
    const std::size_t n = main_.shard_stats_size();
    main_.absorb_shard_stats(in.subspan(0, n));
    if (shortcut_) shortcut_->absorb_shard_stats(in.subspan(n));
  }

 private:
  ResidualBlock() = default;

  Sequential main_;
  std::unique_ptr<Sequential> shortcut_;  // null = identity
  Tensor cached_sum_;                     // pre-ReLU sum, for the ReLU mask
};

}  // namespace sb::ml
