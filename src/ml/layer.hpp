// Layer abstraction: explicit forward/backward with parameter gradients
// accumulated in place (classic define-by-layer design; no autograd graph).
//
// Concurrency contract (DESIGN.md "Eval forward", "Training performance"):
// the eval forward infer() is const, so it writes no member state and any
// number of calls may run on one model at once.  The training forward
// forward_train() caches what backward needs and runs on a replicate()
// copy, one per worker.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "ml/tensor.hpp"

namespace sb::ml {

// A learnable parameter and its gradient accumulator.  Layers derive
// nothing from `value` that outlives a call, so the optimizer, the model
// loader, a replica sync or any other caller may write it in place.
struct Param {
  Tensor value;
  Tensor grad;

  explicit Param(Tensor v) : value(std::move(v)), grad(value.shape()) {}
  void zero_grad() { grad.fill(0.0f); }
};

class Layer {
 public:
  virtual ~Layer() = default;

  // Eval forward: normalizes with persistent statistics (BatchNorm's
  // running mean/var) and fills each output once.  Serving, calibration,
  // validation and the DNN baseline all run it, concurrently on one model
  // where they like.
  virtual Tensor infer(const Tensor& x) const = 0;

  // Training forward: normalizes with batch statistics and caches whatever
  // backward needs.
  virtual Tensor forward_train(const Tensor& x) = 0;

  // Backward pass: receives dLoss/dOutput, accumulates every parameter
  // gradient and returns dLoss/dInput.  Must follow forward_train.
  // With want_input_grad == false the caller discards dLoss/dInput (the
  // trainer's first layer): the layer still accumulates every parameter
  // gradient, and may skip the input gradient and return an empty tensor.
  virtual Tensor backward(const Tensor& grad_out, bool want_input_grad) = 0;

  virtual std::vector<Param*> params() { return {}; }

  // Non-learnable persistent state (e.g. batch-norm running statistics).
  // Serialization must persist these alongside params() or a reloaded model
  // will not reproduce the trained one's infer() behaviour.
  virtual std::vector<Tensor*> state() { return {}; }

  // Deep copy for data-parallel training (DESIGN.md "Training performance").
  // Training forwards cache activations for backward, so the trainer runs
  // concurrent shard forwards on replicas, never on one model.  A replica
  // owns its own weights AND caches and shares no mutable state with the
  // original; the trainer re-syncs weights from the primary after each
  // optimizer step.
  virtual std::unique_ptr<Layer> replicate() const = 0;

  // Ghost-batch statistics protocol for the sharded trainer: a replica that
  // computed per-shard batch statistics in its training forward (BatchNorm's
  // mean/var) exports them here, and the PRIMARY absorbs them — in ascending
  // shard order, applying the exact running-update expression the serial
  // forward uses — so persistent state stays deterministic at any thread or
  // replica count.  Size must be constant per layer; export order == absorb
  // order (structural traversal).
  virtual std::size_t shard_stats_size() const { return 0; }
  virtual void export_shard_stats(std::span<float>) const {}
  virtual void absorb_shard_stats(std::span<const float>) {}
};

// Runs sub-layers in order.
class Sequential final : public Layer {
 public:
  Sequential() = default;

  Sequential& add(std::unique_ptr<Layer> layer) {
    layers_.push_back(std::move(layer));
    return *this;
  }

  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    layers_.push_back(std::make_unique<L>(std::forward<Args>(args)...));
    return *this;
  }

  // The first child reads x directly; no copy of the input is made.
  Tensor infer(const Tensor& x) const override {
    if (layers_.empty()) return x;
    Tensor h = layers_.front()->infer(x);
    for (std::size_t i = 1; i < layers_.size(); ++i) h = layers_[i]->infer(h);
    return h;
  }

  Tensor forward_train(const Tensor& x) override {
    if (layers_.empty()) return x;
    Tensor h = layers_.front()->forward_train(x);
    for (std::size_t i = 1; i < layers_.size(); ++i)
      h = layers_[i]->forward_train(h);
    return h;
  }

  // Only the first child's input gradient is the caller's; every later
  // child's feeds the layer before it.
  Tensor backward(const Tensor& grad_out, bool want_input_grad) override {
    if (layers_.empty()) return want_input_grad ? grad_out : Tensor{};
    std::size_t i = layers_.size() - 1;
    Tensor g = layers_[i]->backward(grad_out, i > 0 || want_input_grad);
    while (i-- > 0) g = layers_[i]->backward(g, i > 0 || want_input_grad);
    return g;
  }

  std::vector<Param*> params() override {
    std::vector<Param*> out;
    for (auto& l : layers_)
      for (Param* p : l->params()) out.push_back(p);
    return out;
  }

  std::vector<Tensor*> state() override {
    std::vector<Tensor*> out;
    for (auto& l : layers_)
      for (Tensor* t : l->state()) out.push_back(t);
    return out;
  }

  // Shard stats concatenate child spans in layer order (the same structural
  // order on every replica).
  std::unique_ptr<Layer> replicate() const override {
    auto copy = std::make_unique<Sequential>();
    for (const auto& l : layers_) copy->layers_.push_back(l->replicate());
    return copy;
  }

  std::size_t shard_stats_size() const override {
    std::size_t n = 0;
    for (const auto& l : layers_) n += l->shard_stats_size();
    return n;
  }

  void export_shard_stats(std::span<float> out) const override {
    std::size_t off = 0;
    for (const auto& l : layers_) {
      const std::size_t n = l->shard_stats_size();
      l->export_shard_stats(out.subspan(off, n));
      off += n;
    }
  }

  void absorb_shard_stats(std::span<const float> in) override {
    std::size_t off = 0;
    for (auto& l : layers_) {
      const std::size_t n = l->shard_stats_size();
      l->absorb_shard_stats(in.subspan(off, n));
      off += n;
    }
  }

  std::size_t size() const { return layers_.size(); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace sb::ml
