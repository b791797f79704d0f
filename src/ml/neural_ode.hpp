// Fixed-step Neural ODE block (discretize-then-optimize).
//
// The hidden state evolves as dh/dt = f(h) with f a two-layer tanh MLP;
// integration uses K explicit Euler steps with shared weights, and the
// backward pass backpropagates through the unrolled integration graph.
// This is the third model family the paper evaluates for acoustic sensory
// mapping (§III-B, "Neural Ordinary Differential Equations model").
#pragma once

#include "ml/layer.hpp"

namespace sb::ml {

class NeuralOdeBlock final : public Layer {
 public:
  // state_dim: dimension of h; hidden_dim: width of f's hidden layer;
  // steps: number of Euler steps over t in [0, 1].
  NeuralOdeBlock(std::size_t state_dim, std::size_t hidden_dim, std::size_t steps,
                 Rng& rng);

  Tensor infer(const Tensor& x) const override;
  Tensor forward_train(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out, bool want_input_grad) override;
  std::vector<Param*> params() override { return {&w1_, &b1_, &w2_, &b2_}; }

  std::unique_ptr<Layer> replicate() const override {
    return std::make_unique<NeuralOdeBlock>(*this);
  }

 private:
  // f(h) = W2 tanh(W1 h + b1) + b2, evaluated on [N, D] batches; the tanh
  // activations land in `act`.
  Tensor eval_f(const Tensor& h, Tensor& act) const;

  std::size_t d_, hidden_, steps_;
  Param w1_, b1_, w2_, b2_;

  // Caches of the last training forward: state at every step + hidden
  // activations.
  std::vector<Tensor> states_;   // h_0..h_K  ([N, D] each)
  std::vector<Tensor> acts_;     // tanh activations per step ([N, hidden])
};

}  // namespace sb::ml
