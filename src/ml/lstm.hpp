// Single-layer LSTM returning the final hidden state, used by the DNN
// baseline (Ding et al.) that approximates the UAV's control dynamics from
// time-series data.
#pragma once

#include "ml/layer.hpp"

namespace sb::ml {

class Lstm final : public Layer {
 public:
  // Input [N, T, input_size]; output [N, hidden_size] = h_T.
  Lstm(std::size_t input_size, std::size_t hidden_size, std::size_t seq_len, Rng& rng);

  Tensor infer(const Tensor& x) const override;
  Tensor forward_train(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out, bool want_input_grad) override;
  std::vector<Param*> params() override { return {&wx_, &wh_, &b_}; }

  std::unique_ptr<Layer> replicate() const override {
    return std::make_unique<Lstm>(*this);
  }

 private:
  // One time step over the [N, T, D] input: gate = act(b + Wx x_t +
  // Wh h_prev) into [N, 4H], then cell = f*c_prev + i*g and hidden =
  // o*tanh(cell) into [N, H].  cell/hidden may alias c_prev/h_prev: h_prev
  // is read in full before the first write, and each element of c_prev is
  // read before its own slot is written.
  void step(const Tensor& x, std::size_t t, const float* h_prev,
            const float* c_prev, float* gate, float* cell, float* hidden) const;

  std::size_t d_, h_, t_;
  // Gate order: [input, forget, cell(g), output], stacked along dim 0.
  Param wx_;  // [4H, D]
  Param wh_;  // [4H, H]
  Param b_;   // [4H]

  // Caches of the last training forward (batch x time).
  Tensor cached_x_;                  // [N, T, D]
  std::vector<Tensor> gates_;        // per t: [N, 4H] post-activation
  std::vector<Tensor> cells_;        // per t: [N, H] (c_t)
  std::vector<Tensor> hiddens_;      // per t: [N, H] (h_t)
};

}  // namespace sb::ml
