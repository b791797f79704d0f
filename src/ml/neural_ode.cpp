#include "ml/neural_ode.hpp"

#include <cmath>
#include <stdexcept>

namespace sb::ml {
namespace {

void check_state(const Tensor& x, std::size_t d) {
  if (x.ndim() != 2 || x.dim(1) != d)
    throw std::invalid_argument{"NeuralOdeBlock: expected [N, D]"};
}

}  // namespace

NeuralOdeBlock::NeuralOdeBlock(std::size_t state_dim, std::size_t hidden_dim,
                               std::size_t steps, Rng& rng)
    : d_(state_dim),
      hidden_(hidden_dim),
      steps_(steps),
      w1_(Tensor::he_normal({hidden_dim, state_dim}, state_dim, rng)),
      b1_(Tensor::zeros({hidden_dim})),
      w2_(Tensor::he_normal({state_dim, hidden_dim}, hidden_dim, rng)),
      b2_(Tensor::zeros({state_dim})) {}

Tensor NeuralOdeBlock::eval_f(const Tensor& h, Tensor& act) const {
  const std::size_t n = h.dim(0);
  act = Tensor({n, hidden_});
  Tensor out({n, d_});
  for (std::size_t i = 0; i < n; ++i) {
    const float* hi = h.data() + i * d_;
    float* ai = act.data() + i * hidden_;
    for (std::size_t j = 0; j < hidden_; ++j) {
      const float* w = w1_.value.data() + j * d_;
      float s = b1_.value[j];
      for (std::size_t k = 0; k < d_; ++k) s += w[k] * hi[k];
      ai[j] = std::tanh(s);
    }
    float* oi = out.data() + i * d_;
    for (std::size_t j = 0; j < d_; ++j) {
      const float* w = w2_.value.data() + j * hidden_;
      float s = b2_.value[j];
      for (std::size_t k = 0; k < hidden_; ++k) s += w[k] * ai[k];
      oi[j] = s;
    }
  }
  return out;
}

Tensor NeuralOdeBlock::infer(const Tensor& x) const {
  check_state(x, d_);
  const float dt = 1.0f / static_cast<float>(steps_);
  Tensor h = x;
  Tensor act;
  for (std::size_t s = 0; s < steps_; ++s) h.add_scaled(eval_f(h, act), dt);
  return h;
}

Tensor NeuralOdeBlock::forward_train(const Tensor& x) {
  check_state(x, d_);
  const float dt = 1.0f / static_cast<float>(steps_);
  states_.assign(1, x);
  acts_.assign(steps_, Tensor{});
  Tensor h = x;
  for (std::size_t s = 0; s < steps_; ++s) {
    h.add_scaled(eval_f(h, acts_[s]), dt);
    states_.push_back(h);
  }
  return h;
}

Tensor NeuralOdeBlock::backward(const Tensor& grad_out, bool /*want_input_grad*/) {
  const float dt = 1.0f / static_cast<float>(steps_);
  const std::size_t n = grad_out.dim(0);
  Tensor dh = grad_out;  // gradient wrt h_s, starting at s = K

  for (std::size_t s = steps_; s-- > 0;) {
    // h_{s+1} = h_s + dt * f(h_s)  =>  dL/dh_s = dh + dt * J_f^T dh.
    const Tensor& h = states_[s];
    const Tensor& act = acts_[s];

    Tensor df({n, d_});  // dt * dh, gradient into f's output
    for (std::size_t i = 0; i < df.numel(); ++i) df[i] = dt * dh[i];

    // Backprop through f: out = W2 a + b2, a = tanh(W1 h + b1).
    Tensor da({n, hidden_});
    for (std::size_t i = 0; i < n; ++i) {
      const float* dfi = df.data() + i * d_;
      const float* ai = act.data() + i * hidden_;
      float* dai = da.data() + i * hidden_;
      for (std::size_t j = 0; j < d_; ++j) {
        const float g = dfi[j];
        if (g == 0.0f) continue;
        b2_.grad[j] += g;
        float* gw = w2_.grad.data() + j * hidden_;
        const float* w = w2_.value.data() + j * hidden_;
        for (std::size_t k = 0; k < hidden_; ++k) {
          gw[k] += g * ai[k];
          dai[k] += g * w[k];
        }
      }
    }
    Tensor dh_from_f({n, d_});
    for (std::size_t i = 0; i < n; ++i) {
      const float* ai = act.data() + i * hidden_;
      float* dai = da.data() + i * hidden_;
      const float* hi = h.data() + i * d_;
      float* dhi = dh_from_f.data() + i * d_;
      for (std::size_t j = 0; j < hidden_; ++j) {
        const float dpre = dai[j] * (1.0f - ai[j] * ai[j]);
        if (dpre == 0.0f) continue;
        b1_.grad[j] += dpre;
        float* gw = w1_.grad.data() + j * d_;
        const float* w = w1_.value.data() + j * d_;
        for (std::size_t k = 0; k < d_; ++k) {
          gw[k] += dpre * hi[k];
          dhi[k] += dpre * w[k];
        }
      }
    }
    dh.add_scaled(dh_from_f, 1.0f);
  }
  return dh;
}

}  // namespace sb::ml
