#include "ml/lstm.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "ml/gemm.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace sb::ml {
namespace {

float sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

void check_sequence(const Tensor& x, std::size_t t, std::size_t d) {
  if (x.ndim() != 3 || x.dim(1) != t || x.dim(2) != d)
    throw std::invalid_argument{"Lstm: expected [N, T, D]"};
}

}  // namespace

Lstm::Lstm(std::size_t input_size, std::size_t hidden_size, std::size_t seq_len,
           Rng& rng)
    : d_(input_size),
      h_(hidden_size),
      t_(seq_len),
      wx_(Tensor::he_normal({4 * hidden_size, input_size}, input_size, rng)),
      wh_(Tensor::he_normal({4 * hidden_size, hidden_size}, hidden_size, rng)),
      b_(Tensor::zeros({4 * hidden_size})) {
  // Positive forget-gate bias: standard trick for gradient flow.
  for (std::size_t i = h_; i < 2 * h_; ++i) b_.value[i] = 1.0f;
}

Tensor Lstm::infer(const Tensor& x) const {
  check_sequence(x, t_, d_);
  const std::size_t n = x.dim(0);
  // h and c start at zero and update in place; the gate buffer is fully
  // rewritten every step.
  Tensor gate({n, 4 * h_}, kNoFill);
  Tensor cell({n, h_});
  Tensor hidden({n, h_});
  for (std::size_t t = 0; t < t_; ++t)
    step(x, t, hidden.data(), cell.data(), gate.data(), cell.data(),
         hidden.data());
  return hidden;
}

Tensor Lstm::forward_train(const Tensor& x) {
  check_sequence(x, t_, d_);
  cached_x_ = x;
  const std::size_t n = cached_x_.dim(0);
  gates_.assign(t_, Tensor({n, 4 * h_}));
  cells_.assign(t_, Tensor({n, h_}));
  hiddens_.assign(t_, Tensor({n, h_}));
  const Tensor zeros({n, h_});
  for (std::size_t t = 0; t < t_; ++t) {
    const Tensor& h_prev = t > 0 ? hiddens_[t - 1] : zeros;
    const Tensor& c_prev = t > 0 ? cells_[t - 1] : zeros;
    step(cached_x_, t, h_prev.data(), c_prev.data(), gates_[t].data(),
         cells_[t].data(), hiddens_[t].data());
  }
  return hiddens_.back();
}

void Lstm::step(const Tensor& x, std::size_t t, const float* h_prev,
                const float* c_prev, float* gate, float* cell,
                float* hidden) const {
  const std::size_t n = x.dim(0);
  // Gate pre-activations: bias, then += Wx x_t, then += Wh h_prev — both
  // chained accumulating GEMMs with ascending-k dots, reproducing the
  // classic per-gate loop's floating-point sums exactly.  x_t is a strided
  // view into the [N, T, D] input (row stride T*D).
  for (std::size_t i = 0; i < n; ++i) {
    float* gt = gate + i * 4 * h_;
    for (std::size_t g = 0; g < 4 * h_; ++g) gt[g] = b_.value[g];
  }
  matmul_nt(x.data() + t * d_, t_ * d_, wx_.value.data(), d_, gate, 4 * h_, n,
            d_, 4 * h_, true);
  matmul_nt(h_prev, h_, wh_.value.data(), h_, gate, 4 * h_, n, h_, 4 * h_,
            true);

  // The cell update splits into three passes with no cross-element
  // dependencies, so splitting cannot change any per-element result: the
  // libm activations stay scalar, while the purely arithmetic middle pass
  // (ct = fg*cp + ig*gg, scalar mul/mul/add order) vectorizes.
  util::parallel_for(n, [&](std::size_t i) {
    float* gt = gate + i * 4 * h_;
    const float* cp = c_prev + i * h_;
    float* ct = cell + i * h_;
    float* ht = hidden + i * h_;
    for (std::size_t k = 0; k < h_; ++k) {
      gt[k] = sigmoid(gt[k]);
      gt[h_ + k] = sigmoid(gt[h_ + k]);
      gt[2 * h_ + k] = std::tanh(gt[2 * h_ + k]);
      gt[3 * h_ + k] = sigmoid(gt[3 * h_ + k]);
    }
    std::size_t k = 0;
    if (util::simd_enabled()) {
      namespace v = util::simd;
      for (; k + v::kFloatLanes <= h_; k += v::kFloatLanes) {
        const v::VFloat ig = v::load(gt + k);
        const v::VFloat fg = v::load(gt + h_ + k);
        const v::VFloat gg = v::load(gt + 2 * h_ + k);
        v::store(ct + k, v::add(v::mul(fg, v::load(cp + k)), v::mul(ig, gg)));
      }
    }
    for (; k < h_; ++k) ct[k] = gt[h_ + k] * cp[k] + gt[k] * gt[2 * h_ + k];
    for (std::size_t j = 0; j < h_; ++j)
      ht[j] = gt[3 * h_ + j] * std::tanh(ct[j]);
  });
}

Tensor Lstm::backward(const Tensor& grad_out, bool /*want_input_grad*/) {
  const std::size_t n = cached_x_.dim(0);
  Tensor grad_x(cached_x_.shape());
  Tensor dh = grad_out;        // [N, H] gradient flowing into h_t
  Tensor dc({n, h_});          // gradient flowing into c_t
  Tensor dgates({n, 4 * h_});  // pre-activation gate gradients, per step

  for (std::size_t t = t_; t-- > 0;) {
    const Tensor& gate = gates_[t];
    const Tensor& cell = cells_[t];
    Tensor dh_prev({n, h_});
    Tensor dc_prev({n, h_});

    // Per-item gate gradients (disjoint rows of dgates / dc_prev).
    util::parallel_for(n, [&](std::size_t i) {
      const float* gt = gate.data() + i * 4 * h_;
      const float* ct = cell.data() + i * h_;
      const float* cp = t > 0 ? cells_[t - 1].data() + i * h_ : nullptr;
      const float* dht = dh.data() + i * h_;
      float* dct = dc.data() + i * h_;
      float* dcp = dc_prev.data() + i * h_;
      float* dgt = dgates.data() + i * 4 * h_;

      for (std::size_t k = 0; k < h_; ++k) {
        const float ig = gt[k], fg = gt[h_ + k], gg = gt[2 * h_ + k],
                    og = gt[3 * h_ + k];
        const float tanh_c = std::tanh(ct[k]);
        const float dc_total = dct[k] + dht[k] * og * (1.0f - tanh_c * tanh_c);
        const float c_prev_v = cp ? cp[k] : 0.0f;

        dgt[k] = dc_total * gg * ig * (1.0f - ig);
        dgt[h_ + k] = dc_total * c_prev_v * fg * (1.0f - fg);
        dgt[2 * h_ + k] = dc_total * ig * (1.0f - gg * gg);
        dgt[3 * h_ + k] = dht[k] * tanh_c * og * (1.0f - og);
        dcp[k] = dc_total * fg;
      }
    });

    // dBias: batch items in ascending order (matches the inner GEMM order).
    for (std::size_t i = 0; i < n; ++i) {
      const float* dgt = dgates.data() + i * 4 * h_;
      for (std::size_t g = 0; g < 4 * h_; ++g) b_.grad[g] += dgt[g];
    }

    // dWx += dgates^T x_t; dX_t = dgates Wx (strided slices of the [N, T, D]
    // gradient); dWh += dgates^T h_{t-1}; dh_prev = dgates Wh.
    matmul_tn(dgates.data(), 4 * h_, cached_x_.data() + t * d_, t_ * d_,
              wx_.grad.data(), d_, 4 * h_, n, d_, true);
    matmul_nn(dgates.data(), 4 * h_, wx_.value.data(), d_,
              grad_x.data() + t * d_, t_ * d_, n, 4 * h_, d_, false);
    if (t > 0) {
      matmul_tn(dgates.data(), 4 * h_, hiddens_[t - 1].data(), h_,
                wh_.grad.data(), h_, 4 * h_, n, h_, true);
    }
    matmul_nn(dgates.data(), 4 * h_, wh_.value.data(), h_, dh_prev.data(), h_,
              n, 4 * h_, h_, false);

    dh = dh_prev;
    dc = dc_prev;
  }
  return grad_x;
}

}  // namespace sb::ml
