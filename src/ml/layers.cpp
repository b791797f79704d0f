#include "ml/layers.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ml/gemm.hpp"
#include "util/scratch.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace sb::ml {

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_(Tensor::he_normal({out_features, in_features}, in_features, rng)),
      bias_(Tensor::zeros({out_features})) {}

Tensor Dense::infer(const Tensor& x) const {
  if (x.ndim() < 2 || x.numel() != x.dim(0) * in_)
    throw std::invalid_argument{"Dense: expected [N, ...] rows of in features"};
  const std::size_t n = x.dim(0);
  Tensor y({n, out_}, kNoFill);
  const float* b = bias_.value.data();
  // Seed each output row with the bias, then y += x * W^T with ascending-k
  // dot products — the exact accumulation order of the classic loop.
  for (std::size_t i = 0; i < n; ++i)
    std::copy_n(b, out_, y.data() + i * out_);
  matmul_nt(x.data(), in_, weight_.value.data(), in_, y.data(), out_, n, in_,
            out_, true);
  return y;
}

Tensor Dense::backward(const Tensor& grad_out, bool want_input_grad) {
  const std::size_t n = cached_x_.dim(0);
  float* gb = bias_.grad.data();
  // dBias: batch items in ascending order, as in the classic loop.
  for (std::size_t i = 0; i < n; ++i) {
    const float* gi = grad_out.data() + i * out_;
    for (std::size_t o = 0; o < out_; ++o) gb[o] += gi[o];
  }
  // dW += gy^T x (inner dim = batch, ascending); dX = gy W (inner dim =
  // outputs, ascending) — both match the classic loop's summation order.
  matmul_tn(grad_out.data(), out_, cached_x_.data(), in_, weight_.grad.data(),
            in_, out_, n, in_, true);
  if (!want_input_grad) return {};
  Tensor grad_in(cached_x_.shape(), kNoFill);
  matmul_nn(grad_out.data(), out_, weight_.value.data(), in_, grad_in.data(),
            in_, n, out_, in_, false);
  return grad_in;
}

Tensor ReLU::infer(const Tensor& x) const {
  Tensor y(x.shape(), kNoFill);
  const float* px = x.data();
  float* py = y.data();
  // vmax/vmin mirror std::max/std::min exactly, including which operand
  // survives a NaN comparison (see util/simd.hpp), so both backends agree
  // bit-for-bit even on non-finite activations.
  util::parallel_for_ranges(y.numel(), [&](std::size_t b, std::size_t e) {
    std::size_t i = b;
    if (util::simd_enabled()) {
      namespace v = util::simd;
      const v::VFloat zero = v::zero_f();
      const v::VFloat cap = v::broadcast(cap_);
      for (; i + v::kFloatLanes <= e; i += v::kFloatLanes) {
        v::VFloat val = v::vmax(v::load(px + i), zero);
        if (cap_ > 0.0f) val = v::vmin(val, cap);
        v::store(py + i, val);
      }
    }
    for (; i < e; ++i) {
      float v = std::max(px[i], 0.0f);
      if (cap_ > 0.0f) v = std::min(v, cap_);
      py[i] = v;
    }
  });
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out, bool /*want_input_grad*/) {
  Tensor g = grad_out;
  float* gp = g.data();
  const float* xp = cached_x_.data();
  // Mask form of the scalar pass predicate: cmp_gt/cmp_lt are ordered
  // comparisons (false on NaN), matching x > 0 && x < cap exactly; the
  // masked-out lanes become +0.0f just like the scalar assignment.
  util::parallel_for_ranges(g.numel(), [&](std::size_t b, std::size_t e) {
    std::size_t i = b;
    if (util::simd_enabled()) {
      namespace v = util::simd;
      const v::VFloat zero = v::zero_f();
      const v::VFloat cap = v::broadcast(cap_);
      for (; i + v::kFloatLanes <= e; i += v::kFloatLanes) {
        const v::VFloat x = v::load(xp + i);
        v::VFloat mask = v::cmp_gt(x, zero);
        if (cap_ > 0.0f) mask = v::bit_and(mask, v::cmp_lt(x, cap));
        v::store(gp + i, v::bit_and(v::load(gp + i), mask));
      }
    }
    for (; i < e; ++i) {
      const float x = xp[i];
      const bool pass = x > 0.0f && (cap_ <= 0.0f || x < cap_);
      if (!pass) gp[i] = 0.0f;
    }
  });
  return g;
}

Tensor Tanh::infer(const Tensor& x) const {
  Tensor y(x.shape(), kNoFill);
  util::parallel_for(y.numel(), [&](std::size_t i) { y[i] = std::tanh(x[i]); });
  return y;
}

Tensor Tanh::backward(const Tensor& grad_out, bool /*want_input_grad*/) {
  Tensor g = grad_out;
  util::parallel_for(g.numel(), [&](std::size_t i) {
    const float y = cached_y_[i];
    g[i] *= 1.0f - y * y;
  });
  return g;
}

namespace {

// Channels whose sequential reductions (batch mean, variance, dgamma, dbeta)
// run interleaved: each channel keeps its own ascending (item, element)
// chain, so the sums are bitwise the one-channel loop's, and the
// independent chains overlap instead of waiting on one add latency each.
constexpr std::size_t kChannelGroup = 4;

// Training statistics of channels [ch, ch + G) of an [n, c, hw] tensor.
template <std::size_t G>
void batch_moments(const float* x, std::size_t n, std::size_t c, std::size_t hw,
                   std::size_t ch, float count, float* mean, float* var) {
  float s[G] = {};
  for (std::size_t i = 0; i < n; ++i) {
    const float* p = x + (i * c + ch) * hw;
    for (std::size_t k = 0; k < hw; ++k)
#pragma GCC unroll 4
      for (std::size_t j = 0; j < G; ++j) s[j] += p[j * hw + k];
  }
  float m[G] = {}, v[G] = {};
  for (std::size_t j = 0; j < G; ++j) m[j] = s[j] / count;
  for (std::size_t i = 0; i < n; ++i) {
    const float* p = x + (i * c + ch) * hw;
    for (std::size_t k = 0; k < hw; ++k)
#pragma GCC unroll 4
      for (std::size_t j = 0; j < G; ++j) {
        const float d = p[j * hw + k] - m[j];
        v[j] += d * d;
      }
  }
  for (std::size_t j = 0; j < G; ++j) {
    mean[j] = m[j];
    var[j] = v[j] / count;
  }
}

// dgamma (= sum g*xhat) and dbeta (= sum g) of channels [ch, ch + G).
template <std::size_t G>
void batchnorm_grad_sums(const float* grad, const float* xhat, std::size_t n,
                         std::size_t c, std::size_t hw, std::size_t ch,
                         float* dgamma, float* dbeta) {
  float sg[G] = {}, sb[G] = {};
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t off = (i * c + ch) * hw;
    const float* g = grad + off;
    const float* xh = xhat + off;
    for (std::size_t k = 0; k < hw; ++k)
#pragma GCC unroll 4
      for (std::size_t j = 0; j < G; ++j) {
        sg[j] += g[j * hw + k] * xh[j * hw + k];
        sb[j] += g[j * hw + k];
      }
  }
  for (std::size_t j = 0; j < G; ++j) {
    dgamma[j] = sg[j];
    dbeta[j] = sb[j];
  }
}

// The fused activation's backward on one [hw] row: gm = g where the
// recomputed output gamma * xhat + beta passes the standalone ReLU's
// `y > 0 && (cap <= 0 || y < cap)` (ordered compares, false on NaN), else
// +0 — ReLU::backward's mask on the value ReLU::forward was given.
void relu_mask_row(const float* g, const float* xh, float* gm, std::size_t hw,
                   float gamma, float beta, float cap, bool vec) {
  std::size_t k = 0;
  if (vec) {
    namespace v = util::simd;
    const v::VFloat vg = v::broadcast(gamma);
    const v::VFloat vb = v::broadcast(beta);
    const v::VFloat zero = v::zero_f();
    const v::VFloat vcap = v::broadcast(cap);
    for (; k + v::kFloatLanes <= hw; k += v::kFloatLanes) {
      const v::VFloat y = v::add(v::mul(vg, v::load(xh + k)), vb);
      v::VFloat mask = v::cmp_gt(y, zero);
      if (cap > 0.0f) mask = v::bit_and(mask, v::cmp_lt(y, vcap));
      v::store(gm + k, v::bit_and(v::load(g + k), mask));
    }
  }
  for (; k < hw; ++k) {
    const float y = gamma * xh[k] + beta;
    const bool pass = y > 0.0f && (cap <= 0.0f || y < cap);
    gm[k] = pass ? g[k] : 0.0f;
  }
}

// One [hw] row of a channel: y = gamma * xhat + beta with
// xhat = (x - mean) * inv_std, in the scalar operation order, then the fused
// clamp with the standalone ReLU's own max/min ops, so lanes across k are
// independent and both backends agree bitwise.  A training forward also
// stores xhat for backward.
template <bool kStoreXhat>
void batchnorm_row(const float* p, float* xh, float* py, std::size_t hw,
                   float mean, float inv_std, float g, float b, bool relu,
                   float cap, bool vec) {
  std::size_t k = 0;
  if (vec) {
    namespace v = util::simd;
    const v::VFloat vm = v::broadcast(mean);
    const v::VFloat vs = v::broadcast(inv_std);
    const v::VFloat vg = v::broadcast(g);
    const v::VFloat vb = v::broadcast(b);
    const v::VFloat zero = v::zero_f();
    const v::VFloat vcap = v::broadcast(cap);
    for (; k + v::kFloatLanes <= hw; k += v::kFloatLanes) {
      const v::VFloat xhat = v::mul(v::sub(v::load(p + k), vm), vs);
      if constexpr (kStoreXhat) v::store(xh + k, xhat);
      v::VFloat y = v::add(v::mul(vg, xhat), vb);
      if (relu) {
        y = v::vmax(y, zero);
        if (cap > 0.0f) y = v::vmin(y, vcap);
      }
      v::store(py + k, y);
    }
  }
  for (; k < hw; ++k) {
    const float xhat = (p[k] - mean) * inv_std;
    if constexpr (kStoreXhat) xh[k] = xhat;
    float y = g * xhat + b;
    if (relu) {
      y = std::max(y, 0.0f);
      if (cap > 0.0f) y = std::min(y, cap);
    }
    py[k] = y;
  }
}

// (n, c, hw) of an [N, C, H, W] or [N, C] BatchNorm input; throws on any
// other shape or a channel count other than `channels`.
struct BatchNormDims {
  std::size_t n, c, hw;
};

BatchNormDims batchnorm_dims(const Tensor& x, std::size_t channels) {
  BatchNormDims d;
  if (x.ndim() == 4) {
    d = {x.dim(0), x.dim(1), x.dim(2) * x.dim(3)};
  } else if (x.ndim() == 2) {
    d = {x.dim(0), x.dim(1), 1};
  } else {
    throw std::invalid_argument{"BatchNorm: expected [N,C,H,W] or [N,C]"};
  }
  if (d.c != channels) throw std::invalid_argument{"BatchNorm: channel mismatch"};
  return d;
}

}  // namespace

BatchNorm::BatchNorm(std::size_t channels, Activation act, float momentum,
                     float eps)
    : channels_(channels),
      relu_(act != Activation::kNone),
      cap_(act == Activation::kRelu6 ? 6.0f : 0.0f),
      momentum_(momentum),
      eps_(eps),
      gamma_(Tensor({channels}, 1.0f)),
      beta_(Tensor::zeros({channels})),
      running_mean_(Tensor::zeros({channels})),
      running_var_(Tensor({channels}, 1.0f)) {}

// Channels are independent in both forwards: every write (cached stats,
// running stats, xhat, y) is per-channel, and each channel's reduction order
// is fixed, so neither the parallel split nor the channel grouping can
// affect results.
Tensor BatchNorm::infer(const Tensor& x) const {
  const auto [n, c, hw] = batchnorm_dims(x, channels_);
  Tensor y(x.shape(), kNoFill);
  const bool vec = util::simd_enabled();
  util::parallel_for_ranges(c, [&](std::size_t c0, std::size_t c1) {
    for (std::size_t ch = c0; ch < c1; ++ch) {
      const float inv_std = 1.0f / std::sqrt(running_var_[ch] + eps_);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t off = (i * c + ch) * hw;
        batchnorm_row<false>(x.data() + off, nullptr, y.data() + off, hw,
                             running_mean_[ch], inv_std, gamma_.value[ch],
                             beta_.value[ch], relu_, cap_, vec);
      }
    }
  }, kChannelGroup);
  return y;
}

Tensor BatchNorm::forward_train(const Tensor& x) {
  const auto [n, c, hw] = batchnorm_dims(x, channels_);
  cached_n_ = n;
  cached_hw_ = hw;
  cached_mean_.assign(c, 0.0f);
  cached_var_.assign(c, 0.0f);
  cached_inv_std_.assign(c, 0.0f);
  cached_xhat_ = Tensor(x.shape(), kNoFill);
  Tensor y(x.shape(), kNoFill);
  const float count = static_cast<float>(n * hw);
  const bool vec = util::simd_enabled();
  util::parallel_for_ranges(c, [&](std::size_t c0, std::size_t c1) {
    for (std::size_t ch0 = c0; ch0 < c1;) {
      const std::size_t group = c1 - ch0 >= kChannelGroup ? kChannelGroup : 1;
      float mean[kChannelGroup] = {}, var[kChannelGroup] = {};
      if (group == kChannelGroup)
        batch_moments<kChannelGroup>(x.data(), n, c, hw, ch0, count, mean, var);
      else
        batch_moments<1>(x.data(), n, c, hw, ch0, count, mean, var);
      for (std::size_t j = 0; j < group; ++j) {
        const std::size_t ch = ch0 + j;
        running_mean_[ch] = momentum_ * running_mean_[ch] + (1 - momentum_) * mean[j];
        running_var_[ch] = momentum_ * running_var_[ch] + (1 - momentum_) * var[j];
        const float inv_std = 1.0f / std::sqrt(var[j] + eps_);
        const float g = gamma_.value[ch], b = beta_.value[ch];
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t off = (i * c + ch) * hw;
          batchnorm_row<true>(x.data() + off, cached_xhat_.data() + off,
                              y.data() + off, hw, mean[j], inv_std, g, b, relu_,
                              cap_, vec);
        }
        cached_mean_[ch] = mean[j];
        cached_var_[ch] = var[j];
        cached_inv_std_[ch] = inv_std;
      }
      ch0 += group;
    }
  }, kChannelGroup);
  return y;
}

Tensor BatchNorm::backward(const Tensor& grad_out, bool /*want_input_grad*/) {
  const std::size_t n = cached_n_, c = channels_, hw = cached_hw_;
  const float count = static_cast<float>(n * hw);
  Tensor grad_in(grad_out.shape(), kNoFill);
  // With a fused activation, the masked gradient the standalone ReLU would
  // have passed on; every element is written before it is read.
  util::Scratch<float> masked{relu_ ? grad_out.numel() : 0};
  const float* grad = relu_ ? masked.data() : grad_out.data();
  const bool vec = util::simd_enabled();

  util::parallel_for_ranges(c, [&](std::size_t c0, std::size_t c1) {
    if (relu_)
      for (std::size_t ch = c0; ch < c1; ++ch)
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t off = (i * c + ch) * hw;
          relu_mask_row(grad_out.data() + off, cached_xhat_.data() + off,
                        masked.data() + off, hw, gamma_.value[ch], beta_.value[ch],
                        cap_, vec);
        }
    for (std::size_t ch0 = c0; ch0 < c1;) {
      const std::size_t group = c1 - ch0 >= kChannelGroup ? kChannelGroup : 1;
      // dgamma, dbeta and the two reduction terms (sum g*xhat is dgamma).
      float dgamma[kChannelGroup] = {}, dbeta[kChannelGroup] = {};
      if (group == kChannelGroup)
        batchnorm_grad_sums<kChannelGroup>(grad, cached_xhat_.data(), n, c, hw, ch0,
                                           dgamma, dbeta);
      else
        batchnorm_grad_sums<1>(grad, cached_xhat_.data(), n, c, hw, ch0, dgamma,
                               dbeta);
      for (std::size_t j = 0; j < group; ++j) {
        const std::size_t ch = ch0 + j;
        const float sum_gxhat = dgamma[j], db = dbeta[j];
        gamma_.grad[ch] += sum_gxhat;
        beta_.grad[ch] += db;

        const float gval = gamma_.value[ch];
        const float inv_std = cached_inv_std_[ch];
        // gval*inv_std/count only involves loop constants, so hoisting it
        // keeps the per-element arithmetic (and rounding) identical to the
        // scalar form.
        const float scale = gval * inv_std / count;
        for (std::size_t i = 0; i < n; ++i) {
          const float* g = grad + (i * c + ch) * hw;
          const float* xh = cached_xhat_.data() + (i * c + ch) * hw;
          float* gi = grad_in.data() + (i * c + ch) * hw;
          std::size_t k = 0;
          if (vec) {
            namespace v = util::simd;
            const v::VFloat vscale = v::broadcast(scale);
            const v::VFloat vcount = v::broadcast(count);
            const v::VFloat vdbeta = v::broadcast(db);
            const v::VFloat vsum = v::broadcast(sum_gxhat);
            for (; k + v::kFloatLanes <= hw; k += v::kFloatLanes) {
              const v::VFloat t =
                  v::sub(v::sub(v::mul(vcount, v::load(g + k)), vdbeta),
                         v::mul(v::load(xh + k), vsum));
              v::store(gi + k, v::mul(vscale, t));
            }
          }
          for (; k < hw; ++k)
            gi[k] = scale * (count * g[k] - db - xh[k] * sum_gxhat);
        }
      }
      ch0 += group;
    }
  }, kChannelGroup);
  return grad_in;
}

Tensor GlobalAvgPool::infer(const Tensor& x) const {
  if (x.ndim() != 4) throw std::invalid_argument{"GlobalAvgPool: expected [N,C,H,W]"};
  const std::size_t n = x.dim(0), c = x.dim(1), hw = x.dim(2) * x.dim(3);
  Tensor y({n, c}, kNoFill);
  util::parallel_for(n, [&](std::size_t i) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* p = x.data() + (i * c + ch) * hw;
      float s = 0.0f;
      for (std::size_t k = 0; k < hw; ++k) s += p[k];
      y[i * c + ch] = s / static_cast<float>(hw);
    }
  });
  return y;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out, bool /*want_input_grad*/) {
  const std::size_t n = cached_shape_[0], c = cached_shape_[1];
  const std::size_t hw = cached_shape_[2] * cached_shape_[3];
  Tensor grad_in(cached_shape_);
  util::parallel_for(n, [&](std::size_t i) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float g = grad_out[i * c + ch] / static_cast<float>(hw);
      float* p = grad_in.data() + (i * c + ch) * hw;
      for (std::size_t k = 0; k < hw; ++k) p[k] = g;
    }
  });
  return grad_in;
}

}  // namespace sb::ml
