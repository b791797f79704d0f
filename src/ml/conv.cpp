#include "ml/conv.hpp"

#include <algorithm>
#include <stdexcept>

#include "ml/gemm.hpp"
#include "util/scratch.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace sb::ml {
namespace {

std::size_t out_dim(std::size_t in, std::size_t k, std::size_t stride, std::size_t pad) {
  return (in + 2 * pad - k) / stride + 1;
}

// Output columns [lo, hi) of a row whose input column ox*stride + kx - pad
// lies inside [0, w); every other output column reads padding.
struct ColRange {
  std::size_t lo, hi;
};
ColRange valid_cols(std::size_t kx, std::size_t stride, std::size_t pad,
                    std::size_t w, std::size_t ow) {
  const std::size_t lo = kx >= pad ? 0 : (pad - kx + stride - 1) / stride;
  const std::size_t hi =
      w + pad > kx ? std::min(ow, (w + pad - kx + stride - 1) / stride) : 0;
  return {std::min(lo, hi), hi};
}

// A zero-padded plane split into `stride` column phases: phase f row r holds
// padded columns f, f + stride, f + 2*stride, ... (layout [stride][hp][pw]),
// so a stride-s tap over consecutive output columns reads consecutive
// elements of one phase row.  At stride 1 it is the plain padded plane.
struct PhaseGeometry {
  std::size_t hp, pw, size;
  PhaseGeometry(std::size_t h, std::size_t w, std::size_t pad, std::size_t stride)
      : hp(h + 2 * pad),
        pw((w + 2 * pad + stride - 1) / stride),
        size(stride * hp * pw) {}
};

// Fills every slot of the phase buffer from one [h, w] plane.
void pad_phases(const float* x, std::size_t h, std::size_t w, std::size_t pad,
                std::size_t stride, const PhaseGeometry& g, float* q) {
  for (std::size_t f = 0; f < stride; ++f) {
    const auto [lo, hi] = valid_cols(f, stride, pad, w, g.pw);
    for (std::size_t r = 0; r < g.hp; ++r) {
      float* dst = q + (f * g.hp + r) * g.pw;
      if (r < pad || r >= pad + h) {
        std::fill_n(dst, g.pw, 0.0f);
        continue;
      }
      const float* src = x + (r - pad) * w;
      std::fill_n(dst, lo, 0.0f);
      for (std::size_t j = lo; j < hi; ++j) dst[j] = src[j * stride + f - pad];
      std::fill_n(dst + hi, g.pw - hi, 0.0f);
    }
  }
}

// Copies the unpadded interior of a phase buffer into a [h, w] plane (the
// inverse of pad_phases).
void unpad_phases(const float* q, std::size_t h, std::size_t w, std::size_t pad,
                  std::size_t stride, const PhaseGeometry& g, float* x) {
  for (std::size_t f = 0; f < stride; ++f) {
    const auto [lo, hi] = valid_cols(f, stride, pad, w, g.pw);
    for (std::size_t iy = 0; iy < h; ++iy) {
      const float* src = q + (f * g.hp + iy + pad) * g.pw;
      float* dst = x + iy * w;
      for (std::size_t j = lo; j < hi; ++j) dst[j * stride + f - pad] = src[j];
    }
  }
}

// Zero-padded copy of one item's [C, h, w] planes in the stride-1 phase
// layout [C][hp][wp]; an unpadded conv reads x in place.
const float* padded_input(const float* x, std::size_t channels, std::size_t h,
                          std::size_t w, std::size_t pad, const PhaseGeometry& g,
                          float* buf) {
  if (pad == 0) return x;
  for (std::size_t c = 0; c < channels; ++c)
    pad_phases(x + c * h * w, h, w, pad, 1, g, buf + c * g.size);
  return buf;
}

// Unfolds a zero-padded [C, hp, wp] plane stack into the patch matrix
// col[(c*k + ky)*k + kx][oy*ow + ox] = xp[c][oy*stride + ky][ox*stride + kx].
// Row order (c, ky, kx) is the direct loop nest's accumulation order (the
// conv oracle in parallel_test), so GEMM over these rows sums each output in
// that order, padding taps included.
void im2col(const float* xp, std::size_t channels, std::size_t hp, std::size_t wp,
            std::size_t ksize, std::size_t stride, std::size_t oh, std::size_t ow,
            float* col) {
  float* dst = col;
  for (std::size_t c = 0; c < channels; ++c)
    for (std::size_t ky = 0; ky < ksize; ++ky)
      for (std::size_t kx = 0; kx < ksize; ++kx)
        for (std::size_t oy = 0; oy < oh; ++oy, dst += ow) {
          const float* src = xp + (c * hp + oy * stride + ky) * wp + kx;
          if (stride == 1)
            std::copy_n(src, ow, dst);
          else
            for (std::size_t ox = 0; ox < ow; ++ox) dst[ox] = src[ox * stride];
        }
}

// The same patch matrix transposed, colT[oy*ow + ox][(c*k + ky)*k + kx]:
// the B operand of dW = grad_out * colT, whose matmul_nn lanes then run
// across dW's columns while each element sums patches in ascending order.
// K = 3 unrolls the k x k tap copy (K = 0: any k).
template <std::size_t K>
void im2col_t(const float* xp, std::size_t channels, std::size_t hp, std::size_t wp,
              std::size_t k_any, std::size_t stride, std::size_t oh, std::size_t ow,
              float* colt) {
  const std::size_t k = K ? K : k_any;
  float* dst = colt;
  for (std::size_t oy = 0; oy < oh; ++oy)
    for (std::size_t ox = 0; ox < ow; ++ox)
      for (std::size_t c = 0; c < channels; ++c)
#pragma GCC unroll 8
        for (std::size_t ky = 0; ky < k; ++ky, dst += k) {
          const float* src = xp + (c * hp + oy * stride + ky) * wp + ox * stride;
#pragma GCC unroll 8
          for (std::size_t kx = 0; kx < k; ++kx) dst[kx] = src[kx];
        }
}

// Scatter-adds a patch-matrix gradient back onto the [C, H, W] input grid
// (transpose of im2col).
void col2im_add(const float* col, std::size_t channels, std::size_t h, std::size_t w,
                std::size_t ksize, std::size_t stride, std::size_t pad,
                std::size_t oh, std::size_t ow, float* gx) {
  const std::size_t patches = oh * ow;
  const float* crow = col;
  for (std::size_t c = 0; c < channels; ++c) {
    float* plane = gx + c * h * w;
    for (std::size_t ky = 0; ky < ksize; ++ky) {
      for (std::size_t kx = 0; kx < ksize; ++kx, crow += patches) {
        const auto [lo, hi] = valid_cols(kx, stride, pad, w, ow);
        for (std::size_t oy = 0; oy < oh; ++oy) {
          const std::size_t iy = oy * stride + ky;
          if (iy < pad || iy >= pad + h) continue;
          float* dst = plane + (iy - pad) * w;
          const float* src = crow + oy * ow;
          for (std::size_t ox = lo; ox < hi; ++ox)
            dst[ox * stride + kx - pad] += src[ox];
        }
      }
    }
  }
}

// Sums of each of `rows` rows of `cols` floats, four rows interleaved: each
// row keeps its one ascending chain from +0, as a plain loop per row would.
void row_sums(const float* a, std::size_t rows, std::size_t cols, float* out) {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const float* a0 = a + r * cols;
    float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
    for (std::size_t p = 0; p < cols; ++p) {
      s0 += a0[p];
      s1 += a0[cols + p];
      s2 += a0[2 * cols + p];
      s3 += a0[3 * cols + p];
    }
    out[r] = s0;
    out[r + 1] = s1;
    out[r + 2] = s2;
    out[r + 3] = s3;
  }
  for (; r < rows; ++r) {
    float s = 0.0f;
    for (std::size_t p = 0; p < cols; ++p) s += a[r * cols + p];
    out[r] = s;
  }
}

// ---------------------------------------------------------------------------
// Direct depthwise kernel over one plane's phase buffer: tap (ky, kx) of
// output columns ox, ox+1, ... reads consecutive elements of phase
// kx % stride at offset kx / stride, so vector lanes run across output
// columns.  Taps go in im2col's (ky, kx) order and the padding taps multiply
// zeros, so every element's arithmetic is the im2col + GEMM path's, bit for
// bit.

// Offset of tap t = ky*k + kx for output (0, 0): phase kx % stride, row ky,
// column kx / stride.  Output (oy, ox) adds oy * stride * pw + ox.
void tap_offsets(const PhaseGeometry& g, std::size_t k, std::size_t stride,
                 std::size_t* off) {
  for (std::size_t ky = 0; ky < k; ++ky)
    for (std::size_t kx = 0; kx < k; ++kx)
      off[ky * k + kx] = ((kx % stride) * g.hp + ky) * g.pw + kx / stride;
}

// y = bias + sum over taps of w[ky*k + kx] * x_pad[oy*s + ky][ox*s + kx],
// tap by tap over the whole plane, so each element's chain is separated by
// a plane's worth of independent work.
void depthwise_forward_plane(const float* q, const PhaseGeometry& g,
                             const std::size_t* off, std::size_t taps,
                             std::size_t stride, const float* wts, float bias,
                             std::size_t oh, std::size_t ow, bool vec, float* y) {
  std::fill_n(y, oh * ow, bias);
  for (std::size_t t = 0; t < taps; ++t) {
    const float wv = wts[t];
    for (std::size_t oy = 0; oy < oh; ++oy) {
      const float* src = q + oy * stride * g.pw + off[t];
      float* yr = y + oy * ow;
      std::size_t ox = 0;
      if (vec) {
        namespace v = util::simd;
        const v::VFloat vw = v::broadcast(wv);
        for (; ox + v::kFloatLanes <= ow; ox += v::kFloatLanes)
          v::store(yr + ox, v::add(v::load(yr + ox), v::mul(vw, v::load(src + ox))));
      }
      for (; ox < ow; ++ox) yr[ox] += wv * src[ox];
    }
  }
}

// Weight and bias gradient partials of one plane: gw[t] sums g * x_pad over
// patches in ascending order and gb sums g, each from +0 — independent
// chains, so kTaps = 9 (3x3) keeps all ten in registers (kTaps = 0: any k).
template <std::size_t kTaps>
void depthwise_wgrad_plane(const float* q, const PhaseGeometry& g,
                           const std::size_t* off, std::size_t taps_any,
                           std::size_t stride, const float* grad, std::size_t oh,
                           std::size_t ow, float* gw, float* gb) {
  const std::size_t taps = kTaps ? kTaps : taps_any;
  float fixed[kTaps ? kTaps : 1] = {};
  std::size_t fixed_off[kTaps ? kTaps : 1] = {};
  float* acc = fixed;
  if constexpr (kTaps == 0) {
    std::fill_n(gw, taps, 0.0f);
    acc = gw;
  } else {
    std::copy_n(off, kTaps, fixed_off);
    off = fixed_off;
  }
  float sb = 0.0f;
  for (std::size_t oy = 0; oy < oh; ++oy) {
    const float* row = q + oy * stride * g.pw;
    const float* gr = grad + oy * ow;
    for (std::size_t ox = 0; ox < ow; ++ox) {
      const float gv = gr[ox];
      sb += gv;
#pragma GCC unroll 16
      for (std::size_t t = 0; t < taps; ++t) acc[t] += gv * row[off[t] + ox];
    }
  }
  if constexpr (kTaps != 0) std::copy_n(acc, kTaps, gw);
  *gb = sb;
}

// Input gradient of one plane, accumulated in a zero-filled phase buffer:
// tap by tap in (ky, kx) order, gq += w * g — each padded cell receives its
// terms in im2col + col2im_add's ascending-tap order.  A tap sweeps every
// output row before the next tap revisits a row one column over.
void depthwise_xgrad_plane(const float* wts, const float* grad, const PhaseGeometry& g,
                           const std::size_t* off, std::size_t taps,
                           std::size_t stride, std::size_t oh, std::size_t ow,
                           bool vec, float* gq) {
  for (std::size_t t = 0; t < taps; ++t) {
    const float wv = wts[t];
    for (std::size_t oy = 0; oy < oh; ++oy) {
      const float* gr = grad + oy * ow;
      float* dst = gq + oy * stride * g.pw + off[t];
      std::size_t ox = 0;
      if (vec) {
        namespace v = util::simd;
        const v::VFloat vw = v::broadcast(wv);
        for (; ox + v::kFloatLanes <= ow; ox += v::kFloatLanes)
          v::store(dst + ox, v::add(v::load(dst + ox), v::mul(vw, v::load(gr + ox))));
      }
      for (; ox < ow; ++ox) dst[ox] += wv * gr[ox];
    }
  }
}

}  // namespace

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               std::size_t stride, std::size_t padding, Rng& rng)
    : in_c_(in_channels),
      out_c_(out_channels),
      k_(kernel),
      stride_(stride),
      pad_(padding),
      weight_(Tensor::he_normal({out_channels, in_channels, kernel, kernel},
                                in_channels * kernel * kernel, rng)),
      bias_(Tensor::zeros({out_channels})) {}

Tensor Conv2D::infer(const Tensor& x) const {
  if (x.ndim() != 4 || x.dim(1) != in_c_)
    throw std::invalid_argument{"Conv2D: expected [N,inC,H,W]"};
  const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = out_dim(h, k_, stride_, pad_);
  const std::size_t ow = out_dim(w, k_, stride_, pad_);
  // Every output element is seeded with its bias, then accumulated, so y
  // starts unfilled.
  Tensor y({n, out_c_, oh, ow}, kNoFill);

  const std::size_t kdim = in_c_ * k_ * k_;
  const std::size_t patches = oh * ow;
  const bool pointwise = is_pointwise();
  const PhaseGeometry geom{h, w, pad_, 1};
  util::parallel_for_ranges(
      n,
      [&](std::size_t i0, std::size_t i1) {
        // The padded copy and im2col fully overwrite their buffers, so
        // uninitialized scratch is safe; a pointwise conv's input already is
        // its patch matrix.
        util::Scratch<float> xp{pad_ == 0 ? 0 : in_c_ * geom.size};
        util::Scratch<float> col{pointwise ? 0 : kdim * patches};
        for (std::size_t i = i0; i < i1; ++i) {
          const float* xi = x.data() + i * in_c_ * h * w;
          if (!pointwise)
            im2col(padded_input(xi, in_c_, h, w, pad_, geom, xp.data()), in_c_,
                   geom.hp, geom.pw, k_, stride_, oh, ow, col.data());
          float* yi = y.data() + i * out_c_ * patches;
          for (std::size_t oc = 0; oc < out_c_; ++oc)
            std::fill_n(yi + oc * patches, patches, bias_.value[oc]);
          matmul_nn(weight_.value.data(), kdim, pointwise ? xi : col.data(), patches,
                    yi, patches, out_c_, kdim, patches, true);
        }
      },
      1);
  return y;
}

Tensor Conv2D::backward(const Tensor& grad_out, bool want_input_grad) {
  const Tensor& x = cached_x_;
  const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = grad_out.dim(2), ow = grad_out.dim(3);
  const std::size_t kdim = in_c_ * k_ * k_;
  const std::size_t patches = oh * ow;
  const bool pointwise = is_pointwise();
  const PhaseGeometry geom{h, w, pad_, 1};
  // A pointwise dX is written whole by one GEMM; col2im_add accumulates.
  Tensor grad_in = !want_input_grad ? Tensor{}
                   : pointwise      ? Tensor(x.shape(), kNoFill)
                                    : Tensor(x.shape());
  // Per-item weight/bias gradient partials, reduced serially in batch order
  // below so the result is independent of the thread count.  Every slot is
  // written before the reduction (matmul_nn with accumulate=false and the
  // patch sums), so uninitialized scratch is safe.
  util::Scratch<float> gw_part{n * out_c_ * kdim};
  util::Scratch<float> gb_part{n * out_c_};
  util::parallel_for_ranges(
      n,
      [&](std::size_t i0, std::size_t i1) {
        util::Scratch<float> xp{pad_ == 0 ? 0 : in_c_ * geom.size};
        util::Scratch<float> colt{kdim * patches};
        util::Scratch<float> gcol{want_input_grad && !pointwise ? kdim * patches : 0};
        for (std::size_t i = i0; i < i1; ++i) {
          const float* xi = x.data() + i * in_c_ * h * w;
          if (pointwise) {
            pack_transpose(xi, patches, in_c_, patches, colt.data());
          } else {
            const float* src = padded_input(xi, in_c_, h, w, pad_, geom, xp.data());
            if (k_ == 3)
              im2col_t<3>(src, in_c_, geom.hp, geom.pw, k_, stride_, oh, ow,
                          colt.data());
            else
              im2col_t<0>(src, in_c_, geom.hp, geom.pw, k_, stride_, oh, ow,
                          colt.data());
          }
          const float* gi = grad_out.data() + i * out_c_ * patches;
          // dW[oc][j] = sum over patches p, ascending, of g[oc][p] * col[j][p]
          // from +0: lanes run across j.
          matmul_nn(gi, patches, colt.data(), kdim, gw_part.data() + i * out_c_ * kdim,
                    kdim, out_c_, patches, kdim, false);
          row_sums(gi, out_c_, patches, gb_part.data() + i * out_c_);
          if (!want_input_grad) continue;
          // dcol[j][p] = sum over oc, ascending, of W[oc][j] * g[oc][p] from
          // +0: matmul_tn reads the weights transposed in place.
          float* gxi = grad_in.data() + i * in_c_ * h * w;
          float* dcol = pointwise ? gxi : gcol.data();
          matmul_tn(weight_.value.data(), kdim, gi, patches, dcol, patches, kdim,
                    out_c_, patches, false);
          if (!pointwise)
            col2im_add(gcol.data(), in_c_, h, w, k_, stride_, pad_, oh, ow, gxi);
        }
      },
      1);
  for (std::size_t i = 0; i < n; ++i) {
    const float* gw = gw_part.data() + i * out_c_ * kdim;
    for (std::size_t j = 0; j < out_c_ * kdim; ++j) weight_.grad[j] += gw[j];
    for (std::size_t oc = 0; oc < out_c_; ++oc)
      bias_.grad[oc] += gb_part[i * out_c_ + oc];
  }
  return grad_in;
}

DepthwiseConv2D::DepthwiseConv2D(std::size_t channels, std::size_t kernel,
                                 std::size_t stride, std::size_t padding, Rng& rng)
    : c_(channels),
      k_(kernel),
      stride_(stride),
      pad_(padding),
      weight_(Tensor::he_normal({channels, kernel, kernel}, kernel * kernel, rng)),
      bias_(Tensor::zeros({channels})) {}

Tensor DepthwiseConv2D::infer(const Tensor& x) const {
  if (x.ndim() != 4 || x.dim(1) != c_)
    throw std::invalid_argument{"DepthwiseConv2D: expected [N,C,H,W]"};
  const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = out_dim(h, k_, stride_, pad_);
  const std::size_t ow = out_dim(w, k_, stride_, pad_);
  // Every output element is written once: bias seed, then accumulation.
  Tensor y({n, c_, oh, ow}, kNoFill);
  const PhaseGeometry geom{h, w, pad_, stride_};
  const std::size_t taps = k_ * k_;
  const std::size_t patches = oh * ow;
  util::Scratch<std::size_t> off{taps};
  tap_offsets(geom, k_, stride_, off.data());
  const bool vec = util::simd_enabled();
  // Each (item, channel) plane is an independent single-filter convolution.
  util::parallel_for_ranges(n * c_, [&](std::size_t p0, std::size_t p1) {
    util::Scratch<float> q{geom.size};
    for (std::size_t pair = p0; pair < p1; ++pair) {
      const std::size_t c = pair % c_;
      pad_phases(x.data() + pair * h * w, h, w, pad_, stride_, geom, q.data());
      depthwise_forward_plane(q.data(), geom, off.data(), taps, stride_,
                              weight_.value.data() + c * taps, bias_.value[c], oh, ow,
                              vec, y.data() + pair * patches);
    }
  });
  return y;
}

Tensor DepthwiseConv2D::backward(const Tensor& grad_out, bool want_input_grad) {
  const Tensor& x = cached_x_;
  const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = grad_out.dim(2), ow = grad_out.dim(3);
  const std::size_t kdim = k_ * k_;
  const std::size_t patches = oh * ow;
  const PhaseGeometry geom{h, w, pad_, stride_};
  util::Scratch<std::size_t> off{kdim};
  tap_offsets(geom, k_, stride_, off.data());
  const bool vec = util::simd_enabled();
  // Every plane of dX is copied out of its phase buffer whole.
  Tensor grad_in = want_input_grad ? Tensor(x.shape(), kNoFill) : Tensor{};
  // Per-plane partials, reduced serially in (item, channel) order below.
  util::Scratch<float> gw_part{n * c_ * kdim};
  util::Scratch<float> gb_part{n * c_};
  util::parallel_for_ranges(n * c_, [&](std::size_t p0, std::size_t p1) {
    util::Scratch<float> q{geom.size};
    util::Scratch<float> gq{want_input_grad ? geom.size : 0};
    for (std::size_t pair = p0; pair < p1; ++pair) {
      const std::size_t c = pair % c_;
      const float* grow = grad_out.data() + pair * patches;
      pad_phases(x.data() + pair * h * w, h, w, pad_, stride_, geom, q.data());
      if (kdim == 9)
        depthwise_wgrad_plane<9>(q.data(), geom, off.data(), kdim, stride_, grow, oh,
                                 ow, gw_part.data() + pair * kdim, &gb_part[pair]);
      else
        depthwise_wgrad_plane<0>(q.data(), geom, off.data(), kdim, stride_, grow, oh,
                                 ow, gw_part.data() + pair * kdim, &gb_part[pair]);
      if (!want_input_grad) continue;
      std::fill_n(gq.data(), geom.size, 0.0f);
      depthwise_xgrad_plane(weight_.value.data() + c * kdim, grow, geom, off.data(),
                            kdim, stride_, oh, ow, vec, gq.data());
      unpad_phases(gq.data(), h, w, pad_, stride_, geom,
                   grad_in.data() + pair * h * w);
    }
  });
  for (std::size_t pair = 0; pair < n * c_; ++pair) {
    const std::size_t c = pair % c_;
    const float* gw = gw_part.data() + pair * kdim;
    float* dst = weight_.grad.data() + c * kdim;
    for (std::size_t kk = 0; kk < kdim; ++kk) dst[kk] += gw[kk];
    bias_.grad[c] += gb_part[pair];
  }
  return grad_in;
}

ResidualBlock::ResidualBlock(std::size_t in_channels, std::size_t out_channels,
                             std::size_t stride, Rng& rng) {
  main_.emplace<Conv2D>(in_channels, out_channels, 3, stride, 1, rng);
  main_.emplace<BatchNorm>(out_channels, Activation::kRelu);
  main_.emplace<Conv2D>(out_channels, out_channels, 3, 1, 1, rng);
  main_.emplace<BatchNorm>(out_channels);
  if (stride != 1 || in_channels != out_channels) {
    shortcut_ = std::make_unique<Sequential>();
    shortcut_->emplace<Conv2D>(in_channels, out_channels, 1, stride, 0, rng);
    shortcut_->emplace<BatchNorm>(out_channels);
  }
}

namespace {

// The post-sum ReLU; src and dst may alias.  vmax matches std::max's NaN
// operand pick, and lanes are independent.
void relu_into(const float* src, float* dst, std::size_t numel) {
  std::size_t i = 0;
  if (util::simd_enabled()) {
    namespace v = util::simd;
    const v::VFloat zero = v::zero_f();
    for (; i + v::kFloatLanes <= numel; i += v::kFloatLanes)
      v::store(dst + i, v::vmax(v::load(src + i), zero));
  }
  for (; i < numel; ++i) dst[i] = std::max(src[i], 0.0f);
}

}  // namespace

// The sum accumulates into the main branch's output; an identity shortcut
// reads x in place.
Tensor ResidualBlock::infer(const Tensor& x) const {
  Tensor sum = main_.infer(x);
  if (shortcut_)
    sum.add_scaled(shortcut_->infer(x), 1.0f);
  else
    sum.add_scaled(x, 1.0f);
  relu_into(sum.data(), sum.data(), sum.numel());
  return sum;
}

// Keeps the pre-ReLU sum for backward's mask.
Tensor ResidualBlock::forward_train(const Tensor& x) {
  Tensor sum = main_.forward_train(x);
  if (shortcut_)
    sum.add_scaled(shortcut_->forward_train(x), 1.0f);
  else
    sum.add_scaled(x, 1.0f);
  Tensor y(sum.shape(), kNoFill);
  relu_into(sum.data(), y.data(), sum.numel());
  cached_sum_ = std::move(sum);
  return y;
}

Tensor ResidualBlock::backward(const Tensor& grad_out, bool want_input_grad) {
  Tensor g = grad_out;
  float* gp = g.data();
  const float* sp = cached_sum_.data();
  const std::size_t numel = g.numel();
  std::size_t i = 0;
  // select on an ordered <= matches the scalar branch exactly: NaN sums
  // compare false and keep the incoming gradient, as the scalar path does.
  if (util::simd_enabled()) {
    namespace v = util::simd;
    const v::VFloat zero = v::zero_f();
    for (; i + v::kFloatLanes <= numel; i += v::kFloatLanes)
      v::store(gp + i, v::select(v::cmp_le(v::load(sp + i), zero), zero,
                                 v::load(gp + i)));
  }
  for (; i < numel; ++i)
    if (sp[i] <= 0.0f) gp[i] = 0.0f;
  // Each branch's first layer gets the switch; the identity branch's input
  // gradient is g itself.
  Tensor grad_main = main_.backward(g, want_input_grad);
  if (shortcut_) {
    const Tensor grad_short = shortcut_->backward(g, want_input_grad);
    if (want_input_grad) grad_main.add_scaled(grad_short, 1.0f);
  } else if (want_input_grad) {
    grad_main.add_scaled(g, 1.0f);
  }
  return grad_main;
}

std::unique_ptr<Layer> ResidualBlock::replicate() const {
  auto main = main_.replicate();
  std::unique_ptr<ResidualBlock> copy{new ResidualBlock()};
  copy->main_ = std::move(static_cast<Sequential&>(*main));
  if (shortcut_)
    copy->shortcut_.reset(
        static_cast<Sequential*>(shortcut_->replicate().release()));
  copy->cached_sum_ = cached_sum_;
  return copy;
}

std::vector<Param*> ResidualBlock::params() {
  auto out = main_.params();
  if (shortcut_)
    for (Param* p : shortcut_->params()) out.push_back(p);
  return out;
}

std::vector<Tensor*> ResidualBlock::state() {
  auto out = main_.state();
  if (shortcut_)
    for (Tensor* t : shortcut_->state()) out.push_back(t);
  return out;
}

}  // namespace sb::ml
