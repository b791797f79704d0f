// Kernel TU (built with -ffp-contract=off like every library TU): the
// fused Adam sweep below mixes a scalar loop and a vector path built on
// util/simd.hpp's correctly-rounded double ops, and the two must stay
// bitwise-identical.
#include "ml/optimizer.hpp"

#include <cmath>

#include "util/simd.hpp"

namespace sb::ml {

Adam::Adam(std::vector<Param*> params, double lr, double beta1, double beta2, double eps,
           double weight_decay)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  for (Param* p : params_) {
    m_.emplace(p, Tensor::zeros(p->value.shape()));
    v_.emplace(p, Tensor::zeros(p->value.shape()));
  }
}

void Adam::zero_grad() {
  for (Param* p : params_) p->zero_grad();
}

// One pass per parameter: moment update, bias-corrected step, decoupled
// weight decay, and (fused) gradient clear.  Every double operation is a
// correctly-rounded IEEE primitive in the exact scalar order — the rounded
// float moments are stored and re-widened before the bias correction, just
// like the scalar loop reads them back — so scalar and vector paths agree
// bitwise at any lane width.
void Adam::run_step(bool zero_grads) {
  ++step_count_;
  const double bc1 = 1.0 - std::pow(beta1_, step_count_);
  const double bc2 = 1.0 - std::pow(beta2_, step_count_);
  namespace v = util::simd;
  static_assert(v::kFloatLanes == 2 * v::kDoubleLanes);
  for (Param* p : params_) {
    Tensor& m = m_.at(p);
    Tensor& vv = v_.at(p);
    const std::size_t numel = p->value.numel();
    std::size_t i = 0;
    if (util::simd_enabled()) {
      const std::size_t kD = v::kDoubleLanes;
      const v::VDouble b1 = v::broadcastd(beta1_);
      const v::VDouble omb1 = v::broadcastd(1.0 - beta1_);
      const v::VDouble b2 = v::broadcastd(beta2_);
      const v::VDouble omb2 = v::broadcastd(1.0 - beta2_);
      const v::VDouble vbc1 = v::broadcastd(bc1);
      const v::VDouble vbc2 = v::broadcastd(bc2);
      const v::VDouble vlr = v::broadcastd(lr_);
      const v::VDouble veps = v::broadcastd(eps_);
      // lr_ * weight_decay_ is data-independent, so hoisting it keeps the
      // scalar expression (lr_ * weight_decay_ * value) bitwise.
      const v::VDouble vlrwd = v::broadcastd(lr_ * weight_decay_);
      const v::VFloat zf = v::zero_f();
      for (; i + v::kFloatLanes <= numel; i += v::kFloatLanes) {
        float* gp = p->grad.data() + i;
        float* mp = m.data() + i;
        float* vp = vv.data() + i;
        float* xp = p->value.data() + i;
        const v::VDouble glo = v::widen(gp), ghi = v::widen(gp + kD);
        v::VDouble mlo = v::addd(v::muld(b1, v::widen(mp)), v::muld(omb1, glo));
        v::VDouble mhi =
            v::addd(v::muld(b1, v::widen(mp + kD)), v::muld(omb1, ghi));
        v::store(mp, v::narrow2(mlo, mhi));
        mlo = v::widen(mp);
        mhi = v::widen(mp + kD);
        v::VDouble vlo = v::addd(v::muld(b2, v::widen(vp)),
                                 v::muld(v::muld(omb2, glo), glo));
        v::VDouble vhi = v::addd(v::muld(b2, v::widen(vp + kD)),
                                 v::muld(v::muld(omb2, ghi), ghi));
        v::store(vp, v::narrow2(vlo, vhi));
        vlo = v::widen(vp);
        vhi = v::widen(vp + kD);
        const v::VDouble den_lo = v::addd(v::sqrtd(v::divd(vlo, vbc2)), veps);
        const v::VDouble den_hi = v::addd(v::sqrtd(v::divd(vhi, vbc2)), veps);
        const v::VDouble upd_lo =
            v::addd(v::divd(v::muld(vlr, v::divd(mlo, vbc1)), den_lo),
                    v::muld(vlrwd, v::widen(xp)));
        const v::VDouble upd_hi =
            v::addd(v::divd(v::muld(vlr, v::divd(mhi, vbc1)), den_hi),
                    v::muld(vlrwd, v::widen(xp + kD)));
        v::store(xp, v::sub(v::load(xp), v::narrow2(upd_lo, upd_hi)));
        if (zero_grads) v::store(gp, zf);
      }
    }
    for (; i < numel; ++i) {
      const double g = p->grad[i];
      m[i] = static_cast<float>(beta1_ * m[i] + (1.0 - beta1_) * g);
      vv[i] = static_cast<float>(beta2_ * vv[i] + (1.0 - beta2_) * g * g);
      const double mhat = m[i] / bc1;
      const double vhat = vv[i] / bc2;
      p->value[i] -= static_cast<float>(lr_ * mhat / (std::sqrt(vhat) + eps_) +
                                        lr_ * weight_decay_ * p->value[i]);
      if (zero_grads) p->grad[i] = 0.0f;
    }
  }
}

}  // namespace sb::ml
