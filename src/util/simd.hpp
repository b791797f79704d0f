// Portable fixed-width SIMD layer (DESIGN.md "Performance architecture").
//
// One instruction set is picked at COMPILE time (AVX2 > SSE2 > NEON, with a
// scalar emulation that always builds — forced via SB_SIMD_FORCE_SCALAR /
// -DSOUNDBOOST_SIMD=scalar), and a RUNTIME backend toggle (kScalar/kVector)
// lets one binary run both paths so equivalence tests can compare them
// in-process.
//
// Determinism contract (CLAUDE.md): every operation here is a lane-wise
// IEEE-754 primitive (load/store/broadcast/add/sub/mul, correctly-rounded
// div/sqrt, exact f32→f64 widen / correctly-rounded f64→f32 narrow,
// bitwise logic) or a
// compare/select composition with EXACT scalar semantics — vmax/vmin match
// std::max/std::min including NaN operand-order behaviour, comparisons are
// ordered (false on NaN) like the scalar operators.  Kernels built on these
// ops keep each output element's scalar operation order, so the vector path
// is bitwise-identical to the scalar path as long as lanes span INDEPENDENT
// output elements and no FMA contracts them: src/CMakeLists.txt compiles
// every library TU with -ffp-contract=off.  Transcendentals (tanh, exp,
// log, hypot) are deliberately absent: they cannot match libm bitwise.
//
// One boundary: when a REDUCTION mixes NaNs with different payloads, which
// payload survives is unspecified — IEEE-754 leaves it open, compilers may
// commute scalar `a + b`, and x86 keeps the first NaN operand — so two
// scalar builds can already disagree there.  The contract is: identical NaN
// placement and bit-identical non-NaN values always; bit-identical NaN
// payloads everywhere except multi-NaN reductions (pinned by simd_test).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstring>

#if defined(SB_SIMD_FORCE_SCALAR)
#define SB_SIMD_SCALAR 1
#elif defined(__AVX2__)
#define SB_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__)
#define SB_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__aarch64__)
#define SB_SIMD_NEON 1
#include <arm_neon.h>
#else
#define SB_SIMD_SCALAR 1
#endif

namespace sb::util {

// ---------------------------------------------------------------------------
// Runtime backend toggle (process-wide).  kVector is the default;
// SB_SIMD=scalar or set_simd_backend(kScalar) selects the plain scalar loops
// in every routed kernel.  On a scalar-compiled build the "vector" ops are
// per-lane loops, so both settings are bitwise-identical by construction
// there too.
enum class SimdBackend { kScalar, kVector };

SimdBackend simd_backend();
void set_simd_backend(SimdBackend backend);
inline bool simd_enabled() { return simd_backend() == SimdBackend::kVector; }

// Compile-time ISA actually built in ("avx2", "sse2", "neon", "scalar").
const char* simd_isa_name();

namespace simd {

#if defined(SB_SIMD_AVX2)

inline constexpr std::size_t kFloatLanes = 8;
inline constexpr std::size_t kDoubleLanes = 4;
inline constexpr const char* kIsaName = "avx2";

using VFloat = __m256;
using VDouble = __m256d;

inline VFloat load(const float* p) { return _mm256_loadu_ps(p); }
inline void store(float* p, VFloat v) { _mm256_storeu_ps(p, v); }
inline VFloat broadcast(float v) { return _mm256_set1_ps(v); }
inline VFloat zero_f() { return _mm256_setzero_ps(); }
inline VFloat add(VFloat a, VFloat b) { return _mm256_add_ps(a, b); }
inline VFloat sub(VFloat a, VFloat b) { return _mm256_sub_ps(a, b); }
inline VFloat mul(VFloat a, VFloat b) { return _mm256_mul_ps(a, b); }
// Ordered comparisons: false on NaN, exactly like the scalar operators.
inline VFloat cmp_gt(VFloat a, VFloat b) { return _mm256_cmp_ps(a, b, _CMP_GT_OQ); }
inline VFloat cmp_lt(VFloat a, VFloat b) { return _mm256_cmp_ps(a, b, _CMP_LT_OQ); }
inline VFloat cmp_le(VFloat a, VFloat b) { return _mm256_cmp_ps(a, b, _CMP_LE_OQ); }
inline VFloat bit_and(VFloat a, VFloat b) { return _mm256_and_ps(a, b); }
// select(mask, a, b): a where mask bits set, else b.
inline VFloat select(VFloat mask, VFloat a, VFloat b) {
  return _mm256_blendv_ps(b, a, mask);
}

inline VDouble loadd(const double* p) { return _mm256_loadu_pd(p); }
inline void stored(double* p, VDouble v) { _mm256_storeu_pd(p, v); }
inline VDouble broadcastd(double v) { return _mm256_set1_pd(v); }
inline VDouble addd(VDouble a, VDouble b) { return _mm256_add_pd(a, b); }
inline VDouble subd(VDouble a, VDouble b) { return _mm256_sub_pd(a, b); }
inline VDouble muld(VDouble a, VDouble b) { return _mm256_mul_pd(a, b); }
// Division and square root are IEEE-754 correctly-rounded on every ISA, so
// they stay bitwise-identical to the scalar `/` and std::sqrt.
inline VDouble divd(VDouble a, VDouble b) { return _mm256_div_pd(a, b); }
inline VDouble sqrtd(VDouble a) { return _mm256_sqrt_pd(a); }
// widen: load kDoubleLanes floats and convert to doubles (exact).
inline VDouble widen(const float* p) {
  return _mm256_cvtps_pd(_mm_loadu_ps(p));
}
// narrow2: round two double vectors to one float vector (correctly rounded,
// lo fills the low lanes) — the in-register form of float(double) per lane.
inline VFloat narrow2(VDouble lo, VDouble hi) {
  return _mm256_insertf128_ps(_mm256_castps128_ps256(_mm256_cvtpd_ps(lo)),
                              _mm256_cvtpd_ps(hi), 1);
}

#elif defined(SB_SIMD_SSE2)

inline constexpr std::size_t kFloatLanes = 4;
inline constexpr std::size_t kDoubleLanes = 2;
inline constexpr const char* kIsaName = "sse2";

using VFloat = __m128;
using VDouble = __m128d;

inline VFloat load(const float* p) { return _mm_loadu_ps(p); }
inline void store(float* p, VFloat v) { _mm_storeu_ps(p, v); }
inline VFloat broadcast(float v) { return _mm_set1_ps(v); }
inline VFloat zero_f() { return _mm_setzero_ps(); }
inline VFloat add(VFloat a, VFloat b) { return _mm_add_ps(a, b); }
inline VFloat sub(VFloat a, VFloat b) { return _mm_sub_ps(a, b); }
inline VFloat mul(VFloat a, VFloat b) { return _mm_mul_ps(a, b); }
inline VFloat cmp_gt(VFloat a, VFloat b) { return _mm_cmpgt_ps(a, b); }
inline VFloat cmp_lt(VFloat a, VFloat b) { return _mm_cmplt_ps(a, b); }
inline VFloat cmp_le(VFloat a, VFloat b) { return _mm_cmple_ps(a, b); }
inline VFloat bit_and(VFloat a, VFloat b) { return _mm_and_ps(a, b); }
inline VFloat select(VFloat mask, VFloat a, VFloat b) {
  return _mm_or_ps(_mm_and_ps(mask, a), _mm_andnot_ps(mask, b));
}

inline VDouble loadd(const double* p) { return _mm_loadu_pd(p); }
inline void stored(double* p, VDouble v) { _mm_storeu_pd(p, v); }
inline VDouble broadcastd(double v) { return _mm_set1_pd(v); }
inline VDouble addd(VDouble a, VDouble b) { return _mm_add_pd(a, b); }
inline VDouble subd(VDouble a, VDouble b) { return _mm_sub_pd(a, b); }
inline VDouble muld(VDouble a, VDouble b) { return _mm_mul_pd(a, b); }
inline VDouble divd(VDouble a, VDouble b) { return _mm_div_pd(a, b); }
inline VDouble sqrtd(VDouble a) { return _mm_sqrt_pd(a); }
inline VDouble widen(const float* p) {
  // 8-byte load of exactly kDoubleLanes floats, then exact f32→f64 convert.
  __m128i bits = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  return _mm_cvtps_pd(_mm_castsi128_ps(bits));
}
inline VFloat narrow2(VDouble lo, VDouble hi) {
  return _mm_movelh_ps(_mm_cvtpd_ps(lo), _mm_cvtpd_ps(hi));
}

#elif defined(SB_SIMD_NEON)

inline constexpr std::size_t kFloatLanes = 4;
inline constexpr std::size_t kDoubleLanes = 2;
inline constexpr const char* kIsaName = "neon";

using VFloat = float32x4_t;
using VDouble = float64x2_t;

inline VFloat load(const float* p) { return vld1q_f32(p); }
inline void store(float* p, VFloat v) { vst1q_f32(p, v); }
inline VFloat broadcast(float v) { return vdupq_n_f32(v); }
inline VFloat zero_f() { return vdupq_n_f32(0.0f); }
inline VFloat add(VFloat a, VFloat b) { return vaddq_f32(a, b); }
inline VFloat sub(VFloat a, VFloat b) { return vsubq_f32(a, b); }
inline VFloat mul(VFloat a, VFloat b) { return vmulq_f32(a, b); }
inline VFloat cmp_gt(VFloat a, VFloat b) {
  return vreinterpretq_f32_u32(vcgtq_f32(a, b));
}
inline VFloat cmp_lt(VFloat a, VFloat b) {
  return vreinterpretq_f32_u32(vcltq_f32(a, b));
}
inline VFloat cmp_le(VFloat a, VFloat b) {
  return vreinterpretq_f32_u32(vcleq_f32(a, b));
}
inline VFloat bit_and(VFloat a, VFloat b) {
  return vreinterpretq_f32_u32(
      vandq_u32(vreinterpretq_u32_f32(a), vreinterpretq_u32_f32(b)));
}
inline VFloat select(VFloat mask, VFloat a, VFloat b) {
  return vbslq_f32(vreinterpretq_u32_f32(mask), a, b);
}

inline VDouble loadd(const double* p) { return vld1q_f64(p); }
inline void stored(double* p, VDouble v) { vst1q_f64(p, v); }
inline VDouble broadcastd(double v) { return vdupq_n_f64(v); }
inline VDouble addd(VDouble a, VDouble b) { return vaddq_f64(a, b); }
inline VDouble subd(VDouble a, VDouble b) { return vsubq_f64(a, b); }
inline VDouble muld(VDouble a, VDouble b) { return vmulq_f64(a, b); }
inline VDouble divd(VDouble a, VDouble b) { return vdivq_f64(a, b); }
inline VDouble sqrtd(VDouble a) { return vsqrtq_f64(a); }
inline VDouble widen(const float* p) { return vcvt_f64_f32(vld1_f32(p)); }
inline VFloat narrow2(VDouble lo, VDouble hi) {
  return vcombine_f32(vcvt_f32_f64(lo), vcvt_f32_f64(hi));
}

#else  // SB_SIMD_SCALAR — per-lane loops; identical operations, no vector ISA.

inline constexpr std::size_t kFloatLanes = 4;
inline constexpr std::size_t kDoubleLanes = 2;
inline constexpr const char* kIsaName = "scalar";

struct VFloat {
  float v[kFloatLanes];
};
struct VDouble {
  double v[kDoubleLanes];
};

inline VFloat load(const float* p) {
  VFloat r;
  std::memcpy(r.v, p, sizeof(r.v));
  return r;
}
inline void store(float* p, VFloat a) { std::memcpy(p, a.v, sizeof(a.v)); }
inline VFloat broadcast(float x) {
  VFloat r;
  for (std::size_t i = 0; i < kFloatLanes; ++i) r.v[i] = x;
  return r;
}
inline VFloat zero_f() { return broadcast(0.0f); }
inline VFloat add(VFloat a, VFloat b) {
  VFloat r;
  for (std::size_t i = 0; i < kFloatLanes; ++i) r.v[i] = a.v[i] + b.v[i];
  return r;
}
inline VFloat sub(VFloat a, VFloat b) {
  VFloat r;
  for (std::size_t i = 0; i < kFloatLanes; ++i) r.v[i] = a.v[i] - b.v[i];
  return r;
}
inline VFloat mul(VFloat a, VFloat b) {
  VFloat r;
  for (std::size_t i = 0; i < kFloatLanes; ++i) r.v[i] = a.v[i] * b.v[i];
  return r;
}
namespace detail {
inline float mask_bits(bool on) {
  float f;
  const unsigned bits = on ? 0xFFFFFFFFu : 0u;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}
}  // namespace detail
inline VFloat cmp_gt(VFloat a, VFloat b) {
  VFloat r;
  for (std::size_t i = 0; i < kFloatLanes; ++i)
    r.v[i] = detail::mask_bits(a.v[i] > b.v[i]);
  return r;
}
inline VFloat cmp_lt(VFloat a, VFloat b) {
  VFloat r;
  for (std::size_t i = 0; i < kFloatLanes; ++i)
    r.v[i] = detail::mask_bits(a.v[i] < b.v[i]);
  return r;
}
inline VFloat cmp_le(VFloat a, VFloat b) {
  VFloat r;
  for (std::size_t i = 0; i < kFloatLanes; ++i)
    r.v[i] = detail::mask_bits(a.v[i] <= b.v[i]);
  return r;
}
inline VFloat bit_and(VFloat a, VFloat b) {
  VFloat r;
  for (std::size_t i = 0; i < kFloatLanes; ++i) {
    unsigned x, y;
    std::memcpy(&x, &a.v[i], sizeof(x));
    std::memcpy(&y, &b.v[i], sizeof(y));
    x &= y;
    std::memcpy(&r.v[i], &x, sizeof(x));
  }
  return r;
}
inline VFloat select(VFloat mask, VFloat a, VFloat b) {
  VFloat r;
  for (std::size_t i = 0; i < kFloatLanes; ++i) {
    unsigned m;
    std::memcpy(&m, &mask.v[i], sizeof(m));
    r.v[i] = m != 0 ? a.v[i] : b.v[i];
  }
  return r;
}

inline VDouble loadd(const double* p) {
  VDouble r;
  std::memcpy(r.v, p, sizeof(r.v));
  return r;
}
inline void stored(double* p, VDouble a) { std::memcpy(p, a.v, sizeof(a.v)); }
inline VDouble broadcastd(double x) {
  VDouble r;
  for (std::size_t i = 0; i < kDoubleLanes; ++i) r.v[i] = x;
  return r;
}
inline VDouble addd(VDouble a, VDouble b) {
  VDouble r;
  for (std::size_t i = 0; i < kDoubleLanes; ++i) r.v[i] = a.v[i] + b.v[i];
  return r;
}
inline VDouble subd(VDouble a, VDouble b) {
  VDouble r;
  for (std::size_t i = 0; i < kDoubleLanes; ++i) r.v[i] = a.v[i] - b.v[i];
  return r;
}
inline VDouble muld(VDouble a, VDouble b) {
  VDouble r;
  for (std::size_t i = 0; i < kDoubleLanes; ++i) r.v[i] = a.v[i] * b.v[i];
  return r;
}
inline VDouble divd(VDouble a, VDouble b) {
  VDouble r;
  for (std::size_t i = 0; i < kDoubleLanes; ++i) r.v[i] = a.v[i] / b.v[i];
  return r;
}
inline VDouble sqrtd(VDouble a) {
  VDouble r;
  for (std::size_t i = 0; i < kDoubleLanes; ++i) r.v[i] = std::sqrt(a.v[i]);
  return r;
}
inline VDouble widen(const float* p) {
  VDouble r;
  for (std::size_t i = 0; i < kDoubleLanes; ++i)
    r.v[i] = static_cast<double>(p[i]);
  return r;
}
inline VFloat narrow2(VDouble lo, VDouble hi) {
  VFloat r;
  for (std::size_t i = 0; i < kDoubleLanes; ++i) {
    r.v[i] = static_cast<float>(lo.v[i]);
    r.v[kDoubleLanes + i] = static_cast<float>(hi.v[i]);
  }
  return r;
}
#endif

// std::max(a, b) per lane — returns a on unordered (NaN) comparisons and
// preserves the scalar ±0 pick, because it is literally (a < b) ? b : a.
inline VFloat vmax(VFloat a, VFloat b) { return select(cmp_lt(a, b), b, a); }
// std::min(a, b) per lane: (b < a) ? b : a.
inline VFloat vmin(VFloat a, VFloat b) { return select(cmp_lt(b, a), b, a); }

}  // namespace simd
}  // namespace sb::util
