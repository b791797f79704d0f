#include "ml/gemm.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace sb::ml {
namespace {

// Minimum per-chunk work (multiply-adds) before fanning out to the pool;
// below this the dispatch overhead dominates.
constexpr std::size_t kMinParallelWork = 16 * 1024;

std::size_t row_grain(std::size_t m, std::size_t work_per_row) {
  if (work_per_row == 0) return m;
  const std::size_t rows = std::max<std::size_t>(1, kMinParallelWork / work_per_row);
  return std::min(m, rows);
}

// Flop accounting (2*M*K*N per multiply): one relaxed atomic add per matmul
// call, gated on tracing so the disabled path costs a single load.
void count_flops(std::size_t m, std::size_t k, std::size_t n) {
  if (!obs::enabled()) return;
  static obs::Counter& flops = obs::Registry::instance().counter("gemm.flops");
  static obs::Counter& calls = obs::Registry::instance().counter("gemm.calls");
  flops.add(static_cast<std::uint64_t>(2) * m * k * n);
  calls.add();
}

// Vectorized 4-row x lane-width C tile: lanes span independent output
// COLUMNS, kk advances strictly ascending inside the tile, and each lane
// performs the same mul-then-add as the scalar kernel — so the result is
// bitwise-identical to the scalar path (no FMA: every library TU is built
// with -ffp-contract=off).  The C tile lives in registers across the whole kk
// sweep, which is also where the speedup comes from.
//
// Both row kernels read A through a row stride `rs` and a column stride
// `cs`: element (i, kk) is a[i * lda + kk] for matmul_nn and, with A stored
// [K, M], a[kk * lda + i] for matmul_tn.  The unit stride is a compile-time
// constant in each instantiation, so matmul_nn keeps its plain indexing.
template <bool kTransA>
void nn_rows_vector(const float* a, std::size_t lda, const float* b,
                    std::size_t ldb, float* c, std::size_t ldc, std::size_t i0,
                    std::size_t i1, std::size_t k, std::size_t n,
                    bool accumulate) {
  namespace v = util::simd;
  constexpr std::size_t W = v::kFloatLanes;
  const std::size_t rs = kTransA ? 1 : lda;
  const std::size_t cs = kTransA ? lda : 1;
  std::size_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    const float* a0 = a + i * rs;
    float* c0 = c + i * ldc;
    float* c1 = c0 + ldc;
    float* c2 = c1 + ldc;
    float* c3 = c2 + ldc;
    std::size_t j = 0;
    for (; j + W <= n; j += W) {
      v::VFloat s0 = accumulate ? v::load(c0 + j) : v::zero_f();
      v::VFloat s1 = accumulate ? v::load(c1 + j) : v::zero_f();
      v::VFloat s2 = accumulate ? v::load(c2 + j) : v::zero_f();
      v::VFloat s3 = accumulate ? v::load(c3 + j) : v::zero_f();
      for (std::size_t kk = 0; kk < k; ++kk) {
        const v::VFloat bv = v::load(b + kk * ldb + j);
        const float* ak = a0 + kk * cs;
        s0 = v::add(s0, v::mul(v::broadcast(ak[0]), bv));
        s1 = v::add(s1, v::mul(v::broadcast(ak[rs]), bv));
        s2 = v::add(s2, v::mul(v::broadcast(ak[2 * rs]), bv));
        s3 = v::add(s3, v::mul(v::broadcast(ak[3 * rs]), bv));
      }
      v::store(c0 + j, s0);
      v::store(c1 + j, s1);
      v::store(c2 + j, s2);
      v::store(c3 + j, s3);
    }
    for (; j < n; ++j) {
      float s0 = accumulate ? c0[j] : 0.0f;
      float s1 = accumulate ? c1[j] : 0.0f;
      float s2 = accumulate ? c2[j] : 0.0f;
      float s3 = accumulate ? c3[j] : 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float bj = b[kk * ldb + j];
        const float* ak = a0 + kk * cs;
        s0 += ak[0] * bj;
        s1 += ak[rs] * bj;
        s2 += ak[2 * rs] * bj;
        s3 += ak[3 * rs] * bj;
      }
      c0[j] = s0;
      c1[j] = s1;
      c2[j] = s2;
      c3[j] = s3;
    }
  }
  for (; i < i1; ++i) {
    const float* ai = a + i * rs;
    float* ci = c + i * ldc;
    std::size_t j = 0;
    for (; j + W <= n; j += W) {
      v::VFloat s = accumulate ? v::load(ci + j) : v::zero_f();
      for (std::size_t kk = 0; kk < k; ++kk)
        s = v::add(s, v::mul(v::broadcast(ai[kk * cs]), v::load(b + kk * ldb + j)));
      v::store(ci + j, s);
    }
    for (; j < n; ++j) {
      float s = accumulate ? ci[j] : 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) s += ai[kk * cs] * b[kk * ldb + j];
      ci[j] = s;
    }
  }
}

template <bool kTransA>
void nn_rows_scalar(const float* a, std::size_t lda, const float* b,
                    std::size_t ldb, float* c, std::size_t ldc, std::size_t i0,
                    std::size_t i1, std::size_t k, std::size_t n,
                    bool accumulate) {
  const std::size_t rs = kTransA ? 1 : lda;
  const std::size_t cs = kTransA ? lda : 1;
  std::size_t i = i0;
  // 4-row micro-kernel: each loaded B row feeds four C rows.  The
  // per-element accumulation order over kk stays strictly ascending.
  for (; i + 4 <= i1; i += 4) {
    float* c0 = c + i * ldc;
    float* c1 = c0 + ldc;
    float* c2 = c1 + ldc;
    float* c3 = c2 + ldc;
    if (!accumulate) {
      std::fill_n(c0, n, 0.0f);
      std::fill_n(c1, n, 0.0f);
      std::fill_n(c2, n, 0.0f);
      std::fill_n(c3, n, 0.0f);
    }
    const float* a0 = a + i * rs;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float* br = b + kk * ldb;
      const float* ak = a0 + kk * cs;
      const float v0 = ak[0];
      const float v1 = ak[rs];
      const float v2 = ak[2 * rs];
      const float v3 = ak[3 * rs];
      for (std::size_t j = 0; j < n; ++j) {
        const float bj = br[j];
        c0[j] += v0 * bj;
        c1[j] += v1 * bj;
        c2[j] += v2 * bj;
        c3[j] += v3 * bj;
      }
    }
  }
  for (; i < i1; ++i) {
    float* ci = c + i * ldc;
    if (!accumulate) std::fill_n(ci, n, 0.0f);
    const float* ai = a + i * rs;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float* br = b + kk * ldb;
      const float v = ai[kk * cs];
      for (std::size_t j = 0; j < n; ++j) ci[j] += v * br[j];
    }
  }
}

// matmul_nn and matmul_tn: disjoint row ranges of C, each through the
// vector or the scalar tile.
template <bool kTransA>
void matmul_rows(const float* a, std::size_t lda, const float* b, std::size_t ldb,
                 float* c, std::size_t ldc, std::size_t m, std::size_t k,
                 std::size_t n, bool accumulate) {
  count_flops(m, k, n);
  const bool vec = util::simd_enabled();
  util::parallel_for_ranges(
      m,
      [&](std::size_t i0, std::size_t i1) {
        if (vec)
          nn_rows_vector<kTransA>(a, lda, b, ldb, c, ldc, i0, i1, k, n, accumulate);
        else
          nn_rows_scalar<kTransA>(a, lda, b, ldb, c, ldc, i0, i1, k, n, accumulate);
      },
      row_grain(m, k * n));
}

}  // namespace

void matmul_nn(const float* a, std::size_t lda, const float* b, std::size_t ldb,
               float* c, std::size_t ldc, std::size_t m, std::size_t k,
               std::size_t n, bool accumulate) {
  matmul_rows<false>(a, lda, b, ldb, c, ldc, m, k, n, accumulate);
}

void matmul_tn(const float* a, std::size_t lda, const float* b, std::size_t ldb,
               float* c, std::size_t ldc, std::size_t m, std::size_t k,
               std::size_t n, bool accumulate) {
  matmul_rows<true>(a, lda, b, ldb, c, ldc, m, k, n, accumulate);
}

void matmul_nt(const float* a, std::size_t lda, const float* b, std::size_t ldb,
               float* c, std::size_t ldc, std::size_t m, std::size_t k,
               std::size_t n, bool accumulate) {
  count_flops(m, k, n);
  util::parallel_for_ranges(
      m,
      [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
          const float* ai = a + i * lda;
          float* ci = c + i * ldc;
          std::size_t j = 0;
          // 4 dot products per A-row sweep; each is an independent ascending
          // k accumulation.  When accumulating, the registers are seeded
          // from C so the result equals the classic `s = c; s += a*b` loop.
          for (; j + 4 <= n; j += 4) {
            const float* b0 = b + j * ldb;
            const float* b1 = b0 + ldb;
            const float* b2 = b1 + ldb;
            const float* b3 = b2 + ldb;
            float s0 = accumulate ? ci[j] : 0.0f;
            float s1 = accumulate ? ci[j + 1] : 0.0f;
            float s2 = accumulate ? ci[j + 2] : 0.0f;
            float s3 = accumulate ? ci[j + 3] : 0.0f;
            for (std::size_t kk = 0; kk < k; ++kk) {
              const float av = ai[kk];
              s0 += av * b0[kk];
              s1 += av * b1[kk];
              s2 += av * b2[kk];
              s3 += av * b3[kk];
            }
            ci[j] = s0;
            ci[j + 1] = s1;
            ci[j + 2] = s2;
            ci[j + 3] = s3;
          }
          for (; j < n; ++j) {
            const float* bj = b + j * ldb;
            float s = accumulate ? ci[j] : 0.0f;
            for (std::size_t kk = 0; kk < k; ++kk) s += ai[kk] * bj[kk];
            ci[j] = s;
          }
        }
      },
      row_grain(m, k * n));
}

void pack_transpose(const float* a, std::size_t lda, std::size_t rows,
                    std::size_t cols, float* dst) {
  for (std::size_t i = 0; i < rows; ++i) {
    const float* ai = a + i * lda;
    for (std::size_t j = 0; j < cols; ++j) dst[j * rows + i] = ai[j];
  }
}

}  // namespace sb::ml
