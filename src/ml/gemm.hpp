// Shared dense matrix-multiply kernels backing the ML hot path (Dense,
// Conv2D over its im2col patch matrix, LSTM gate math).  Depthwise convs run
// a direct kernel of their own (conv.cpp) and use none of these.
//
// Determinism contract: for every output element, the K-dimension is
// accumulated in ascending k order regardless of blocking or thread count —
// parallelism only ever splits the (disjoint) output rows.  Results are
// therefore bit-identical for any SB_THREADS value.
//
// All matrices are row-major.  `ld*` are row strides in elements (pass the
// logical width for a packed matrix); they let callers multiply sub-blocks
// of larger tensors (e.g. one LSTM time step of an [N, T, D] input) without
// copying.
#pragma once

#include <cstddef>

namespace sb::ml {

// C[M,N] = (accumulate ? C : 0) + A[M,K] * B[K,N].
void matmul_nn(const float* a, std::size_t lda, const float* b, std::size_t ldb,
               float* c, std::size_t ldc, std::size_t m, std::size_t k,
               std::size_t n, bool accumulate);

// C[M,N] = (accumulate ? C : 0) + A[M,K] * B^T, with B stored [N,K].
// Both operands are read along contiguous rows (cache-friendly dot products).
void matmul_nt(const float* a, std::size_t lda, const float* b, std::size_t ldb,
               float* c, std::size_t ldc, std::size_t m, std::size_t k,
               std::size_t n, bool accumulate);

// C[M,N] = (accumulate ? C : 0) + A^T * B, with A stored [K,M], B stored [K,N].
// Runs matmul_nn's register tiles (vector and scalar) reading A transposed
// in place, so each element keeps the same ascending-k sum.
void matmul_tn(const float* a, std::size_t lda, const float* b, std::size_t ldb,
               float* c, std::size_t ldc, std::size_t m, std::size_t k,
               std::size_t n, bool accumulate);

// dst[cols, rows] = transpose of A[rows, cols] (row stride lda), packed.
// Conv2D's backward packs a pointwise conv's input this way, as the
// transposed patch matrix its dW GEMM reads.  Serial on purpose: it is
// called from inside parallel shard regions.
void pack_transpose(const float* a, std::size_t lda, std::size_t rows,
                    std::size_t cols, float* dst);

}  // namespace sb::ml
