// SIMD backend equivalence and workspace zero-allocation coverage
// (DESIGN.md "Performance architecture"):
//   * vmax/vmin/compare lane semantics vs the scalar operators, including
//     NaN operand-order behaviour,
//   * matmul_nn and matmul_tn, vector and scalar backend, against a naive
//     ascending-k loop on ragged shapes (k in {0,1}, non-multiple-of-lane
//     N, non-multiple-of-tile M, strided sub-blocks) — bitwise, not
//     approximately,
//   * the STFT's lanes across frames and the four-mic low-pass's lanes
//     across mics against their per-frame and per-channel scalar loops, on
//     special values,
//   * elementwise layers (ReLU, BatchNorm, ResidualBlock's post-sum ReLU)
//     fed NaN/infinity/denormal inputs — the vector masks must keep the
//     exact scalar special-value behaviour — and BatchNorm's fused
//     activation against BatchNorm followed by ReLU,
//   * the direct depthwise and im2col convolution kernels on ragged widths,
//   * the cached_hann_window coefficient cache,
//   * end-to-end training fingerprints across backend x thread-count,
//   * the steady-state zero-allocation contract of the workspace pool on
//     the prepare_signature -> predict_prepared serving path.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "core/sensory_mapper.hpp"
#include "core/signature.hpp"
#include "dsp/biquad.hpp"
#include "dsp/features.hpp"
#include "dsp/spectrogram.hpp"
#include "dsp/window.hpp"
#include "ml/conv.hpp"
#include "ml/gemm.hpp"
#include "ml/layers.hpp"
#include "ml/models.hpp"
#include "ml/tensor.hpp"
#include "ml/trainer.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace sb {
namespace {

using ml::Tensor;

struct SimdBackendGuard {
  explicit SimdBackendGuard(util::SimdBackend b) : prev_(util::simd_backend()) {
    util::set_simd_backend(b);
  }
  ~SimdBackendGuard() { util::set_simd_backend(prev_); }
  util::SimdBackend prev_;
};

struct ThreadCountGuard {
  explicit ThreadCountGuard(std::size_t n) { util::ThreadPool::set_threads(n); }
  ~ThreadCountGuard() { util::ThreadPool::set_threads(0); }
};

// memcmp-based equality: float/double == would pass -0.0 vs 0.0 and miss
// NaN payload divergence; the SIMD contract is BITWISE identity.
template <typename T>
void expect_bits_equal(const std::vector<T>& a, const std::vector<T>& b,
                       const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (a.empty()) return;  // memcmp must not see an empty vector's null data()
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0) << what;
}

// Bitwise equality except that any-NaN matches any-NaN.  When an
// accumulation mixes NaNs with different payloads, WHICH payload survives is
// unspecified: IEEE-754 leaves it open, the compiler may commute scalar
// `a + b`, and x86 returns the first NaN operand — so two scalar builds can
// already disagree.  What IS pinned: the same elements are NaN on both
// backends (a mask that wrongly zeroed a NaN lane would surface as
// 0.0-vs-finite) and every non-NaN element is bit-identical.
void expect_bits_equal_modulo_nan(const std::vector<float>& a,
                                  const std::vector<float>& b,
                                  const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(float)), 0)
        << what << " at flat index " << i << ": " << a[i] << " vs " << b[i];
  }
}

// ---------------------------------------------------------------------------
// Lane-op semantics.

TEST(SimdOpsTest, MaxMinMatchStdSemanticsIncludingNaN) {
  namespace v = util::simd;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float cases[][2] = {{1.0f, 2.0f}, {2.0f, 1.0f}, {-0.0f, 0.0f},
                            {0.0f, -0.0f}, {nan, 1.0f},  {1.0f, nan},
                            {nan, nan},    {-3.5f, -3.5f}};
  for (const auto& c : cases) {
    float a[v::kFloatLanes], b[v::kFloatLanes];
    float out_max[v::kFloatLanes], out_min[v::kFloatLanes];
    for (std::size_t i = 0; i < v::kFloatLanes; ++i) {
      a[i] = c[0];
      b[i] = c[1];
    }
    v::store(out_max, v::vmax(v::load(a), v::load(b)));
    v::store(out_min, v::vmin(v::load(a), v::load(b)));
    for (std::size_t i = 0; i < v::kFloatLanes; ++i) {
      const float smax = std::max(a[i], b[i]);
      const float smin = std::min(a[i], b[i]);
      EXPECT_EQ(std::memcmp(&out_max[i], &smax, sizeof(float)), 0)
          << "max(" << c[0] << ", " << c[1] << ") lane " << i;
      EXPECT_EQ(std::memcmp(&out_min[i], &smin, sizeof(float)), 0)
          << "min(" << c[0] << ", " << c[1] << ") lane " << i;
    }
  }
}

TEST(SimdOpsTest, BackendToggleRoundTrips) {
  const auto before = util::simd_backend();
  {
    SimdBackendGuard guard{util::SimdBackend::kScalar};
    EXPECT_FALSE(util::simd_enabled());
  }
  EXPECT_EQ(util::simd_backend(), before);
  EXPECT_NE(util::simd_isa_name(), nullptr);
}

// ---------------------------------------------------------------------------
// GEMM.

struct GemmCase {
  std::size_t m, k, n;
};

// The two products the row kernels run: element (i, kk) of A sits at
// a[i * lda + kk] for matmul_nn and at a[kk * lda + i] for matmul_tn.
enum class GemmOp { kNn, kTn };

const char* to_string(GemmOp op) { return op == GemmOp::kNn ? "nn" : "tn"; }

std::vector<float> run_gemm(GemmOp op, util::SimdBackend backend,
                            const std::vector<float>& a, std::size_t lda,
                            const std::vector<float>& b, std::size_t ldb,
                            std::vector<float> c, std::size_t ldc, std::size_t m,
                            std::size_t k, std::size_t n, bool accumulate) {
  SimdBackendGuard guard{backend};
  (op == GemmOp::kNn ? ml::matmul_nn : ml::matmul_tn)(
      a.data(), lda, b.data(), ldb, c.data(), ldc, m, k, n, accumulate);
  return c;
}

// C (or +0) plus one product per k in ascending k: the sum both backends
// must reproduce bit for bit.  Each product passes through a volatile, so
// no compiler can fuse it into the add.
std::vector<float> naive_gemm(GemmOp op, const std::vector<float>& a,
                              std::size_t lda, const std::vector<float>& b,
                              std::size_t ldb, std::vector<float> c,
                              std::size_t ldc, std::size_t m, std::size_t k,
                              std::size_t n, bool accumulate) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      float s = accumulate ? c[i * ldc + j] : 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float aik = op == GemmOp::kNn ? a[i * lda + kk] : a[kk * lda + i];
        const volatile float product = aik * b[kk * ldb + j];
        s += product;
      }
      c[i * ldc + j] = s;
    }
  return c;
}

// matmul_nn and matmul_tn, with and without accumulate, on both backends
// and at 1 and 4 threads, against the naive loop.
void expect_gemm_matches_naive(const std::vector<float>& a, std::size_t lda_nn,
                               std::size_t lda_tn, const std::vector<float>& b,
                               std::size_t ldb, const std::vector<float>& c0,
                               std::size_t ldc, std::size_t m, std::size_t k,
                               std::size_t n) {
  for (const GemmOp op : {GemmOp::kNn, GemmOp::kTn}) {
    const std::size_t lda = op == GemmOp::kNn ? lda_nn : lda_tn;
    for (const bool acc : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "matmul_" << to_string(op)
                                        << " acc=" << acc);
      const auto want = naive_gemm(op, a, lda, b, ldb, c0, ldc, m, k, n, acc);
      for (const std::size_t threads : {1u, 4u}) {
        ThreadCountGuard pool{threads};
        expect_bits_equal(run_gemm(op, util::SimdBackend::kVector, a, lda, b,
                                   ldb, c0, ldc, m, k, n, acc),
                          want, "vector");
        expect_bits_equal(run_gemm(op, util::SimdBackend::kScalar, a, lda, b,
                                   ldb, c0, ldc, m, k, n, acc),
                          want, "scalar");
      }
    }
  }
}

TEST(SimdGemmTest, MatmulNnBitIdenticalOnRaggedShapes) {
  constexpr std::size_t kLanes = util::simd::kFloatLanes;
  const GemmCase cases[] = {
      {1, 0, 5},                // empty K: zero fill, or C kept
      {2, 0, 3},                // empty K, two rows
      {3, 1, 7},                // single-element dot products
      {1, 1, 1},                // degenerate everything
      {4, 8, kLanes},           // exact tile, exact lane width
      {5, 13, 2 * kLanes + 3},  // row remainder + column tail
      {7, 17, kLanes - 1},      // all-tail columns
      {13, 5, 1},               // single column
      {8, 31, 33},              // odd everything
  };
  std::uint64_t seed = 4200;
  for (const auto& c : cases) {
    SCOPED_TRACE(::testing::Message() << "m=" << c.m << " k=" << c.k
                                      << " n=" << c.n);
    Rng rng{seed++};
    // A is [M, K] for matmul_nn and [K, M] for matmul_tn: the same buffer.
    std::vector<float> a(std::max<std::size_t>(c.m * c.k, 1));
    std::vector<float> b(std::max<std::size_t>(c.k * c.n, 1));
    std::vector<float> c0(c.m * c.n);
    // Mixed magnitudes make any reassociation visible in the low bits.
    for (auto& v : a)
      v = static_cast<float>(rng.normal(0.0, 1.0) *
                             std::exp2(static_cast<double>(rng.uniform_int(0, 20)) - 10.0));
    for (auto& v : b) v = static_cast<float>(rng.normal(0.0, 1.0));
    for (auto& v : c0) v = static_cast<float>(rng.normal(0.0, 1.0));
    expect_gemm_matches_naive(a, c.k, c.m, b, c.n, c0, c.n, c.m, c.k, c.n);
  }
}

TEST(SimdGemmTest, MatmulNnBitIdenticalOnStridedSubBlocks) {
  // Multiply a sub-block of larger matrices: lda/ldb/ldc exceed the logical
  // widths, so the kernels' loads and stores must respect the strides.  A is
  // read as [M, K] with row stride k + 3 by matmul_nn and as [K, M] with row
  // stride m + 3 by matmul_tn.
  constexpr std::size_t m = 5, k = 9, n = 11;
  constexpr std::size_t lda_nn = k + 3, lda_tn = m + 3, ldb = n + 5, ldc = n + 2;
  Rng rng{777};
  std::vector<float> a(std::max(m * lda_nn, k * lda_tn)), b(k * ldb), c0(m * ldc);
  for (auto& v : a) v = static_cast<float>(rng.normal(0.0, 1.0));
  for (auto& v : b) v = static_cast<float>(rng.normal(0.0, 1.0));
  for (auto& v : c0) v = static_cast<float>(rng.normal(0.0, 1.0));
  expect_gemm_matches_naive(a, lda_nn, lda_tn, b, ldb, c0, ldc, m, k, n);
}

// ---------------------------------------------------------------------------
// Signature front end: the STFT's lanes across frames and the low-pass's
// lanes across mics.

// The hardware's default NaN, made at run time: Inf - Inf and Inf * 0 inside
// the kernels produce this same payload, so a special-value input carries a
// single NaN payload and raw-bit comparison stays exact.
double default_nan() {
  volatile double inf = std::numeric_limits<double>::infinity();
  return inf - inf;
}

// `n` samples of noise whose first samples are NaN, infinities, signed
// zeros, denormals and DBL_MAX (as many as fit).
std::vector<double> special_value_signal(std::size_t n, std::uint64_t seed) {
  const double specials[] = {default_nan(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max()};
  Rng rng{seed};
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = i < std::size(specials) ? specials[i] : rng.normal(0.0, 1.0);
  return x;
}

// The STFT under the vector backend (frames in fixed groups of
// kDoubleLanes, one frame per lane) against the scalar backend's per-frame
// real_fft_magnitudes, at 1 and 4 threads: frame counts that leave full and
// partial groups at 2 and 4 lanes, several frame sizes and hops, and a
// signal that opens with special values.
TEST(SimdFftTest, StftBitIdenticalAcrossBackendsAndThreads) {
  const std::size_t counts[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 14};
  for (const std::size_t frame : {std::size_t{4}, std::size_t{8},
                                  std::size_t{64}, std::size_t{1024}}) {
    for (const std::size_t hop :
         {std::size_t{1}, std::size_t{3}, frame / 2, frame, frame + 5}) {
      for (const std::size_t frames : counts) {
        SCOPED_TRACE(::testing::Message() << "frame=" << frame << " hop=" << hop
                                          << " frames=" << frames);
        const auto signal =
            special_value_signal(frame + (frames - 1) * hop, frame + hop + frames);
        dsp::StftConfig cfg;
        cfg.frame_size = frame;
        cfg.hop_size = hop;
        const auto run = [&](util::SimdBackend backend, std::size_t threads) {
          SimdBackendGuard simd{backend};
          ThreadCountGuard pool{threads};
          const auto spec = dsp::stft(signal, cfg);
          EXPECT_EQ(spec.num_frames, frames);
          return std::vector<double>(spec.mags.begin(), spec.mags.end());
        };
        const auto want = run(util::SimdBackend::kScalar, 1);
        expect_bits_equal(run(util::SimdBackend::kVector, 1), want, "vector/1");
        expect_bits_equal(run(util::SimdBackend::kVector, 4), want, "vector/4");
        expect_bits_equal(run(util::SimdBackend::kScalar, 4), want, "scalar/4");
      }
    }
  }
}

// The four-channel low-pass against four fresh BiquadCascade::low_pass
// cascades, channel by channel, on both backends: lengths around the
// 256-sample interleaving block, 1 to 3 sections (3 runs a fused pair and
// then a single section), and special values in one channel only, whose
// NaNs and infinities must stay in that mic.
TEST(SimdBiquadTest, FourChannelLowPassMatchesPerChannelCascades) {
  constexpr std::size_t kSpecialMic = 2;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{3}, std::size_t{17}, std::size_t{257},
                              std::size_t{8000}}) {
    std::array<std::vector<double>, dsp::kLaneChannels> in;
    for (std::size_t c = 0; c < in.size(); ++c) {
      Rng rng{50 + 10 * n + c};
      in[c].resize(n);
      for (auto& v : in[c]) v = rng.normal(0.0, 1.0);
    }
    in[kSpecialMic] = special_value_signal(n, 60 + n);
    for (const int sections : {1, 2, 3}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " sections=" << sections);
      const auto cascade = [&] {
        return dsp::BiquadCascade::low_pass(dsp::kPipelineCutoffHz, 16000.0, sections);
      };
      std::array<std::vector<double>, dsp::kLaneChannels> want;
      for (std::size_t c = 0; c < in.size(); ++c) {
        want[c].resize(n);
        cascade().process_into(in[c], want[c]);
      }
      for (const auto backend :
           {util::SimdBackend::kVector, util::SimdBackend::kScalar}) {
        SimdBackendGuard guard{backend};
        std::array<std::vector<double>, dsp::kLaneChannels> got;
        std::array<std::span<const double>, dsp::kLaneChannels> ins;
        std::array<std::span<double>, dsp::kLaneChannels> outs;
        for (std::size_t c = 0; c < in.size(); ++c) {
          got[c].assign(n, 0.0);
          ins[c] = in[c];
          outs[c] = got[c];
        }
        cascade().process_channels_into(ins, outs);
        for (std::size_t c = 0; c < in.size(); ++c) {
          SCOPED_TRACE(::testing::Message()
                       << (backend == util::SimdBackend::kVector ? "vector" : "scalar")
                       << " mic " << c);
          expect_bits_equal(got[c], want[c], "low-pass");
          if (c != kSpecialMic) {
            for (const double v : got[c]) ASSERT_TRUE(std::isfinite(v));
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Elementwise layers on special values.

// A tensor seeded with NaN, infinities, denormals and signed zeros in the
// first elements, random normals after.
Tensor special_value_tensor(ml::Shape shape, std::uint64_t seed) {
  Tensor t{std::move(shape)};
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            0.0f,
                            -0.0f,
                            std::numeric_limits<float>::max()};
  Rng rng{seed};
  auto flat = t.flat();
  for (std::size_t i = 0; i < flat.size(); ++i)
    flat[i] = i < std::size(specials)
                  ? specials[i]
                  : static_cast<float>(rng.normal(0.0, 2.0));
  return t;
}

std::vector<float> tensor_bits(const Tensor& t) {
  return {t.flat().begin(), t.flat().end()};
}

Tensor random_tensor(ml::Shape shape, Rng& rng) {
  Tensor t{std::move(shape)};
  for (auto& v : t.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

TEST(SimdLayerTest, ReluForwardBackwardBitIdenticalOnSpecialValues) {
  for (float cap : {0.0f, 6.0f}) {
    SCOPED_TRACE(::testing::Message() << "cap=" << cap);
    const Tensor x = special_value_tensor({2, 3, 5, 7}, 11);
    const Tensor g = special_value_tensor({2, 3, 5, 7}, 12);
    auto run = [&](util::SimdBackend backend) {
      SimdBackendGuard guard{backend};
      ml::ReLU relu{cap};
      const Tensor y = relu.forward_train(x);
      const Tensor gx = relu.backward(g, true);
      auto out = tensor_bits(y);
      const auto gbits = tensor_bits(gx);
      out.insert(out.end(), gbits.begin(), gbits.end());
      return out;
    };
    expect_bits_equal(run(util::SimdBackend::kVector),
                      run(util::SimdBackend::kScalar), "ReLU");
  }
}

TEST(SimdLayerTest, BatchNormForwardBackwardBitIdentical) {
  // Finite-but-nasty inputs (denormals, huge magnitudes); train mode also
  // exercises the running-stat update and the backward normalization math.
  Tensor x = special_value_tensor({3, 4, 6, 5}, 21);
  x.flat()[0] = 1.0f;  // drop the NaN: batch stats would swallow everything
  const Tensor g = special_value_tensor({3, 4, 6, 5}, 22);
  auto run = [&](util::SimdBackend backend) {
    SimdBackendGuard guard{backend};
    ml::BatchNorm bn{4};
    const Tensor y_train = bn.forward_train(x);
    const Tensor gx = bn.backward(g, true);
    const Tensor y_eval = bn.infer(x);
    auto out = tensor_bits(y_train);
    for (const Tensor& t : {gx, y_eval}) {
      const auto bits = tensor_bits(t);
      out.insert(out.end(), bits.begin(), bits.end());
    }
    return out;
  };
  expect_bits_equal(run(util::SimdBackend::kVector),
                    run(util::SimdBackend::kScalar), "BatchNorm");
}

// A BatchNorm with a fused Activation is BatchNorm followed by the
// standalone ReLU(cap), bit for bit: training forward, dX, dgamma/dbeta,
// running stats and eval forward, under each backend.  Every channel holds
// integers symmetric about 0, so its batch mean is exactly 0 and x == 0
// normalizes to exactly beta: beta 0 and beta 6 put outputs exactly at the
// ReLU's 0 and ReLU6's cap, where both masks must drop the gradient.
TEST(SimdLayerTest, FusedBatchNormMatchesBatchNormThenRelu) {
  Tensor x({2, 4, 3, 5});
  for (std::size_t i = 0; i < x.numel(); ++i)
    x.flat()[i] = static_cast<float>(static_cast<int>(i % 5) - 2);
  Rng grad_rng{41};
  const Tensor g = random_tensor({2, 4, 3, 5}, grad_rng);
  const float gamma[] = {1.0f, 3.0f, -1.5f, 2.0f};
  const float beta[] = {0.0f, 6.0f, 0.5f, -1.0f};
  for (const float cap : {0.0f, 6.0f}) {
    SCOPED_TRACE(::testing::Message() << "cap=" << cap);
    // Train forward, backward, eval forward; then the bits of y, dX, every
    // parameter gradient, the running stats and the eval output.
    auto run = [&](ml::Layer& bn, ml::Layer* relu) {
      const auto params = bn.params();
      for (std::size_t ch = 0; ch < 4; ++ch) {
        params[0]->value[ch] = gamma[ch];
        params[1]->value[ch] = beta[ch];
      }
      Tensor y = bn.forward_train(x);
      if (relu) y = relu->forward_train(y);
      Tensor gy = relu ? relu->backward(g, true) : g;
      const Tensor gx = bn.backward(gy, true);
      Tensor y_eval = bn.infer(x);
      if (relu) y_eval = relu->infer(y_eval);
      auto out = tensor_bits(y);
      const std::vector<const Tensor*> parts{&gx, &params[0]->grad,
                                             &params[1]->grad, bn.state()[0],
                                             bn.state()[1], &y_eval};
      for (const Tensor* t : parts) {
        const auto bits = tensor_bits(*t);
        out.insert(out.end(), bits.begin(), bits.end());
      }
      return out;
    };
    const ml::Activation act =
        cap > 0.0f ? ml::Activation::kRelu6 : ml::Activation::kRelu;
    std::vector<float> fused_by_backend[2];
    int bi = 0;
    for (const auto backend :
         {util::SimdBackend::kVector, util::SimdBackend::kScalar}) {
      SimdBackendGuard guard{backend};
      ml::BatchNorm fused{4, act};
      ml::BatchNorm plain{4};
      ml::ReLU relu{cap};
      fused_by_backend[bi] = run(fused, nullptr);
      expect_bits_equal(fused_by_backend[bi], run(plain, &relu),
                        "fused BatchNorm vs BatchNorm + ReLU");
      ++bi;
    }
    expect_bits_equal(fused_by_backend[0], fused_by_backend[1],
                      "fused BatchNorm vector vs scalar");
  }
}

TEST(SimdLayerTest, ResidualBlockBackwardKeepsNaNGradientSemantics) {
  // The post-sum ReLU backward zeroes gradients where sum <= 0 and must KEEP
  // them where the sum is NaN (scalar `if (sum <= 0)` is false on NaN) — a
  // cmp_gt-mask formulation would silently zero those lanes; that bug shows
  // up here as a 0.0 where the scalar path kept a finite gradient.  The conv
  // reductions inside the block mix NaNs of different payloads, so the
  // comparison is modulo NaN payload (see expect_bits_equal_modulo_nan).
  const Tensor x = special_value_tensor({2, 4, 6, 6}, 31);
  const Tensor g = special_value_tensor({2, 4, 6, 6}, 32);
  auto run = [&](util::SimdBackend backend) {
    SimdBackendGuard guard{backend};
    Rng init{33};
    ml::ResidualBlock block{4, 4, 1, init};
    const Tensor y = block.forward_train(x);
    const Tensor gx = block.backward(g, true);
    auto out = tensor_bits(y);
    const auto gbits = tensor_bits(gx);
    out.insert(out.end(), gbits.begin(), gbits.end());
    return out;
  };
  expect_bits_equal_modulo_nan(run(util::SimdBackend::kVector),
                               run(util::SimdBackend::kScalar),
                               "ResidualBlock");
}

// ---------------------------------------------------------------------------
// Convolution kernels.

// The direct depthwise kernel and Conv2D's im2col / pointwise paths, forward
// and backward, on output widths that leave every vector tail (1-7 columns
// at 4 and 8 lanes, and an all-tail row), stride 2 over odd padded widths
// and 5x5 kernels with pad 2: y, dX and every parameter gradient must match
// between the backends bit for bit.
TEST(SimdLayerTest, ConvKernelsBitIdenticalAcrossBackends) {
  struct ConvShape {
    std::size_t k, stride, pad, h, w;
  };
  const ConvShape shapes[] = {
      {3, 1, 1, 4, 3},  {3, 1, 1, 4, 9},  {3, 1, 1, 4, 10}, {3, 1, 1, 3, 11},
      {3, 1, 1, 3, 12}, {3, 1, 1, 3, 13}, {3, 1, 1, 3, 14}, {3, 1, 1, 3, 15},
      {3, 2, 1, 6, 9},  {3, 2, 1, 5, 13}, {5, 1, 2, 6, 13}, {5, 2, 2, 6, 11},
  };
  constexpr std::size_t kIn = 3, kOut = 4;
  enum class Kind { kDepthwise, kConv, kPointwise };
  std::uint64_t seed = 700;
  for (const ConvShape& c : shapes) {
    for (const Kind kind : {Kind::kDepthwise, Kind::kConv, Kind::kPointwise}) {
      SCOPED_TRACE(::testing::Message()
                   << "kind=" << static_cast<int>(kind) << " k=" << c.k
                   << " stride=" << c.stride << " h=" << c.h << " w=" << c.w);
      auto run = [&](util::SimdBackend backend) {
        SimdBackendGuard guard{backend};
        Rng rng{seed};
        std::unique_ptr<ml::Layer> layer;
        switch (kind) {
          case Kind::kDepthwise:
            layer = std::make_unique<ml::DepthwiseConv2D>(kIn, c.k, c.stride,
                                                          c.pad, rng);
            break;
          case Kind::kConv:
            layer = std::make_unique<ml::Conv2D>(kIn, kOut, c.k, c.stride, c.pad,
                                                 rng);
            break;
          case Kind::kPointwise:
            layer = std::make_unique<ml::Conv2D>(kIn, kOut, 1, 1, 0, rng);
            break;
        }
        const Tensor x = random_tensor({2, kIn, c.h, c.w}, rng);
        const Tensor y = layer->forward_train(x);
        const Tensor g = random_tensor(y.shape(), rng);
        const Tensor gx = layer->backward(g, true);
        auto out = tensor_bits(y);
        const auto params = layer->params();
        const std::vector<const Tensor*> parts{&gx, &params[0]->grad,
                                               &params[1]->grad};
        for (const Tensor* t : parts) {
          const auto bits = tensor_bits(*t);
          out.insert(out.end(), bits.begin(), bits.end());
        }
        return out;
      };
      expect_bits_equal(run(util::SimdBackend::kVector),
                        run(util::SimdBackend::kScalar), "conv kernels");
      ++seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Windowing.

TEST(SimdWindowTest, CachedWindowReusesCoefficients) {
  auto& hits = obs::Registry::instance().counter("dsp.window_hits");
  const auto first = dsp::cached_hann_window(333);
  const auto hits_before = hits.value();
  const auto second = dsp::cached_hann_window(333);
  EXPECT_EQ(first.get(), second.get()) << "second lookup must hit the cache";
  EXPECT_EQ(hits.value(), hits_before + 1);
  // A different length is a distinct plan.
  EXPECT_NE(dsp::cached_hann_window(334).get(), first.get());
}

// ---------------------------------------------------------------------------
// End-to-end training determinism across backend x thread count.

std::vector<float> train_and_fingerprint(ml::ModelKind kind,
                                         util::SimdBackend backend,
                                         std::size_t threads) {
  SimdBackendGuard simd{backend};
  ThreadCountGuard pool{threads};
  const ml::ModelInputShape shape{.channels = 2, .height = 8, .width = 12};
  Rng model_rng{910};
  auto model = ml::make_model(kind, shape, 3, model_rng);

  Rng data_rng{911};
  ml::RegressionDataset data;
  data.x = random_tensor({24, shape.channels, shape.height, shape.width}, data_rng);
  data.y = random_tensor({24, 3}, data_rng);
  Rng split_rng{912};
  auto [train, val] = ml::split_dataset(data, 0.25, split_rng);

  ml::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = 8;
  cfg.eval_batch_size = 8;
  ml::train_regressor(*model, train, val, cfg);

  std::vector<float> fingerprint;
  for (ml::Param* p : model->params())
    for (float v : p->value.flat()) fingerprint.push_back(v);
  Rng probe_rng{913};
  const Tensor probe =
      random_tensor({5, shape.channels, shape.height, shape.width}, probe_rng);
  const Tensor pred = model->infer(probe);
  for (float v : pred.flat()) fingerprint.push_back(v);
  return fingerprint;
}

class SimdDeterminismTest : public ::testing::TestWithParam<ml::ModelKind> {};

TEST_P(SimdDeterminismTest, TrainingIsBitIdenticalAcrossBackendsAndThreads) {
  const auto reference =
      train_and_fingerprint(GetParam(), util::SimdBackend::kVector, 1);
  ASSERT_FALSE(reference.empty());
  const struct {
    util::SimdBackend backend;
    std::size_t threads;
    const char* what;
  } runs[] = {
      {util::SimdBackend::kVector, 4, "vector/4 threads"},
      {util::SimdBackend::kScalar, 1, "scalar/1 thread"},
      {util::SimdBackend::kScalar, 4, "scalar/4 threads"},
  };
  for (const auto& r : runs) {
    const auto fp = train_and_fingerprint(GetParam(), r.backend, r.threads);
    ASSERT_EQ(reference.size(), fp.size()) << r.what;
    EXPECT_EQ(std::memcmp(reference.data(), fp.data(),
                          reference.size() * sizeof(float)),
              0)
        << "training " << ml::to_string(GetParam()) << " diverged on " << r.what;
  }
}

INSTANTIATE_TEST_SUITE_P(Models, SimdDeterminismTest,
                         ::testing::Values(ml::ModelKind::kMlp,
                                           ml::ModelKind::kMobileNetLite),
                         [](const auto& info) {
                           return ml::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Workspace pool: steady-state zero allocation on the serving hot path.

TEST(WorkspaceTest, ServingSteadyStateMakesNoHeapAllocations) {
  // Single-threaded so the thread_local free lists see every release (the
  // multi-thread residual — std::function SBO spill — is documented as out
  // of scope in DESIGN.md).
  ThreadCountGuard pool{1};
  core::SensoryMapperConfig cfg;
  cfg.model = ml::ModelKind::kMlp;
  cfg.dataset.stride = 0.5;
  cfg.train.epochs = 1;
  core::SensoryMapper mapper{cfg};
  const core::Flight flight = test::hover_flight(8.0, 7);
  const std::vector<core::Flight> flights{flight};
  mapper.fit(test::lab(), flights);

  const auto recording =
      test::lab().synthesizer(flight).synthesize(flight.log, 0.0, flight.log.duration());
  const auto& ds = mapper.config().dataset;
  const core::WindowSpan span{ds.settle_time,
                              ds.settle_time + ds.signature.window_seconds};
  const auto audio =
      core::recording_window(recording, span.t0, ds.signature.window_seconds);
  ASSERT_GT(audio.num_samples(), 0u);

  auto serve_once = [&] {
    const Tensor sig = mapper.prepare_signature(audio);
    const auto preds = mapper.predict_prepared({&sig, 1}, {&span, 1});
    ASSERT_EQ(preds.size(), 1u);
  };

  // Warm-up: first passes populate the per-thread free lists and any
  // lazily-built caches (window coefficients).
  for (int i = 0; i < 3; ++i) serve_once();

  auto& heap_allocs =
      obs::Registry::instance().counter("ml.workspace.heap_allocs");
  const auto before = heap_allocs.value();
  for (int i = 0; i < 10; ++i) serve_once();
  EXPECT_EQ(heap_allocs.value(), before)
      << "steady-state serving took pool blocks from the heap";
}

}  // namespace
}  // namespace sb
