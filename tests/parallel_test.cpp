// Tier-1 coverage for the deterministic thread pool and the convolution
// kernels:
//   * thread-pool semantics (disjoint coverage, deterministic reductions,
//     nested regions run inline, set_threads override, the worker cap and
//     the SB_THREADS parser),
//   * Conv2D (im2col + GEMM) and DepthwiseConv2D (direct phase kernel) vs a
//     direct loop-nest oracle on random shapes, forward AND backward,
//   * the model concurrency contract: concurrent eval forwards on one model
//     match serial ones bitwise, also beside a training replica,
//   * the determinism regression: training the same model at 1 to 4 threads
//     must produce bit-identical weights and predictions.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ml/conv.hpp"
#include "ml/lstm.hpp"
#include "ml/models.hpp"
#include "ml/tensor.hpp"
#include "ml/trainer.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sb {
namespace {

using ml::Tensor;

// Restores the default thread count even if an assertion fails mid-test.
struct ThreadCountGuard {
  explicit ThreadCountGuard(std::size_t n) { util::ThreadPool::set_threads(n); }
  ~ThreadCountGuard() { util::ThreadPool::set_threads(0); }
};

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadCountGuard guard{4};
  constexpr std::size_t kN = 4097;  // not a multiple of any grain
  std::vector<std::atomic<int>> hits(kN);
  util::parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelForRangesCoverDisjointly) {
  ThreadCountGuard guard{4};
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  util::parallel_for_ranges(
      kN,
      [&](std::size_t begin, std::size_t end) {
        ASSERT_LT(begin, end);
        ASSERT_LE(end, kN);
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      },
      64);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelSumIsBitIdenticalAcrossThreadCounts) {
  // Values of very different magnitude make the sum sensitive to any change
  // in association order, so bit-equality is a strong check.
  constexpr std::size_t kN = 10007;
  constexpr std::size_t kGrain = 128;
  auto body = [](std::size_t begin, std::size_t end) {
    double s = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const double x = static_cast<double>(i);
      s += std::sin(x * 1.7) * std::exp2(static_cast<double>(i % 40) - 20.0);
    }
    return s;
  };
  std::vector<double> results;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{7}}) {
    ThreadCountGuard guard{threads};
    results.push_back(util::parallel_sum(kN, kGrain, body));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(std::memcmp(&results[0], &results[i], sizeof(double)), 0)
        << "thread-count run " << i << " diverged: " << results[0] << " vs "
        << results[i];
  }
}

TEST(ThreadPoolTest, NestedParallelRegionsRunInlineWithoutDeadlock) {
  ThreadCountGuard guard{4};
  EXPECT_FALSE(util::ThreadPool::in_parallel_region());
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 100;
  std::vector<std::atomic<int>> counts(kOuter);
  util::parallel_for(
      kOuter,
      [&](std::size_t i) {
        EXPECT_TRUE(util::ThreadPool::in_parallel_region());
        // The nested loop must run inline on this worker — completing at all
        // (no deadlock) and summing correctly proves it.
        util::parallel_for(
            kInner, [&](std::size_t) { counts[i].fetch_add(1); }, 10);
      },
      1);
  EXPECT_FALSE(util::ThreadPool::in_parallel_region());
  for (std::size_t i = 0; i < kOuter; ++i) EXPECT_EQ(counts[i].load(), kInner);
}

TEST(ThreadPoolTest, SetThreadsOverridesAndRestores) {
  const std::size_t fallback = util::ThreadPool::threads();
  EXPECT_GE(fallback, 1u);
  {
    ThreadCountGuard guard{3};
    EXPECT_EQ(util::ThreadPool::threads(), 3u);
  }
  EXPECT_EQ(util::ThreadPool::threads(), fallback);
}

TEST(ThreadPoolTest, WorkerThreadsAreCappedAtHardwareConcurrency) {
  // A thread count above the core count still chunks the loop at that
  // count, but the chunks run on at most hardware_concurrency OS threads
  // (the caller plus the workers).  Sleeping chunks keep every lane busy,
  // so an uncapped pool would show up as extra distinct thread ids.
  const std::size_t hc =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  ThreadCountGuard guard{hc + 4};
  const std::size_t chunks = 4 * (hc + 4);
  std::vector<std::thread::id> ran_on(chunks);
  util::parallel_for(
      chunks,
      [&](std::size_t i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        ran_on[i] = std::this_thread::get_id();
      },
      1);
  const std::set<std::thread::id> distinct(ran_on.begin(), ran_on.end());
  EXPECT_LE(distinct.size(), hc);
}

TEST(ThreadPoolTest, ThreadCountParsesWholePositiveIntegersOnly) {
  EXPECT_EQ(util::parse_thread_count("4"), std::optional<std::size_t>{4});
  // Large counts parse; the worker cap bounds what they start.
  EXPECT_EQ(util::parse_thread_count("100000"),
            std::optional<std::size_t>{100000});
  for (const char* bad :
       {"4x", "abc", "", "0", "-2", "2.5", " 4", "+4", "99999999999999999999999"})
    EXPECT_EQ(util::parse_thread_count(bad), std::nullopt) << "'" << bad << "'";
}

// ---------------------------------------------------------------------------
// The conv layers vs the direct loop-nest oracle.

Tensor random_tensor(ml::Shape shape, Rng& rng) {
  Tensor t{std::move(shape)};
  for (auto& v : t.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

void expect_close(const Tensor& a, const Tensor& b, double tol,
                  const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    const double scale = std::max(1.0, std::abs(static_cast<double>(a[i])));
    ASSERT_NEAR(a[i], b[i], tol * scale) << what << " at flat index " << i;
  }
}

struct ConvCase {
  std::size_t n, in_c, out_c, k, stride, pad, h, w;
};

struct OracleResult {
  Tensor y, dx, dw, db;
};

// The direct convolution the conv layers must reproduce: x [N, inC, H, W],
// w [outC, inC, k, k] — or [C, k, k] when `depthwise`, where output channel
// c reads input channel c only — and b [outC].  Forward seeds each output
// with its bias, then adds w * x over (ic, ky, kx) in that order, skipping
// padding taps.  Backward skips zero output gradients and accumulates dW,
// db and dX from zero, element by element, in (item, oc, oy, ox, ic, ky,
// kx) order.
OracleResult conv_oracle(const Tensor& x, const Tensor& w, const Tensor& b,
                         std::size_t stride, std::size_t pad, bool depthwise,
                         const Tensor& grad_out) {
  const std::size_t n = x.dim(0), in_c = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const std::size_t out_c = w.dim(0), k = w.dim(w.ndim() - 1);
  const std::size_t oh = (h + 2 * pad - k) / stride + 1;
  const std::size_t ow = (wd + 2 * pad - k) / stride + 1;
  if (grad_out.shape() != ml::Shape{n, out_c, oh, ow})
    throw std::invalid_argument{"conv_oracle: grad_out is not the output's shape"};
  OracleResult r{Tensor{grad_out.shape()}, Tensor{x.shape()}, Tensor{w.shape()},
                 Tensor{b.shape()}};
  // Calls f(x index, w index) for each in-bounds tap of output (i, oc, oy,
  // ox), in (ic, ky, kx) order.
  const auto taps = [&](std::size_t i, std::size_t oc, std::size_t oy,
                        std::size_t ox, auto&& f) {
    for (std::size_t ic = depthwise ? oc : 0; ic < (depthwise ? oc + 1 : in_c); ++ic) {
      const std::size_t wc = depthwise ? oc : oc * in_c + ic;
      for (std::size_t ky = 0; ky < k; ++ky) {
        const std::size_t iy = oy * stride + ky;
        if (iy < pad || iy >= pad + h) continue;
        for (std::size_t kx = 0; kx < k; ++kx) {
          const std::size_t ix = ox * stride + kx;
          if (ix < pad || ix >= pad + wd) continue;
          f(((i * in_c + ic) * h + iy - pad) * wd + ix - pad, (wc * k + ky) * k + kx);
        }
      }
    }
  };
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t oc = 0; oc < out_c; ++oc)
      for (std::size_t oy = 0; oy < oh; ++oy)
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const std::size_t o = ((i * out_c + oc) * oh + oy) * ow + ox;
          float s = b[oc];
          taps(i, oc, oy, ox,
               [&](std::size_t xi, std::size_t wi) { s += w[wi] * x[xi]; });
          r.y[o] = s;
          const float g = grad_out[o];
          if (g == 0.0f) continue;
          r.db[oc] += g;
          taps(i, oc, oy, ox, [&](std::size_t xi, std::size_t wi) {
            r.dw[wi] += g * x[xi];
            r.dx[xi] += g * w[wi];
          });
        }
  return r;
}

// Runs the layer's training forward and backward once, with a random output
// gradient, and compares its output, input gradient and parameter gradients
// with the oracle's over the layer's own params() as they are now.
void compare_with_oracle(ml::Layer& layer, const ConvCase& c, bool depthwise,
                         const Tensor& x, Rng& grad_rng, const std::string& what) {
  const Tensor y = layer.forward_train(x);
  Tensor grad_out{y.shape()};
  for (auto& v : grad_out.flat()) v = static_cast<float>(grad_rng.normal(0.0, 1.0));
  const auto params = layer.params();
  ASSERT_EQ(params.size(), 2u) << what;
  for (ml::Param* p : params) p->zero_grad();
  const Tensor gx = layer.backward(grad_out, true);
  const OracleResult want = conv_oracle(x, params[0]->value, params[1]->value,
                                        c.stride, c.pad, depthwise, grad_out);
  expect_close(y, want.y, 1e-5, what + " forward");
  expect_close(gx, want.dx, 1e-4, what + " grad_in");
  expect_close(params[0]->grad, want.dw, 1e-4, what + " weight grad");
  expect_close(params[1]->grad, want.db, 1e-4, what + " bias grad");
}

TEST(ConvOracleTest, Conv2DGemmMatchesReference) {
  const ConvCase cases[] = {
      {2, 3, 8, 3, 1, 1, 9, 11},   // same-padded 3x3
      {3, 4, 6, 5, 2, 2, 12, 10},  // strided 5x5
      {2, 1, 4, 3, 2, 0, 8, 8},    // no padding, stride 2
      {1, 5, 7, 1, 1, 0, 6, 6},    // pointwise 1x1
      {2, 6, 12, 1, 2, 0, 9, 7},   // 1x1 stride 2: ResNetLite's projection
  };
  std::uint64_t seed = 100;
  for (const auto& c : cases) {
    SCOPED_TRACE(::testing::Message() << "k=" << c.k << " stride=" << c.stride
                                      << " pad=" << c.pad);
    Rng init{seed};
    ml::Conv2D conv{c.in_c, c.out_c, c.k, c.stride, c.pad, init};
    Rng data_rng{seed + 1};
    const Tensor x = random_tensor({c.n, c.in_c, c.h, c.w}, data_rng);
    compare_with_oracle(conv, c, false, x, data_rng, "Conv2D");
    seed += 10;
  }
}

// The direct depthwise kernel runs lanes across output columns: the output
// widths below leave every tail (1-7 columns at 4 and 8 lanes, and an
// all-tail row), stride 2 reads the phases of odd padded widths, and 5x5
// kernels with pad 2 run at stride 1 and 2.
TEST(ConvOracleTest, DepthwiseConv2DGemmMatchesReference) {
  const ConvCase cases[] = {
      {2, 6, 6, 3, 1, 1, 10, 9},  // same-padded 3x3 (ow 9)
      {3, 4, 4, 3, 2, 1, 11, 7},  // strided, padded width 9 (ow 4)
      {1, 8, 8, 5, 1, 2, 9, 9},   // 5x5
      {1, 2, 2, 3, 1, 1, 4, 3},   // ow 3: all tail
      {1, 2, 2, 3, 1, 1, 4, 10},  // ow 10: tails 2 / 2
      {1, 2, 2, 3, 1, 1, 4, 11},  // ow 11: tails 3 / 3
      {1, 2, 2, 3, 1, 1, 3, 12},  // ow 12: tails 0 / 4
      {1, 2, 2, 3, 1, 1, 3, 13},  // ow 13: tails 1 / 5
      {1, 2, 2, 3, 1, 1, 3, 14},  // ow 14: tails 2 / 6
      {1, 2, 2, 3, 1, 1, 3, 15},  // ow 15: tails 3 / 7
      {2, 3, 3, 3, 2, 1, 6, 9},   // stride 2, padded width 11 (ow 5)
      {1, 3, 3, 3, 2, 1, 5, 13},  // stride 2, padded width 15 (ow 7)
      {2, 3, 3, 5, 1, 2, 6, 13},  // 5x5, pad 2 (ow 13)
      {1, 3, 3, 5, 2, 2, 6, 11},  // 5x5, pad 2, stride 2 (ow 6)
  };
  std::uint64_t seed = 500;
  for (const auto& c : cases) {
    SCOPED_TRACE(::testing::Message() << "c=" << c.in_c << " k=" << c.k
                                      << " stride=" << c.stride << " w=" << c.w);
    Rng init{seed};
    ml::DepthwiseConv2D conv{c.in_c, c.k, c.stride, c.pad, init};
    Rng data_rng{seed + 1};
    const Tensor x = random_tensor({c.n, c.in_c, c.h, c.w}, data_rng);
    compare_with_oracle(conv, c, true, x, data_rng, "DepthwiseConv2D");
    seed += 10;
  }
}

// The input gradient reads the weights as they are at backward time: after
// one forward and backward, the conv's parameters are written in place
// (v = -2v + 0.25, no optimizer involved) and the comparison runs again.  A
// copy of the weights kept from the first backward would hand the second
// one a stale input gradient.
TEST(ConvOracleTest, Conv2DInputGradientFollowsADirectWeightWrite) {
  const ConvCase cases[] = {
      {2, 3, 8, 3, 1, 1, 9, 11},  // same-padded 3x3
      {1, 5, 7, 1, 1, 0, 6, 6},   // pointwise 1x1
  };
  std::uint64_t seed = 300;
  for (const auto& c : cases) {
    SCOPED_TRACE(::testing::Message() << "k=" << c.k << " pad=" << c.pad);
    Rng init{seed};
    ml::Conv2D conv{c.in_c, c.out_c, c.k, c.stride, c.pad, init};
    Rng data_rng{seed + 1};
    const Tensor x = random_tensor({c.n, c.in_c, c.h, c.w}, data_rng);
    compare_with_oracle(conv, c, false, x, data_rng, "Conv2D");
    for (ml::Param* p : conv.params())
      for (float& v : p->value.flat()) v = -2.0f * v + 0.25f;
    compare_with_oracle(conv, c, false, x, data_rng, "Conv2D after a weight write");
    seed += 10;
  }
}

TEST(ConvOracleTest, GemmBackendStaysParallelSafe) {
  // Same comparison with a multi-thread pool active: chunking must not change
  // the layer's results (the oracle is serial either way).
  ThreadCountGuard guard{4};
  const ConvCase c{4, 4, 8, 3, 1, 1, 12, 12};
  Rng init{42};
  ml::Conv2D conv{c.in_c, c.out_c, c.k, c.stride, c.pad, init};
  Rng data_rng{43};
  const Tensor x = random_tensor({c.n, c.in_c, c.h, c.w}, data_rng);
  compare_with_oracle(conv, c, false, x, data_rng, "Conv2D(4 threads)");
}

// ---------------------------------------------------------------------------
// Model concurrency contract (ml/layer.hpp): infer() is const, so concurrent
// eval forwards on ONE model — fleet shards serving one mapper — must each
// match the same forward run alone, bit for bit, also while a replicate()
// copy of the model trains beside them.

struct ModelCase {
  std::string name;
  std::unique_ptr<ml::Layer> model;
  ml::Shape row;  // one input row's shape after the batch dim
};

// Every model kind, and an Lstm.
std::vector<ModelCase> model_cases() {
  const ml::ModelInputShape shape;
  std::vector<ModelCase> cases;
  Rng model_rng{910};
  for (const ml::ModelKind kind :
       {ml::ModelKind::kMobileNetLite, ml::ModelKind::kResNetLite,
        ml::ModelKind::kNeuralOde, ml::ModelKind::kMlp})
    cases.push_back({ml::to_string(kind), ml::make_model(kind, shape, 6, model_rng),
                     {shape.channels, shape.height, shape.width}});
  cases.push_back({"Lstm", std::make_unique<ml::Lstm>(3, 16, 20, model_rng),
                   {20, 3}});
  return cases;
}

// Inputs of 1-3 rows, so concurrent forwards see different batch sizes.
std::vector<Tensor> case_inputs(const ml::Shape& row, std::size_t count) {
  Rng data_rng{911};
  std::vector<Tensor> inputs;
  for (std::size_t i = 0; i < count; ++i) {
    ml::Shape in_shape{1 + i % 3};
    in_shape.insert(in_shape.end(), row.begin(), row.end());
    inputs.push_back(random_tensor(in_shape, data_rng));
  }
  return inputs;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

TEST(ModelReentrancy, ConcurrentEvalForwardsMatchSerial) {
  ThreadCountGuard guard{4};
  constexpr std::size_t kInputs = 8;
  constexpr int kRounds = 20;
  for (const ModelCase& c : model_cases()) {
    SCOPED_TRACE(c.name);
    const std::vector<Tensor> inputs = case_inputs(c.row, kInputs);
    std::vector<Tensor> serial;
    for (const Tensor& x : inputs) serial.push_back(c.model->infer(x));
    for (int round = 0; round < kRounds; ++round) {
      std::vector<Tensor> outs(kInputs);
      util::parallel_for(
          kInputs,
          [&](std::size_t i) { outs[i] = c.model->infer(inputs[i]); },
          1);
      for (std::size_t i = 0; i < kInputs; ++i)
        ASSERT_TRUE(same_bits(outs[i], serial[i]))
            << "input " << i << " diverged in round " << round;
    }
  }
}

// One training step on a replica, with the output as its own loss gradient
// (loss = |y|^2 / 2): dX followed by every parameter gradient.
std::vector<Tensor> train_step(ml::Layer& replica, const Tensor& x) {
  for (ml::Param* p : replica.params()) p->zero_grad();
  const Tensor y = replica.forward_train(x);
  std::vector<Tensor> grads{replica.backward(y, true)};
  for (ml::Param* p : replica.params()) grads.push_back(p->grad);
  return grads;
}

// The white-box attacker's setting: one pool task trains a replica while the
// others serve the primary.  Every infer output keeps its serial bits, and
// the replica's gradients are a serial replica's.
TEST(ModelReentrancy, TrainingReplicaBesideConcurrentInfer) {
  ThreadCountGuard guard{4};
  constexpr std::size_t kInputs = 8;
  constexpr int kRounds = 4;
  for (const ModelCase& c : model_cases()) {
    SCOPED_TRACE(c.name);
    std::vector<Tensor> inputs = case_inputs(c.row, kInputs + 1);
    const Tensor train_x = std::move(inputs.back());
    inputs.pop_back();
    std::vector<Tensor> serial;
    for (const Tensor& x : inputs) serial.push_back(c.model->infer(x));
    const std::vector<Tensor> want = train_step(*c.model->replicate(), train_x);
    const auto replica = c.model->replicate();
    for (int round = 0; round < kRounds; ++round) {
      std::vector<Tensor> outs(kInputs);
      std::vector<Tensor> grads;
      util::parallel_for(
          kInputs + 1,
          [&](std::size_t i) {
            if (i == kInputs)
              grads = train_step(*replica, train_x);
            else
              outs[i] = c.model->infer(inputs[i]);
          },
          1);
      for (std::size_t i = 0; i < kInputs; ++i)
        ASSERT_TRUE(same_bits(outs[i], serial[i]))
            << "input " << i << " diverged in round " << round;
      ASSERT_EQ(grads.size(), want.size());
      for (std::size_t j = 0; j < want.size(); ++j)
        ASSERT_TRUE(same_bits(grads[j], want[j]))
            << "gradient " << j << " diverged in round " << round;
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism regression: thread count must not change training results.

// Trains a small model end to end and returns every learned weight followed
// by the model's predictions on a fixed probe batch.  The 42 training rows
// split into shards of ml::kShardGrain rows, so batch_size picks the shard
// count per batch; the replica count is min(threads, shards in a full batch).
std::vector<float> train_and_fingerprint(ml::ModelKind kind, std::size_t threads,
                                         std::size_t batch_size) {
  ThreadCountGuard guard{threads};
  const ml::ModelInputShape shape{.channels = 2, .height = 8, .width = 12};
  Rng model_rng{900};
  auto model = ml::make_model(kind, shape, 3, model_rng);

  Rng data_rng{901};
  ml::RegressionDataset data;
  data.x = random_tensor({56, shape.channels, shape.height, shape.width}, data_rng);
  data.y = random_tensor({56, 3}, data_rng);
  Rng split_rng{902};
  auto [train, val] = ml::split_dataset(data, 0.25, split_rng);

  ml::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.batch_size = batch_size;
  cfg.eval_batch_size = 8;
  ml::train_regressor(*model, train, val, cfg);

  std::vector<float> fingerprint;
  for (ml::Param* p : model->params())
    for (float v : p->value.flat()) fingerprint.push_back(v);
  Rng probe_rng{903};
  const Tensor probe =
      random_tensor({5, shape.channels, shape.height, shape.width}, probe_rng);
  const Tensor pred = model->infer(probe);
  for (float v : pred.flat()) fingerprint.push_back(v);
  return fingerprint;
}

void expect_same_fingerprint(const std::vector<float>& a,
                             const std::vector<float>& b,
                             const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_FALSE(a.empty()) << what;
  // memcmp: float equality would pass -0.0 vs 0.0 and miss NaN divergence.
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what;
}

class DeterminismTest : public ::testing::TestWithParam<ml::ModelKind> {};

TEST_P(DeterminismTest, TrainingIsBitIdenticalAcrossThreadCounts) {
  // Batch 16 = two shards per batch: 2 threads run one replica per shard,
  // 4 threads leave workers with no replica (they still split the layers'
  // own parallel loops).
  const auto serial = train_and_fingerprint(GetParam(), 1, 16);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    const auto parallel = train_and_fingerprint(GetParam(), threads, 16);
    expect_same_fingerprint(serial, parallel,
                            "training " + ml::to_string(GetParam()) +
                                " diverged between 1 and " +
                                std::to_string(threads) + " threads");
  }
}

TEST_P(DeterminismTest, TrainingIsBitIdenticalAcrossReplicaCounts) {
  // Batch 32 = four shards per full batch (the last batch has two), so 1-4
  // threads run 1-4 replicas: 2 and 3 replicas run several shards each, 4
  // leave replicas idle on the short batch — none may change the weights.
  const auto reference = train_and_fingerprint(GetParam(), 1, 32);
  for (const std::size_t replicas :
       {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    const auto run = train_and_fingerprint(GetParam(), replicas, 32);
    expect_same_fingerprint(reference, run,
                            "training " + ml::to_string(GetParam()) +
                                " diverged at replica count " +
                                std::to_string(replicas));
  }
}

INSTANTIATE_TEST_SUITE_P(Models, DeterminismTest,
                         ::testing::Values(ml::ModelKind::kMlp,
                                           ml::ModelKind::kMobileNetLite),
                         [](const auto& info) {
                           return ml::to_string(info.param);
                         });

}  // namespace
}  // namespace sb
