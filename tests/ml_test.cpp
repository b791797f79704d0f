#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "ml/conv.hpp"
#include "ml/layers.hpp"
#include "ml/lstm.hpp"
#include "ml/model.hpp"
#include "ml/models.hpp"
#include "ml/neural_ode.hpp"
#include "ml/optimizer.hpp"
#include "ml/tensor.hpp"
#include "ml/trainer.hpp"
#include "util/checksum.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace sb::ml {
namespace {

Tensor random_tensor(Shape shape, Rng& rng, double scale = 1.0) {
  Tensor t{std::move(shape)};
  for (auto& v : t.flat()) v = static_cast<float>(rng.normal(0.0, scale));
  return t;
}

// Scalar loss: weighted sum of outputs with fixed pseudo-random weights.
// Returns (loss, dLoss/dOutput).
std::pair<double, Tensor> weighted_loss(const Tensor& out) {
  Tensor grad(out.shape());
  double loss = 0.0;
  for (std::size_t i = 0; i < out.numel(); ++i) {
    const double w = 0.3 + 0.7 * std::sin(static_cast<double>(i) * 1.7);
    loss += w * out[i];
    grad[i] = static_cast<float>(w);
  }
  return {loss, grad};
}

// The mean squared error's gradient through the one loss (grad_scale =
// 2 / numel); the mean itself is sq_err / numel.
SquaredError mse(const Tensor& pred, const Tensor& target) {
  return squared_error(pred, target, 2.0f / static_cast<float>(pred.numel()));
}

// Central-difference gradient check on the layer's input and parameters.
// `max_violations` tolerates a few mismatches: a parameter perturbation can
// push a ReLU pre-activation across its kink, where the numeric quotient is
// legitimately ~half the analytic one-sided derivative.
void check_gradients(Layer& layer, Tensor input, double eps = 1e-2,
                     double tol = 6e-2, int max_violations = 0) {
  int violations = 0;
  // Analytic gradients.
  for (Param* p : layer.params()) p->zero_grad();
  const Tensor out = layer.forward_train(input);
  const auto [loss, grad_out] = weighted_loss(out);
  (void)loss;
  const Tensor grad_in = layer.backward(grad_out, true);

  auto numeric_at = [&](float* slot) {
    const float saved = *slot;
    *slot = static_cast<float>(saved + eps);
    const auto [lp, g1] = weighted_loss(layer.forward_train(input));
    *slot = static_cast<float>(saved - eps);
    const auto [lm, g2] = weighted_loss(layer.forward_train(input));
    *slot = saved;
    (void)g1;
    (void)g2;
    return (lp - lm) / (2.0 * eps);
  };

  // Check a sample of input gradients.
  const std::size_t in_stride = std::max<std::size_t>(1, input.numel() / 12);
  for (std::size_t i = 0; i < input.numel(); i += in_stride) {
    const double num = numeric_at(&input[i]);
    const double ana = grad_in[i];
    if (std::abs(ana - num) > tol * std::max(1.0, std::abs(num))) {
      ++violations;
      EXPECT_LE(violations, max_violations)
          << "input grad at " << i << ": ana " << ana << " vs num " << num;
    }
  }

  // Check a sample of parameter gradients.  Re-run forward/backward to
  // repopulate caches for the unperturbed parameters.
  for (Param* p : layer.params()) p->zero_grad();
  layer.forward_train(input);
  layer.backward(grad_out, true);
  for (Param* p : layer.params()) {
    const std::size_t stride = std::max<std::size_t>(1, p->value.numel() / 8);
    for (std::size_t i = 0; i < p->value.numel(); i += stride) {
      const double num = numeric_at(&p->value[i]);
      const double ana = p->grad[i];
      if (std::abs(ana - num) > tol * std::max(1.0, std::abs(num))) {
        ++violations;
        EXPECT_LE(violations, max_violations)
            << "param grad at " << i << ": ana " << ana << " vs num " << num;
      }
    }
  }
}

// The inference scheduler batches windows from many flights into one
// forward, so serving correctness rests on batch-N inference being BITWISE
// identical to N single-row forwards — every per-row accumulation must be
// independent of its batch neighbours.
TEST(Models, BatchedForwardIsBitwiseSingleRowForward) {
  const ModelInputShape shape;
  constexpr std::size_t kBatch = 5;
  for (const ModelKind kind : {ModelKind::kMobileNetLite, ModelKind::kResNetLite,
                               ModelKind::kNeuralOde, ModelKind::kMlp}) {
    Rng rng{77};
    const auto model = make_model(kind, shape, 6, rng);
    const Tensor batch = random_tensor(
        {kBatch, shape.channels, shape.height, shape.width}, rng);
    const Tensor out = model->infer(batch);
    ASSERT_EQ(out.shape()[0], kBatch) << to_string(kind);

    // Row-at-a-time.
    for (std::size_t i = 0; i < kBatch; ++i) {
      const Tensor row = model->infer(batch.slice_rows(i, i + 1));
      ASSERT_EQ(row.numel(), out.numel() / kBatch) << to_string(kind);
      for (std::size_t d = 0; d < row.numel(); ++d)
        ASSERT_EQ(row[d], out[i * row.numel() + d])
            << to_string(kind) << " row " << i << " dim " << d;
    }

    // Arbitrary re-chunking (the scheduler's batches cut anywhere).
    const Tensor front = model->infer(batch.slice_rows(0, 3));
    const Tensor back = model->infer(batch.slice_rows(3, kBatch));
    for (std::size_t j = 0; j < front.numel(); ++j)
      ASSERT_EQ(front[j], out[j]) << to_string(kind);
    for (std::size_t j = 0; j < back.numel(); ++j)
      ASSERT_EQ(back[j], out[front.numel() + j]) << to_string(kind);
  }
}

TEST(Tensor, ShapeAndFill) {
  Tensor t({2, 3}, 1.5f);
  EXPECT_EQ(t.numel(), 6u);
  EXPECT_EQ(t.dim(1), 3u);
  EXPECT_FLOAT_EQ(t[5], 1.5f);
  t.fill(0.0f);
  EXPECT_FLOAT_EQ(t[0], 0.0f);
}

TEST(Tensor, SliceRows) {
  Tensor t({4, 2});
  for (std::size_t i = 0; i < 8; ++i) t[i] = static_cast<float>(i);
  const Tensor s = t.slice_rows(1, 3);
  EXPECT_EQ(s.dim(0), 2u);
  EXPECT_FLOAT_EQ(s[0], 2.0f);
  EXPECT_FLOAT_EQ(s[3], 5.0f);
  EXPECT_THROW(t.slice_rows(3, 5), std::out_of_range);
}

TEST(Tensor, GatherRows) {
  Tensor t({3, 2});
  for (std::size_t i = 0; i < 6; ++i) t[i] = static_cast<float>(i);
  const std::vector<std::size_t> idx{2, 0};
  const Tensor g = t.gather_rows(idx);
  EXPECT_FLOAT_EQ(g[0], 4.0f);
  EXPECT_FLOAT_EQ(g[2], 0.0f);
}

TEST(Tensor, HeNormalScale) {
  Rng rng{1};
  const Tensor t = Tensor::he_normal({1000}, 50, rng);
  double s = 0;
  for (float v : t.flat()) s += v * v;
  EXPECT_NEAR(std::sqrt(s / 1000.0), std::sqrt(2.0 / 50.0), 0.02);
}

TEST(GradCheck, Dense) {
  Rng rng{10};
  Dense layer{5, 4, rng};
  check_gradients(layer, random_tensor({3, 5}, rng));
}

TEST(GradCheck, ReLU) {
  Rng rng{11};
  ReLU layer;
  check_gradients(layer, random_tensor({4, 6}, rng));
}

TEST(GradCheck, ReLU6) {
  Rng rng{12};
  ReLU layer{6.0f};
  check_gradients(layer, random_tensor({4, 6}, rng, 4.0));
}

TEST(GradCheck, Tanh) {
  Rng rng{13};
  Tanh layer;
  check_gradients(layer, random_tensor({4, 6}, rng));
}

TEST(GradCheck, Conv2D) {
  Rng rng{14};
  Conv2D layer{2, 3, 3, 1, 1, rng};
  check_gradients(layer, random_tensor({2, 2, 5, 4}, rng));
}

TEST(GradCheck, Conv2DStride2) {
  Rng rng{15};
  Conv2D layer{2, 2, 3, 2, 1, rng};
  check_gradients(layer, random_tensor({1, 2, 6, 6}, rng));
}

TEST(GradCheck, DepthwiseConv2D) {
  Rng rng{16};
  DepthwiseConv2D layer{3, 3, 1, 1, rng};
  check_gradients(layer, random_tensor({2, 3, 4, 4}, rng));
}

TEST(GradCheck, GlobalAvgPool) {
  Rng rng{17};
  GlobalAvgPool layer;
  check_gradients(layer, random_tensor({2, 3, 4, 4}, rng));
}

TEST(GradCheck, BatchNormTrainMode) {
  Rng rng{18};
  BatchNorm layer{3};
  check_gradients(layer, random_tensor({4, 3, 3, 3}, rng), 1e-2, 0.12);
}

TEST(GradCheck, ResidualBlockIdentity) {
  Rng rng{19};
  ResidualBlock layer{3, 3, 1, rng};
  // BN + double ReLU stack: tolerate a few kink crossings.
  check_gradients(layer, random_tensor({2, 3, 4, 4}, rng), 5e-3, 0.15, 3);
}

TEST(GradCheck, ResidualBlockProjection) {
  Rng rng{20};
  ResidualBlock layer{2, 4, 2, rng};
  check_gradients(layer, random_tensor({2, 2, 4, 4}, rng), 5e-3, 0.15, 3);
}

TEST(GradCheck, Lstm) {
  Rng rng{21};
  Lstm layer{3, 4, 5, rng};
  check_gradients(layer, random_tensor({2, 5, 3}, rng), 1e-2, 0.1);
}

TEST(GradCheck, NeuralOdeBlock) {
  Rng rng{22};
  NeuralOdeBlock layer{4, 6, 4, rng};
  check_gradients(layer, random_tensor({3, 4}, rng), 1e-2, 0.1);
}

TEST(GradCheck, SequentialComposition) {
  Rng rng{23};
  Sequential seq;
  seq.emplace<Dense>(6, 5, rng);
  seq.emplace<Tanh>();
  seq.emplace<Dense>(5, 2, rng);
  check_gradients(seq, random_tensor({3, 6}, rng));
}

TEST(Layers, BatchNormNormalizesTrainBatch) {
  Rng rng{26};
  BatchNorm bn{2};
  Tensor x = random_tensor({8, 2, 4, 4}, rng, 5.0);
  const Tensor y = bn.forward_train(x);
  // Per-channel mean ~0, var ~1.
  for (std::size_t c = 0; c < 2; ++c) {
    double s = 0.0, ss = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < 8; ++i)
      for (std::size_t k = 0; k < 16; ++k) {
        const double v = y[(i * 2 + c) * 16 + k];
        s += v;
        ss += v * v;
        ++n;
      }
    EXPECT_NEAR(s / static_cast<double>(n), 0.0, 1e-3);
    EXPECT_NEAR(ss / static_cast<double>(n), 1.0, 1e-2);
  }
}

TEST(Loss, MseValueAndGradient) {
  Tensor pred({1, 2});
  pred[0] = 1.0f;
  pred[1] = 3.0f;
  Tensor target({1, 2});
  target[0] = 0.0f;
  target[1] = 3.0f;
  const auto loss = mse(pred, target);
  EXPECT_NEAR(loss.sq_err / 2.0, 0.5, 1e-6);
  EXPECT_NEAR(loss.grad[0], 1.0, 1e-6);  // 2*(1-0)/2
  EXPECT_NEAR(loss.grad[1], 0.0, 1e-6);
}

TEST(Optimizer, AdamFitsLinearMap) {
  Rng rng{29};
  Dense layer{3, 2, rng};
  Adam opt{layer.params(), 0.05};
  Rng data_rng{30};
  double last = 1e9;
  for (int step = 0; step < 300; ++step) {
    Tensor x = random_tensor({16, 3}, data_rng);
    Tensor y({16, 2});
    for (std::size_t i = 0; i < 16; ++i) {
      y[i * 2 + 0] = x[i * 3 + 0] + 2.0f * x[i * 3 + 1];
      y[i * 2 + 1] = -x[i * 3 + 2];
    }
    opt.zero_grad();
    const auto loss = mse(layer.forward_train(x), y);
    layer.backward(loss.grad, true);
    opt.step();
    last = loss.sq_err / static_cast<double>(y.numel());
  }
  EXPECT_LT(last, 0.01);
}

TEST(Optimizer, WeightDecayShrinksUnusedWeights) {
  Rng rng{31};
  Dense layer{1, 1, rng};
  layer.params()[0]->value[0] = 5.0f;
  Adam opt{layer.params(), 0.01, 0.9, 0.999, 1e-8, 0.5};
  Tensor x({1, 1}, 0.0f);  // zero input: only decay acts on the weight
  Tensor y({1, 1}, 0.0f);
  for (int i = 0; i < 100; ++i) {
    opt.zero_grad();
    const auto loss = mse(layer.forward_train(x), y);
    layer.backward(loss.grad, true);
    opt.step();
  }
  EXPECT_LT(std::abs(layer.params()[0]->value[0]), 4.0f);
}

TEST(Trainer, SplitRespectsFraction) {
  RegressionDataset data;
  data.x = Tensor({100, 4});
  data.y = Tensor({100, 2});
  Rng rng{32};
  auto [train, val] = split_dataset(data, 0.2, rng);
  EXPECT_EQ(train.size(), 80u);
  EXPECT_EQ(val.size(), 20u);
}

TEST(Trainer, LearnsSimpleRegression) {
  Rng rng{33};
  Sequential model;
  model.emplace<Dense>(2, 16, rng);
  model.emplace<Tanh>();
  model.emplace<Dense>(16, 1, rng);

  Rng data_rng{34};
  RegressionDataset data;
  data.x = random_tensor({256, 2}, data_rng);
  data.y = Tensor({256, 1});
  for (std::size_t i = 0; i < 256; ++i)
    data.y[i] = data.x[i * 2] * data.x[i * 2 + 1];  // xor-ish product

  Rng split_rng{35};
  auto [train, val] = split_dataset(data, 0.25, split_rng);
  TrainConfig cfg;
  cfg.epochs = 60;
  cfg.lr = 0.01;
  cfg.weight_decay = 0.0;
  const auto result = train_regressor(model, train, val, cfg);
  EXPECT_LT(result.final_val_mse, 0.05);
  EXPECT_EQ(result.train_mse_per_epoch.size(), 60u);
}

TEST(Models, AllKindsForwardCorrectShape) {
  Rng rng{36};
  const ModelInputShape in{4, 14, 32};
  for (auto kind : {ModelKind::kMobileNetLite, ModelKind::kResNetLite,
                    ModelKind::kNeuralOde, ModelKind::kMlp}) {
    auto model = make_model(kind, in, 6, rng);
    Tensor x = random_tensor({2, 4, 14, 32}, rng, 0.5);
    const Tensor y = model->infer(x);
    EXPECT_EQ(y.dim(0), 2u) << to_string(kind);
    EXPECT_EQ(y.dim(1), 6u) << to_string(kind);
    for (float v : y.flat()) EXPECT_TRUE(std::isfinite(v)) << to_string(kind);
  }
}

TEST(Models, NamesAreStable) {
  EXPECT_EQ(to_string(ModelKind::kMobileNetLite), "MobileNetLite");
  EXPECT_EQ(to_string(ModelKind::kResNetLite), "ResNetLite");
  EXPECT_EQ(to_string(ModelKind::kNeuralOde), "NeuralODE");
}

TEST(Layers, BatchNormEvalUsesRunningStats) {
  Rng rng{38};
  BatchNorm bn{2};
  // Training forwards accumulate running statistics toward the batch stats.
  Tensor x = random_tensor({16, 2, 2, 2}, rng, 2.0);
  for (int i = 0; i < 200; ++i) bn.forward_train(x);
  const Tensor train_out = bn.forward_train(x);
  const Tensor eval_out = bn.infer(x);
  // After convergence the eval output matches the train output closely.
  double max_diff = 0;
  for (std::size_t i = 0; i < train_out.numel(); ++i)
    max_diff = std::max(max_diff,
                        std::abs(static_cast<double>(train_out[i]) - eval_out[i]));
  EXPECT_LT(max_diff, 0.15);
}

TEST(Layers, BatchNormStateIsExposedForSerialization) {
  Rng rng{39};
  BatchNorm bn{3};
  EXPECT_EQ(bn.state().size(), 2u);  // running mean + running var
  Sequential seq;
  seq.emplace<Conv2D>(2, 3, 3, 1, 1, rng);
  seq.emplace<BatchNorm>(3);
  // A nested block, as MobileNetLite's are: two more BNs inside.
  auto block = std::make_unique<Sequential>();
  block->emplace<BatchNorm>(3);
  block->emplace<Conv2D>(3, 4, 1, 1, 0, rng);
  block->emplace<BatchNorm>(4);
  seq.add(std::move(block));
  EXPECT_EQ(seq.state().size(), 2u + 4u);
}

// Dense reads each dim-0 row of a [N, C, H, W] input as its C·H·W features:
// the output, dX and parameter gradients carry the bits of the same data
// shaped [N, C·H·W], dX comes back in the input's shape, and with
// want_input_grad == false there is no dX but the same parameter gradients.
TEST(Layers, DenseReadsRowsOfAnyRank) {
  Rng rng{40};
  Dense dense{3 * 4 * 5, 6, rng};
  const Tensor x4 = random_tensor({2, 3, 4, 5}, rng);
  Tensor x2({2, 3 * 4 * 5}, kNoFill);
  std::copy_n(x4.data(), x4.numel(), x2.data());
  const auto same_data = [](const Tensor& a, const Tensor& b) {
    return a.numel() == b.numel() &&
           std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
  };
  // One training step: output, dX and the parameter gradients it leaves.
  struct Step {
    Tensor y, dx;
    std::vector<Tensor> grads;
  };
  const auto step = [&](const Tensor& x, bool want_input_grad) {
    for (Param* p : dense.params()) p->zero_grad();
    Step s;
    s.y = dense.forward_train(x);
    s.dx = dense.backward(weighted_loss(s.y).second, want_input_grad);
    for (Param* p : dense.params()) s.grads.push_back(p->grad);
    return s;
  };
  const Step rows = step(x2, true);
  const Step planes = step(x4, true);
  EXPECT_EQ(planes.y.shape(), rows.y.shape());
  EXPECT_TRUE(same_data(planes.y, rows.y));
  EXPECT_TRUE(same_data(dense.infer(x4), rows.y));
  EXPECT_EQ(planes.dx.shape(), x4.shape());
  EXPECT_TRUE(same_data(planes.dx, rows.dx));
  const Step no_dx = step(x4, false);
  EXPECT_TRUE(no_dx.dx.empty());
  ASSERT_EQ(planes.grads.size(), rows.grads.size());
  for (std::size_t j = 0; j < rows.grads.size(); ++j) {
    EXPECT_TRUE(same_data(planes.grads[j], rows.grads[j])) << "param " << j;
    EXPECT_TRUE(same_data(no_dx.grads[j], rows.grads[j])) << "param " << j;
  }
  EXPECT_THROW((void)dense.infer(random_tensor({2, 59}, rng)),
               std::invalid_argument);
}

TEST(Models, EvaluateMseMatchesManual) {
  Rng rng{37};
  Sequential model;
  model.emplace<Dense>(2, 1, rng);
  Tensor x = random_tensor({10, 2}, rng);
  Tensor y = random_tensor({10, 1}, rng);
  const double batched = evaluate_mse(model, x, y, 3);
  const auto pred = model.infer(x);
  double manual = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    const double d = pred[i] - y[i];
    manual += d * d;
  }
  manual /= 10.0;
  EXPECT_NEAR(batched, manual, 1e-6);
}

// ---------------------------------------------------------------------------
// Forward bits across SIMD backends and thread counts.

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

// Fresh model with NON-TRIVIAL BatchNorm running statistics: a few
// training forwards move every running mean/var off its (0, 1) init, so
// eval forwards are exercised against real eval-affine values, not the
// identity transform.
std::unique_ptr<Layer> warmed_model(ModelKind kind, const ModelInputShape& in,
                                    Rng& rng) {
  auto model = make_model(kind, in, 6, rng);
  for (int i = 0; i < 3; ++i) {
    const Tensor batch =
        random_tensor({4, in.channels, in.height, in.width}, rng, 1.5);
    (void)model->forward_train(batch);
  }
  return model;
}

// The layer graph's output bits, pinned so that a rewrite of any layer
// forward or backward must keep them: CRC-32 of infer(x) for every model
// kind (warmed, so BatchNorm reads moved running stats) and for the DNN
// baseline's Lstm, and of one training step of every model kind and of the
// Lstm — the output, the input gradient, every parameter gradient and the
// BatchNorm running stats.  Every CRC must hold under both SIMD backends at
// 1 and 4 threads.  The training step also runs with want_input_grad ==
// false, as the trainer does: the output, parameter gradients and state
// keep every bit of the pinned run, and every model kind, whose first layer
// honours the switch, returns no input gradient.  The models without batch
// statistics (NeuralODE, MLP and the Lstm) train on infer's output bits.
TEST(Models, ForwardBitsArePinned) {
  const ModelInputShape in;
  const auto fold = [](const Tensor& t, std::uint32_t crc) {
    return util::crc32(t.data(), t.numel() * sizeof(float), crc);
  };
  const auto same_bits = [](const Tensor& a, const Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
  };
  const auto eval_crc = [&](ModelKind kind) {
    Rng rng{95};
    const auto model = warmed_model(kind, in, rng);
    const Tensor batch =
        random_tensor({5, in.channels, in.height, in.width}, rng);
    return fold(model->infer(batch), 0);
  };
  struct TrainFold {
    std::uint32_t pinned;         // output, dX, parameter gradients, state
    std::uint32_t without_input;  // the same fold without dX
    bool input_grad_empty;
    bool output_is_infer;  // forward_train's output has infer's bits
  };
  const auto train_fold = [&](ModelKind kind, bool want_input_grad) {
    Rng rng{96};
    const auto model = warmed_model(kind, in, rng);
    const Tensor batch =
        random_tensor({5, in.channels, in.height, in.width}, rng);
    for (Param* p : model->params()) p->zero_grad();
    const Tensor eval = model->infer(batch);
    const Tensor out = model->forward_train(batch);
    const Tensor grad_in =
        model->backward(weighted_loss(out).second, want_input_grad);
    TrainFold f{fold(grad_in, fold(out, 0)), fold(out, 0), grad_in.empty(),
                same_bits(out, eval)};
    for (Param* p : model->params()) {
      f.pinned = fold(p->grad, f.pinned);
      f.without_input = fold(p->grad, f.without_input);
    }
    for (Tensor* t : model->state()) {
      f.pinned = fold(*t, f.pinned);
      f.without_input = fold(*t, f.without_input);
    }
    return f;
  };
  // The DNN baseline's recurrent layer at its shape (6 features, hidden 16,
  // 8 steps).
  const auto lstm_eval_crc = [&] {
    Rng rng{97};
    Lstm lstm{6, 16, 8, rng};
    const Tensor batch = random_tensor({5, 8, 6}, rng);
    return fold(lstm.infer(batch), 0);
  };
  const auto lstm_train_crc = [&] {
    Rng rng{98};
    Lstm lstm{6, 16, 8, rng};
    const Tensor batch = random_tensor({5, 8, 6}, rng);
    const Tensor out = lstm.forward_train(batch);
    EXPECT_TRUE(same_bits(out, lstm.infer(batch)));
    std::uint32_t crc =
        fold(lstm.backward(weighted_loss(out).second, true), fold(out, 0));
    for (Param* p : lstm.params()) crc = fold(p->grad, crc);
    return crc;
  };
  const struct {
    ModelKind kind;
    bool train;
    std::uint32_t crc;
  } pins[] = {
      {ModelKind::kMobileNetLite, false, 0xd77914cau},
      {ModelKind::kResNetLite, false, 0x6be56b4bu},
      {ModelKind::kNeuralOde, false, 0xb72ca054u},
      {ModelKind::kMlp, false, 0xddb1b6a7u},
      {ModelKind::kMobileNetLite, true, 0xcd0f9987u},
      {ModelKind::kResNetLite, true, 0x72da43e9u},
      {ModelKind::kNeuralOde, true, 0xffba9a09u},
      {ModelKind::kMlp, true, 0x9bda619cu},
  };
  for (const auto backend :
       {util::SimdBackend::kVector, util::SimdBackend::kScalar}) {
    for (const std::size_t threads : {1u, 4u}) {
      SimdBackendGuard simd{backend};
      ThreadCountGuard pool{threads};
      for (const auto& pin : pins) {
        SCOPED_TRACE(to_string(pin.kind) + (pin.train ? " train" : " eval") +
                     (backend == util::SimdBackend::kVector ? " vector/"
                                                            : " scalar/") +
                     std::to_string(threads));
        if (!pin.train) {
          EXPECT_EQ(eval_crc(pin.kind), pin.crc);
          continue;
        }
        const TrainFold full = train_fold(pin.kind, true);
        EXPECT_EQ(full.pinned, pin.crc);
        const TrainFold skip = train_fold(pin.kind, false);
        EXPECT_EQ(skip.without_input, full.without_input);
        EXPECT_TRUE(skip.input_grad_empty);
        if (pin.kind == ModelKind::kNeuralOde || pin.kind == ModelKind::kMlp) {
          EXPECT_TRUE(full.output_is_infer);
        }
      }
      SCOPED_TRACE(std::string{"Lstm"} +
                   (backend == util::SimdBackend::kVector ? " vector/"
                                                          : " scalar/") +
                   std::to_string(threads));
      EXPECT_EQ(lstm_eval_crc(), 0x42b0a164u);
      EXPECT_EQ(lstm_train_crc(), 0xffb69217u);
    }
  }
}

// ---------------------------------------------------------------------------
// Data-parallel training engine (DESIGN.md "Training performance"): shard
// backward passes on replicas must recompose into the full-batch backward,
// and the fused optimizer step must match step-then-zero exactly.

// Runs a full batch through `full` and the same rows as two half-batch
// shards through replicas of `shard_src`, with the trainer's grad scaling
// (2 / batch_numel on every shard).  Input gradients must match row-for-row
// BITWISE — each row's backward never touches its batch neighbours.  Summed
// shard parameter gradients associate differently (per-shard partials added
// shard-ascending vs one batch-ascending sweep), so they match to tolerance.
void check_shard_backward_recomposition(Layer& full, const Layer& shard_src,
                                        const Tensor& x, const Tensor& y) {
  const std::size_t n = x.dim(0);
  const std::size_t half = n / 2;
  ASSERT_EQ(half * 2, n);

  for (Param* p : full.params()) p->zero_grad();
  const Tensor pred = full.forward_train(x);
  const float grad_scale = 2.0f / static_cast<float>(pred.numel());
  const SquaredError batch_loss = squared_error(pred, y, grad_scale);
  const Tensor batch_grad_in = full.backward(batch_loss.grad, true);

  std::vector<float> shard_grad_in;
  std::vector<std::vector<double>> shard_param_grads;
  double shard_sq_err = 0.0;
  for (std::size_t s = 0; s < 2; ++s) {
    auto rep = shard_src.replicate();
    ASSERT_NE(rep, nullptr);
    for (Param* p : rep->params()) p->zero_grad();
    const Tensor sx = x.slice_rows(s * half, (s + 1) * half);
    const Tensor sy = y.slice_rows(s * half, (s + 1) * half);
    const Tensor sp = rep->forward_train(sx);
    const SquaredError loss = squared_error(sp, sy, grad_scale);
    shard_sq_err += loss.sq_err;
    const Tensor gi = rep->backward(loss.grad, true);
    for (std::size_t i = 0; i < gi.numel(); ++i) shard_grad_in.push_back(gi[i]);
    const auto rp = rep->params();
    shard_param_grads.resize(rp.size());
    for (std::size_t j = 0; j < rp.size(); ++j) {
      shard_param_grads[j].resize(rp[j]->grad.numel(), 0.0);
      for (std::size_t i = 0; i < rp[j]->grad.numel(); ++i)
        shard_param_grads[j][i] += static_cast<double>(rp[j]->grad[i]);
    }
  }

  ASSERT_EQ(shard_grad_in.size(), batch_grad_in.numel());
  for (std::size_t i = 0; i < shard_grad_in.size(); ++i)
    ASSERT_EQ(shard_grad_in[i], batch_grad_in[i]) << "grad_in row element " << i;
  // Shard error sums associate differently from the one-sweep batch sum.
  EXPECT_NEAR(shard_sq_err, batch_loss.sq_err,
              1e-12 * std::max(1.0, std::abs(batch_loss.sq_err)));

  const auto fp = full.params();
  ASSERT_EQ(shard_param_grads.size(), fp.size());
  for (std::size_t j = 0; j < fp.size(); ++j)
    for (std::size_t i = 0; i < fp[j]->grad.numel(); ++i) {
      const double want = fp[j]->grad[i];
      const double got = shard_param_grads[j][i];
      EXPECT_NEAR(got, want, 1e-5 * std::max(1.0, std::abs(want)))
          << "param " << j << " grad " << i;
    }
}

TEST(ShardedBackward, DenseRecomposesFromShards) {
  Rng rng{950};
  Dense full{6, 4, rng};
  Rng data_rng{951};
  const Tensor x = random_tensor({8, 6}, data_rng);
  const Tensor y = random_tensor({8, 4}, data_rng);
  check_shard_backward_recomposition(full, full, x, y);
}

TEST(ShardedBackward, Conv2DRecomposesFromShards) {
  Rng rng{952};
  Sequential full;
  full.emplace<Conv2D>(2, 3, 3, 1, 1, rng);
  full.emplace<Dense>(3 * 6 * 5, 4, rng);
  Rng data_rng{953};
  const Tensor x = random_tensor({8, 2, 6, 5}, data_rng);
  const Tensor y = random_tensor({8, 4}, data_rng);
  check_shard_backward_recomposition(full, full, x, y);
}

TEST(ShardedBackward, LstmRecomposesFromShards) {
  Rng rng{954};
  Lstm full{3, 4, 5, rng};
  Rng data_rng{955};
  const Tensor x = random_tensor({6, 5, 3}, data_rng);
  const Tensor y = random_tensor({6, 4}, data_rng);
  check_shard_backward_recomposition(full, full, x, y);
}

// Replicated-then-synced weights must be bitwise copies, and the ghost
// BatchNorm protocol must replay the serial running-stat update exactly.
TEST(ReplicaTeam, ReplicatesSyncsAndAbsorbsShardStats) {
  const ModelInputShape in{2, 6, 8};
  Rng rng{956};
  const auto primary = make_model(ModelKind::kMobileNetLite, in, 3, rng);
  ReplicaTeam team{*primary, 2};
  ASSERT_EQ(team.size(), 2u);

  const auto params = primary->params();
  // Perturb the primary, sync, and expect bitwise equality on every replica.
  for (Param* p : params)
    for (auto& v : p->value.flat()) v += 0.125f;
  team.sync_weights(params);
  for (std::size_t r = 0; r < team.size(); ++r) {
    const auto& rp = team.replica_params(r);
    ASSERT_EQ(rp.size(), params.size());
    for (std::size_t j = 0; j < rp.size(); ++j)
      for (std::size_t i = 0; i < rp[j]->value.numel(); ++i)
        ASSERT_EQ(rp[j]->value[i], params[j]->value[i]);
  }

  // Ghost BN: forwarding a batch on a replica and absorbing its shard stats
  // into the primary must equal forwarding the same batch on a serial copy.
  Rng ref_rng{956};
  const auto reference = make_model(ModelKind::kMobileNetLite, in, 3, ref_rng);
  Rng data_rng{957};
  const Tensor batch = random_tensor({4, in.channels, in.height, in.width}, data_rng);
  (void)reference->forward_train(batch);

  Rng primary_rng{956};
  const auto ghost_primary = make_model(ModelKind::kMobileNetLite, in, 3, primary_rng);
  ReplicaTeam fresh_team{*ghost_primary, 1};
  (void)fresh_team.replica(0).forward_train(batch);
  std::vector<float> stats(fresh_team.replica(0).shard_stats_size());
  ASSERT_FALSE(stats.empty());
  fresh_team.replica(0).export_shard_stats(stats);
  ghost_primary->absorb_shard_stats(stats);

  const auto ref_state = reference->state();
  const auto ghost_state = ghost_primary->state();
  ASSERT_EQ(ref_state.size(), ghost_state.size());
  for (std::size_t t = 0; t < ref_state.size(); ++t)
    for (std::size_t i = 0; i < ref_state[t]->numel(); ++i)
      ASSERT_EQ((*ghost_state[t])[i], (*ref_state[t])[i])
          << "running stat " << t << "[" << i << "]";
}

// The fused sweep must leave weights bitwise identical to step-then-zero
// and clear every gradient — at both SIMD backends, which must also agree
// with each other bitwise (the fused Adam kernel is SIMD-routed).
TEST(Optimizer, FusedStepMatchesStepThenZeroGradBitwise) {
  std::vector<float> weights_by_backend[2];
  int bi = 0;
  for (const util::SimdBackend backend :
       {util::SimdBackend::kVector, util::SimdBackend::kScalar}) {
    SimdBackendGuard simd_guard{backend};
    Rng rng_a{958};
    Dense fused{7, 5, rng_a};
    Rng rng_b{958};
    Dense unfused{7, 5, rng_b};
    Adam opt_fused{fused.params(), 0.01, 0.9, 0.999, 1e-8, 0.1};
    Adam opt_unfused{unfused.params(), 0.01, 0.9, 0.999, 1e-8, 0.1};

    Rng data_rng{959};
    for (int it = 0; it < 5; ++it) {
      const Tensor x = random_tensor({4, 7}, data_rng);
      const Tensor y = random_tensor({4, 5}, data_rng);
      const auto loss_a = mse(fused.forward_train(x), y);
      fused.backward(loss_a.grad, true);
      const auto loss_b = mse(unfused.forward_train(x), y);
      unfused.backward(loss_b.grad, true);
      opt_fused.step_and_zero_grad();
      opt_unfused.step();
      opt_unfused.zero_grad();
    }

    const auto fp = fused.params();
    const auto up = unfused.params();
    for (std::size_t j = 0; j < fp.size(); ++j) {
      for (std::size_t i = 0; i < fp[j]->value.numel(); ++i)
        ASSERT_EQ(fp[j]->value[i], up[j]->value[i])
            << "weight " << j << "[" << i << "]";
      for (std::size_t i = 0; i < fp[j]->grad.numel(); ++i)
        ASSERT_EQ(fp[j]->grad[i], 0.0f) << "stale grad " << j << "[" << i << "]";
      for (float v : fp[j]->value.flat()) weights_by_backend[bi].push_back(v);
    }
    ++bi;
  }
  ASSERT_EQ(weights_by_backend[0].size(), weights_by_backend[1].size());
  for (std::size_t i = 0; i < weights_by_backend[0].size(); ++i)
    ASSERT_EQ(weights_by_backend[0][i], weights_by_backend[1][i])
        << "Adam vector/scalar divergence at weight " << i;
}

}  // namespace
}  // namespace sb::ml
