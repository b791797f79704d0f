#include "ml/models.hpp"

#include <stdexcept>

#include "ml/conv.hpp"
#include "ml/layers.hpp"
#include "ml/neural_ode.hpp"

namespace sb::ml {

std::string to_string(ModelKind kind) {
  switch (kind) {
    case ModelKind::kMobileNetLite: return "MobileNetLite";
    case ModelKind::kResNetLite: return "ResNetLite";
    case ModelKind::kNeuralOde: return "NeuralODE";
    case ModelKind::kMlp: return "MLP";
  }
  return "unknown";
}

const char* to_string(PlanPrecision) { return "exact"; }

PlanPrecision plan_precision() { return PlanPrecision::kExact; }

namespace {

// MobileNet-style depthwise-separable block: depthwise 3x3 (stride s) ->
// BN+ReLU6 -> pointwise 1x1 -> BN+ReLU6, each BN+ReLU6 one BatchNorm with
// Activation::kRelu6.
std::unique_ptr<Layer> depthwise_separable(std::size_t in_channels,
                                           std::size_t out_channels,
                                           std::size_t stride, Rng& rng) {
  auto block = std::make_unique<Sequential>();
  block->emplace<DepthwiseConv2D>(in_channels, 3, stride, 1, rng);
  block->emplace<BatchNorm>(in_channels, Activation::kRelu6);
  block->emplace<Conv2D>(in_channels, out_channels, 1, 1, 0, rng);
  block->emplace<BatchNorm>(out_channels, Activation::kRelu6);
  return block;
}

}  // namespace

std::unique_ptr<Layer> make_model(ModelKind kind, const ModelInputShape& input,
                                  std::size_t output_dim, Rng& rng) {
  auto model = std::make_unique<Sequential>();
  switch (kind) {
    case ModelKind::kMobileNetLite: {
      // Stem + depthwise-separable stack (MobileNetV2 spirit at 1/64 scale).
      model->emplace<Conv2D>(input.channels, 8, 3, 1, 1, rng);
      model->emplace<BatchNorm>(8, Activation::kRelu6);
      model->add(depthwise_separable(8, 16, 2, rng));
      model->add(depthwise_separable(16, 24, 1, rng));
      model->add(depthwise_separable(24, 32, 2, rng));
      model->emplace<GlobalAvgPool>();
      model->emplace<Dense>(32, output_dim, rng);
      break;
    }
    case ModelKind::kResNetLite: {
      model->emplace<Conv2D>(input.channels, 12, 3, 1, 1, rng);
      model->emplace<BatchNorm>(12, Activation::kRelu);
      model->emplace<ResidualBlock>(12, 12, 1, rng);
      model->emplace<ResidualBlock>(12, 24, 2, rng);
      model->emplace<ResidualBlock>(24, 32, 2, rng);
      model->emplace<GlobalAvgPool>();
      model->emplace<Dense>(32, output_dim, rng);
      break;
    }
    case ModelKind::kNeuralOde: {
      const std::size_t flat = input.channels * input.height * input.width;
      const std::size_t state = 48;
      model->emplace<Dense>(flat, state, rng);   // encoder
      model->emplace<Tanh>();
      model->emplace<NeuralOdeBlock>(state, 64, 6, rng);
      model->emplace<Dense>(state, output_dim, rng);  // decoder
      break;
    }
    case ModelKind::kMlp: {
      const std::size_t flat = input.channels * input.height * input.width;
      model->emplace<Dense>(flat, 64, rng);
      model->emplace<ReLU>();
      model->emplace<Dense>(64, 32, rng);
      model->emplace<ReLU>();
      model->emplace<Dense>(32, output_dim, rng);
      break;
    }
    default:
      throw std::invalid_argument{"make_model: unknown kind"};
  }
  return model;
}

}  // namespace sb::ml
