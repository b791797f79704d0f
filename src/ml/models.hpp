// Model zoo for acoustic sensory mapping (paper §III-B): scaled-down
// versions of the three architectures the paper evaluates — MobileNetV2,
// ResNet and a Neural ODE — sized for CPU training on banded spectrogram
// windows.
#pragma once

#include <memory>
#include <string>

#include "ml/layer.hpp"

namespace sb::ml {

enum class ModelKind { kMobileNetLite, kResNetLite, kNeuralOde, kMlp };

std::string to_string(ModelKind kind);

// Provenance label of the serving precision.  There is one precision and
// plan_precision() always returns it.  Only the frozen repository benchmark
// (perfbench) still prints this label; a change to the benchmark can drop
// it together with these declarations.
enum class PlanPrecision { kExact };
const char* to_string(PlanPrecision precision);
PlanPrecision plan_precision();

struct ModelInputShape {
  std::size_t channels = 4;  // microphone channels
  std::size_t height = 14;   // STFT frames per window
  std::size_t width = 32;    // frequency bands
};

// Builds a regressor mapping [N, C, H, W] -> [N, output_dim].
std::unique_ptr<Layer> make_model(ModelKind kind, const ModelInputShape& input,
                                  std::size_t output_dim, Rng& rng);

}  // namespace sb::ml
