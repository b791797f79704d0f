// Minimal dense tensor used by the neural-network library.  Row-major,
// float32, up to 4 dimensions ([N, C, H, W] for convolutional inputs,
// [N, D] for dense inputs).
//
// Storage (data and shape) comes from the workspace arena
// (util/scratch.hpp): per-thread free lists that make repeated
// construct/destroy cycles — streaming forwards, per-step LSTM tensors,
// minibatch assembly — allocation-free after warm-up.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.hpp"
#include "util/scratch.hpp"

namespace sb::ml {

// Tensor shape vector, pooled like the data buffer.  Brace-initializer call
// sites ({n, c, h, w}) are unaffected; code that builds shapes in a local
// variable should use ml::Shape.
using Shape = std::vector<std::size_t, util::PoolAllocator<std::size_t>>;

// Tag for the Tensor constructor that skips the fill.
struct NoFill {};
inline constexpr NoFill kNoFill{};

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape, float fill = 0.0f);
  // Allocates without writing any element, under util::Scratch's contract:
  // the caller writes every element before anything reads it.  Layer
  // forwards build their outputs this way and fill them in one pass.
  Tensor(Shape shape, NoFill);

  static Tensor zeros(Shape shape);
  // He-normal initialization with fan_in; used for conv/dense weights.
  static Tensor he_normal(Shape shape, std::size_t fan_in, Rng& rng);

  const Shape& shape() const { return shape_; }
  std::size_t ndim() const { return shape_.size(); }
  std::size_t dim(std::size_t i) const { return shape_[i]; }
  std::size_t numel() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float operator[](std::size_t i) const { return data_[i]; }
  float& operator[](std::size_t i) { return data_[i]; }

  std::span<const float> flat() const { return data_; }
  std::span<float> flat() { return data_; }

  // Returns rows [begin, end) along dim 0 as a new tensor.
  Tensor slice_rows(std::size_t begin, std::size_t end) const;

  // Gathers the given dim-0 indices into a new tensor (minibatch assembly).
  Tensor gather_rows(std::span<const std::size_t> indices) const;

  void fill(float v);
  void add_scaled(const Tensor& other, float scale);  // this += scale*other

  // Elements per dim-0 row.
  std::size_t row_size() const;

 private:
  Shape shape_;
  std::vector<float, util::PoolAllocator<float>> data_;
};

}  // namespace sb::ml
