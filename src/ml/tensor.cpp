#include "ml/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/simd.hpp"

namespace sb::ml {
namespace {

std::size_t product(const Shape& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return n;
}

}  // namespace

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)), data_(product(shape_), fill) {}

// A sized construction default-initializes through util::PoolAllocator, so
// no float is written here.
Tensor::Tensor(Shape shape, NoFill)
    : shape_(std::move(shape)), data_(product(shape_)) {}

Tensor Tensor::zeros(Shape shape) { return Tensor{std::move(shape)}; }

Tensor Tensor::he_normal(Shape shape, std::size_t fan_in, Rng& rng) {
  Tensor t{std::move(shape)};
  const double std = std::sqrt(2.0 / static_cast<double>(std::max<std::size_t>(fan_in, 1)));
  for (auto& v : t.data_) v = static_cast<float>(rng.normal(0.0, std));
  return t;
}

std::size_t Tensor::row_size() const {
  if (shape_.empty()) return 0;
  return shape_[0] == 0 ? 0 : numel() / shape_[0];
}

Tensor Tensor::slice_rows(std::size_t begin, std::size_t end) const {
  if (shape_.empty() || begin > end || end > shape_[0])
    throw std::out_of_range{"Tensor::slice_rows"};
  Shape shape = shape_;
  shape[0] = end - begin;
  Tensor t{std::move(shape)};
  const std::size_t rs = row_size();
  std::copy(data_.begin() + static_cast<std::ptrdiff_t>(begin * rs),
            data_.begin() + static_cast<std::ptrdiff_t>(end * rs), t.data_.begin());
  return t;
}

Tensor Tensor::gather_rows(std::span<const std::size_t> indices) const {
  if (shape_.empty()) throw std::out_of_range{"Tensor::gather_rows"};
  Shape shape = shape_;
  shape[0] = indices.size();
  Tensor t{std::move(shape)};
  const std::size_t rs = row_size();
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (indices[i] >= shape_[0]) throw std::out_of_range{"Tensor::gather_rows index"};
    std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(indices[i] * rs), rs,
                t.data_.begin() + static_cast<std::ptrdiff_t>(i * rs));
  }
  return t;
}

void Tensor::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

void Tensor::add_scaled(const Tensor& other, float scale) {
  if (other.numel() != numel())
    throw std::invalid_argument{"Tensor::add_scaled: size mismatch"};
  float* d = data_.data();
  const float* o = other.data_.data();
  const std::size_t n = data_.size();
  std::size_t i = 0;
  // Lanes span independent elements; d[i] += scale*o[i] keeps its scalar
  // mul-then-add order, so both backends are bitwise-identical.
  if (util::simd_enabled()) {
    namespace v = util::simd;
    const v::VFloat s = v::broadcast(scale);
    for (; i + v::kFloatLanes <= n; i += v::kFloatLanes)
      v::store(d + i, v::add(v::load(d + i), v::mul(s, v::load(o + i))));
  }
  for (; i < n; ++i) d[i] += scale * o[i];
}

}  // namespace sb::ml
