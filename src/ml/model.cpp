#include "ml/model.hpp"

#include <algorithm>
#include <stdexcept>

namespace sb::ml {

SquaredError squared_error(const Tensor& pred, const Tensor& target,
                           float grad_scale) {
  if (pred.numel() != target.numel())
    throw std::invalid_argument{"squared_error: size mismatch"};
  SquaredError out;
  out.grad = Tensor(pred.shape());
  for (std::size_t i = 0; i < pred.numel(); ++i) {
    const double d = static_cast<double>(pred[i]) - static_cast<double>(target[i]);
    out.sq_err += d * d;
    out.grad[i] = grad_scale * static_cast<float>(d);
  }
  return out;
}

ReplicaTeam::ReplicaTeam(const Layer& primary, std::size_t count) {
  if (count == 0) count = 1;
  replicas_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto rep = primary.replicate();
    replica_params_.push_back(rep->params());
    // Deep copies carry whatever gradients the primary held; shard backward
    // passes accumulate, so start from zero.
    for (Param* p : replica_params_.back()) p->zero_grad();
    replicas_.push_back(std::move(rep));
  }
}

void ReplicaTeam::sync_weights(const std::vector<Param*>& primary_params) {
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    const auto& rp = replica_params_[r];
    for (std::size_t j = 0; j < rp.size(); ++j)
      std::copy_n(primary_params[j]->value.data(),
                  primary_params[j]->value.numel(), rp[j]->value.data());
  }
}

double evaluate_mse(const Layer& model, const Tensor& x, const Tensor& y,
                    std::size_t batch_size) {
  const std::size_t n = x.dim(0);
  if (n == 0) return 0.0;
  if (batch_size == 0) batch_size = n;
  double total = 0.0;
  std::size_t count = 0;
  for (std::size_t start = 0; start < n; start += batch_size) {
    const std::size_t end = std::min(start + batch_size, n);
    const Tensor bx = x.slice_rows(start, end);
    const Tensor by = y.slice_rows(start, end);
    const Tensor pred = model.infer(bx);
    double s = 0.0;
    for (std::size_t i = 0; i < pred.numel(); ++i) {
      const double d = static_cast<double>(pred[i]) - static_cast<double>(by[i]);
      s += d * d;
    }
    total += s;
    count += pred.numel();
  }
  return count > 0 ? total / static_cast<double>(count) : 0.0;
}

}  // namespace sb::ml
