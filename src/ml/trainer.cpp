// Kernel TU (built with -ffp-contract=off like every library TU): the
// gradient reduction below has scalar and vector paths that must stay
// bitwise-identical.
#include "ml/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "ml/optimizer.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/scratch.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace sb::ml {
namespace {

// Fixed chunk grain for gradient reductions.  Constant on purpose: chunk
// boundaries must not depend on the thread count or results would stop
// being bit-identical across SB_THREADS (CLAUDE.md).
constexpr std::size_t kReduceGrain = 4096;

// Global L2 norm of every parameter gradient.  Only computed while tracing
// is enabled — it is telemetry, never an input to the optimizer.  Fixed
// grain + ascending-chunk combination keeps the gauge thread-count
// invariant.
double grad_norm(const std::vector<Param*>& params) {
  double sum = 0.0;
  for (const Param* p : params) {
    const float* g = p->grad.data();
    sum += util::parallel_sum(p->grad.numel(), kReduceGrain,
                              [g](std::size_t b, std::size_t e) {
                                double s = 0.0;
                                for (std::size_t i = b; i < e; ++i)
                                  s += static_cast<double>(g[i]) * g[i];
                                return s;
                              });
  }
  return std::sqrt(sum);
}

// Reduces per-shard gradient partials (shards * total floats, shard-major)
// into the primary's Param::grad buffers, adding shards in ASCENDING order
// for every element.  Chunks write disjoint elements; lanes span independent
// elements and preserve each element's scalar shard order, so scalar and
// vector paths agree bitwise and the result is independent of both the
// thread count and which replica produced which shard.
void reduce_grad_partials(const std::vector<Param*>& params,
                          const std::vector<std::size_t>& offsets,
                          std::size_t total, const float* partials,
                          std::size_t shards) {
  util::parallel_for_ranges(
      total,
      [&](std::size_t j0, std::size_t j1) {
        std::size_t pi = static_cast<std::size_t>(
                             std::upper_bound(offsets.begin(), offsets.end(), j0) -
                             offsets.begin()) -
                         1;
        std::size_t j = j0;
        while (j < j1) {
          Param* p = params[pi];
          const std::size_t lim =
              std::min(j1, offsets[pi] + p->grad.numel());
          float* dst = p->grad.data() + (j - offsets[pi]);
          std::size_t jj = j;
          if (util::simd_enabled()) {
            namespace v = util::simd;
            for (; jj + v::kFloatLanes <= lim; jj += v::kFloatLanes) {
              v::VFloat acc = v::load(partials + jj);
              for (std::size_t s = 1; s < shards; ++s)
                acc = v::add(acc, v::load(partials + s * total + jj));
              v::store(dst + (jj - j), acc);
            }
          }
          for (; jj < lim; ++jj) {
            float acc = partials[jj];
            for (std::size_t s = 1; s < shards; ++s)
              acc += partials[s * total + jj];
            dst[jj - j] = acc;
          }
          j = lim;
          ++pi;
        }
      },
      kReduceGrain);
}

}  // namespace

std::pair<RegressionDataset, RegressionDataset> split_dataset(
    const RegressionDataset& data, double val_fraction, Rng& rng) {
  const std::size_t n = data.size();
  const auto perm = rng.permutation(n);
  const auto n_val = static_cast<std::size_t>(static_cast<double>(n) * val_fraction);
  const std::size_t n_train = n - n_val;

  std::vector<std::size_t> train_idx(perm.begin(),
                                     perm.begin() + static_cast<std::ptrdiff_t>(n_train));
  std::vector<std::size_t> val_idx(perm.begin() + static_cast<std::ptrdiff_t>(n_train),
                                   perm.end());
  RegressionDataset train{data.x.gather_rows(train_idx), data.y.gather_rows(train_idx)};
  RegressionDataset val{data.x.gather_rows(val_idx), data.y.gather_rows(val_idx)};
  return {std::move(train), std::move(val)};
}

TrainResult train_regressor(Layer& model, const RegressionDataset& train,
                            const RegressionDataset& val, const TrainConfig& config) {
  obs::ScopedSpan train_span{"train_regressor", obs::Stage::kTrain};
  TrainResult result;
  const std::size_t n = train.size();
  if (n == 0) return result;

  const auto params = model.params();
  Adam opt{params, config.lr, 0.9, 0.999, 1e-8, config.weight_decay};
  Rng shuffle_rng{config.shuffle_seed};

  // One replica per worker, capped at the shard count of a full batch.
  const std::size_t max_batch = std::min(config.batch_size, n);
  const std::size_t max_shards = (max_batch + kShardGrain - 1) / kShardGrain;
  ReplicaTeam team{model, std::min(util::ThreadPool::threads(), max_shards)};

  // Flat layout of every parameter gradient, for the shard partial buffers.
  std::vector<std::size_t> offsets;
  offsets.reserve(params.size());
  std::size_t total_params = 0;
  for (const Param* p : params) {
    offsets.push_back(total_params);
    total_params += p->grad.numel();
  }
  const std::size_t stats_size = model.shard_stats_size();
  const std::size_t ydim = train.y.numel() / n;

  // Pool-backed partial buffers, acquired once per fit: repeat fits hit the
  // thread-local free lists and ml.workspace.heap_allocs stays flat.
  util::Scratch<float> grad_partials{max_shards * total_params};
  util::Scratch<double> err_partials{max_shards};
  util::Scratch<float> stats_partials{stats_size ? max_shards * stats_size : 1};

  double lr = config.lr;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    obs::ScopedSpan epoch_span{"epoch", obs::Stage::kTrain};
    opt.set_lr(lr);
    const double epoch_lr = lr;
    lr *= config.lr_decay;
    const auto perm = shuffle_rng.permutation(n);
    double epoch_loss = 0.0;
    double epoch_grad_norm = 0.0;
    std::size_t batches = 0;
    const bool telemetry = obs::enabled();
    for (std::size_t start = 0; start < n; start += config.batch_size) {
      const std::size_t end = std::min(start + config.batch_size, n);
      const std::size_t rows = end - start;
      const std::size_t shards = (rows + kShardGrain - 1) / kShardGrain;
      const std::size_t reps = std::min(team.size(), shards);
      const float grad_scale = 2.0f / static_cast<float>(rows * ydim);
      {
        obs::ScopedSpan shard_span{"train.shards", obs::Stage::kTrain};
        // Replica r runs shards r, r+reps, ... in order.  Every shard writes
        // its own gradient, loss and stats slot, so the result does not
        // depend on which replica ran which shard.
        util::parallel_for(
            reps,
            [&](std::size_t r) {
              Layer& rep = team.replica(r);
              const auto& rp = team.replica_params(r);
              for (std::size_t s = r; s < shards; s += reps) {
                const std::size_t r0 = start + s * kShardGrain;
                const std::size_t r1 = std::min(r0 + kShardGrain, end);
                const std::span<const std::size_t> rows_idx{perm.data() + r0,
                                                            r1 - r0};
                const Tensor sx = train.x.gather_rows(rows_idx);
                const Tensor sy = train.y.gather_rows(rows_idx);
                const Tensor pred = rep.forward_train(sx);
                const SquaredError loss = squared_error(pred, sy, grad_scale);
                // The input gradient is nobody's: the first layer skips it.
                rep.backward(loss.grad, false);
                err_partials[s] = loss.sq_err;
                float* slot = grad_partials.data() + s * total_params;
                for (std::size_t j = 0; j < rp.size(); ++j) {
                  std::copy_n(rp[j]->grad.data(), rp[j]->grad.numel(),
                              slot + offsets[j]);
                  rp[j]->zero_grad();
                }
                if (stats_size > 0)
                  rep.export_shard_stats(
                      {stats_partials.data() + s * stats_size, stats_size});
              }
            },
            1);
      }
      {
        obs::ScopedSpan reduce_span{"train.reduce", obs::Stage::kTrain};
        reduce_grad_partials(params, offsets, total_params,
                             grad_partials.data(), shards);
        // Ghost batch-norm: the primary replays the running-stat update
        // once per shard, in ascending shard order.
        if (stats_size > 0)
          for (std::size_t s = 0; s < shards; ++s)
            model.absorb_shard_stats(
                {stats_partials.data() + s * stats_size, stats_size});
      }
      double batch_err = 0.0;
      for (std::size_t s = 0; s < shards; ++s) batch_err += err_partials[s];
      epoch_loss += batch_err / static_cast<double>(rows * ydim);
      if (telemetry) {
        epoch_grad_norm += grad_norm(params);
        const std::size_t waves = (shards + team.size() - 1) / team.size();
        obs::Registry::instance()
            .histogram("train.shard_occupancy")
            .record(static_cast<double>(shards) /
                    static_cast<double>(waves * team.size()));
      }
      {
        obs::ScopedSpan step_span{"train.step", obs::Stage::kTrain};
        opt.step_and_zero_grad();
        team.sync_weights(params);
      }
      ++batches;
    }
    const double train_mse = batches > 0 ? epoch_loss / static_cast<double>(batches) : 0.0;
    result.train_mse_per_epoch.push_back(train_mse);
    const double val_mse =
        val.size() > 0 ? evaluate_mse(model, val.x, val.y, config.eval_batch_size)
                       : train_mse;
    result.val_mse_per_epoch.push_back(val_mse);
    if (telemetry) {
      auto& registry = obs::Registry::instance();
      registry.gauge("train.mse").set(train_mse);
      registry.gauge("train.val_mse").set(val_mse);
      registry.gauge("train.lr").set(epoch_lr);
      registry.gauge("train.grad_norm")
          .set(batches > 0 ? epoch_grad_norm / static_cast<double>(batches) : 0.0);
      registry.counter("train.epochs").add();
    }
    obs::logf(obs::LogLevel::kDebug, "train",
              "epoch %zu: train MSE %.4f, val MSE %.4f, lr %.2e", epoch + 1,
              train_mse, val_mse, epoch_lr);
  }
  result.final_train_mse =
      evaluate_mse(model, train.x, train.y, config.eval_batch_size);
  result.final_val_mse =
      val.size() > 0 ? evaluate_mse(model, val.x, val.y, config.eval_batch_size)
                     : result.final_train_mse;
  return result;
}

}  // namespace sb::ml
