// Training-throughput bench for the data-parallel trainer (DESIGN.md
// "Training performance"): fits MobileNetLite on a synthetic regression
// corpus and reports samples/s, per-epoch p50 wall clock and the measured
// speedup of SB_THREADS=4 over SB_THREADS=1 — with the determinism contract
// checked first: trained weights and per-epoch MSE curves must be BITWISE
// identical across SB_THREADS in {1,2,4} x SB_SIMD in {auto,scalar}.  Any
// divergence, or a missing key in the emitted BENCH json, is a nonzero exit
// (CI runs this tiny).
//
//   SB_BENCH_TINY=1   small model input + short corpus (CI smoke)
//
// The heap-alloc delta metric counts ml.workspace.heap_allocs across the
// measured (post-warmup) fit: the corpus is sized so every shard has
// identical shape (N % batch == 0, batch % grain == 0), so a warm pool
// serves every training temporary and the delta stays 0.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ml/models.hpp"
#include "ml/trainer.hpp"

namespace {

using namespace sb;

struct Workload {
  ml::ModelInputShape input;
  std::size_t train_rows = 0;
  std::size_t val_rows = 0;
  std::size_t output_dim = 3;
  ml::TrainConfig cfg;
};

Workload workload(bool tiny) {
  Workload w;
  if (tiny) {
    w.input = {.channels = 2, .height = 8, .width = 12};
    w.train_rows = 96;
    w.cfg.epochs = 3;
  } else {
    w.input = {.channels = 4, .height = 14, .width = 32};
    w.train_rows = 512;
    w.cfg.epochs = 10;
  }
  w.val_rows = w.train_rows / 4;
  w.cfg.batch_size = 32;  // 32 rows / grain 8 = 4 shards per batch
  w.cfg.eval_batch_size = 64;
  w.cfg.lr = 2e-3;
  w.cfg.lr_decay = 0.95;
  return w;
}

ml::Tensor random_tensor(ml::Shape shape, Rng& rng) {
  ml::Tensor t{std::move(shape)};
  for (auto& v : t.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

struct Corpus {
  ml::RegressionDataset train;
  ml::RegressionDataset val;
};

Corpus make_corpus(const Workload& w) {
  Rng rng{777 + bench::bench_args().seed_offset};
  Corpus c;
  c.train.x = random_tensor(
      {w.train_rows, w.input.channels, w.input.height, w.input.width}, rng);
  c.train.y = random_tensor({w.train_rows, w.output_dim}, rng);
  c.val.x = random_tensor(
      {w.val_rows, w.input.channels, w.input.height, w.input.width}, rng);
  c.val.y = random_tensor({w.val_rows, w.output_dim}, rng);
  return c;
}

struct FitRun {
  std::vector<float> weights;          // every learned parameter, in order
  std::vector<double> mse_per_epoch;   // train MSE curve
  double wall_seconds = 0.0;
};

// Fit under whatever thread count is already configured.  The thread count
// is NOT toggled in here: ThreadPool::set_threads rebuilds the workers, and
// worker-thread scratch free lists die with their threads — measured fits
// must run on a pool whose workers (and their warm free lists) persist.
FitRun run_fit(const Workload& w, const Corpus& corpus) {
  Rng model_rng{1234};
  auto model =
      ml::make_model(ml::ModelKind::kMobileNetLite, w.input, w.output_dim, model_rng);
  bench::Stopwatch timer;
  const auto result = ml::train_regressor(*model, corpus.train, corpus.val, w.cfg);
  FitRun run;
  run.wall_seconds = timer.seconds();
  run.mse_per_epoch = result.train_mse_per_epoch;
  for (ml::Param* p : model->params())
    for (float v : p->value.flat()) run.weights.push_back(v);
  return run;
}

bool bitwise_equal(const FitRun& a, const FitRun& b) {
  return a.weights.size() == b.weights.size() &&
         a.mse_per_epoch.size() == b.mse_per_epoch.size() &&
         std::memcmp(a.weights.data(), b.weights.data(),
                     a.weights.size() * sizeof(float)) == 0 &&
         std::memcmp(a.mse_per_epoch.data(), b.mse_per_epoch.data(),
                     a.mse_per_epoch.size() * sizeof(double)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  sb::bench::bench_init(argc, argv);
  const bool tiny = bench::tiny_mode();
  const Workload w = workload(tiny);
  const Corpus corpus = make_corpus(w);
  const util::SimdBackend ambient_backend = util::simd_backend();

  std::printf("=== training throughput: data-parallel MobileNetLite fit ===\n");
  bench::BenchReport report{"training_throughput"};
  report.note("mode", tiny ? "tiny" : "full");
  report.metric("train_rows", static_cast<double>(w.train_rows));
  report.metric("epochs", static_cast<double>(w.cfg.epochs));
  report.metric("rows_per_shard", static_cast<double>(ml::kShardGrain));

  // --- Determinism matrix: the contract comes before the stopwatch. ------
  std::printf("determinism: threads {1,2,4} x simd {auto,scalar}\n");
  bool deterministic = true;
  FitRun reference;
  std::size_t cells = 0;
  for (const util::SimdBackend backend :
       {ambient_backend, util::SimdBackend::kScalar}) {
    util::set_simd_backend(backend);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      util::ThreadPool::set_threads(threads);
      const FitRun run = run_fit(w, corpus);
      util::ThreadPool::set_threads(0);
      if (cells == 0) {
        reference = run;
      } else if (!bitwise_equal(reference, run)) {
        std::fprintf(stderr,
                     "training_throughput: DIVERGED at threads=%zu simd=%s\n",
                     threads,
                     backend == util::SimdBackend::kScalar ? "scalar" : "auto");
        deterministic = false;
      }
      ++cells;
    }
  }
  util::set_simd_backend(ambient_backend);
  report.metric("determinism_cells", static_cast<double>(cells));
  report.metric("determinism_ok", deterministic ? 1.0 : 0.0);
  std::printf("  %zu cells, %s\n", cells,
              deterministic ? "all bitwise-identical" : "DIVERGED");

  // --- Timed phase: warm fit, then measured fits, per thread count. ------
  // One unmeasured warmup fit per pool configuration populates every
  // worker's scratch free list before the stopwatch starts.
  auto& heap_allocs =
      obs::Registry::instance().counter("ml.workspace.heap_allocs");

  util::ThreadPool::set_threads(1);
  run_fit(w, corpus);
  const double t1 =
      bench::repeat_median([&](int) { return run_fit(w, corpus).wall_seconds; });

  // Zero-allocation proof for the epoch loop, measured single-threaded where
  // pool free lists are deterministic: once warm, a fit with twice the
  // epochs must cost EXACTLY the same heap-alloc count as a single-length
  // fit — every per-fit alloc is model/replica construction, and the epoch
  // steady state runs entirely out of the workspace pool.  (At >1 thread the
  // same property holds only on average: shard chunks migrate between
  // workers, and with them which per-thread free list serves which replica's
  // cache tensors — bounded churn, reported separately below.)
  const std::uint64_t a0 = heap_allocs.value();
  run_fit(w, corpus);
  const std::uint64_t per_fit = heap_allocs.value() - a0;
  Workload w2x = w;
  w2x.cfg.epochs *= 2;
  const std::uint64_t a1 = heap_allocs.value();
  run_fit(w2x, corpus);
  const auto alloc_delta =
      static_cast<double>(heap_allocs.value() - a1) - static_cast<double>(per_fit);

  util::ThreadPool::set_threads(4);
  run_fit(w, corpus);
  const std::uint64_t t4_allocs_before = heap_allocs.value();
  const double t4 =
      bench::repeat_median([&](int) { return run_fit(w, corpus).wall_seconds; });
  const auto t4_alloc_churn = static_cast<double>(
      (heap_allocs.value() - t4_allocs_before) -
      per_fit * static_cast<std::uint64_t>(bench::bench_args().repeats));
  util::ThreadPool::set_threads(0);

  const double samples =
      static_cast<double>(w.train_rows) * static_cast<double>(w.cfg.epochs);
  report.metric("fit_seconds_p50_t1", t1);
  report.metric("fit_seconds_p50_t4", t4);
  report.metric("epoch_seconds_p50", t4 / static_cast<double>(w.cfg.epochs));
  report.metric("samples_per_second", samples / t4);
  report.metric("speedup_vs_1_thread", t1 / t4);
  report.metric("heap_allocs_per_fit", static_cast<double>(per_fit));
  report.metric("heap_alloc_delta", alloc_delta);
  report.metric("heap_alloc_churn_t4", t4_alloc_churn);
  report.wall_seconds(t4);
  report.flush();

  std::printf(
      "  fit p50: %.3f s (1 thread) / %.3f s (4 threads) -> %.2fx\n"
      "  %.0f samples/s, epoch p50 %.3f s, heap-alloc delta %.0f\n",
      t1, t4, t1 / t4, samples / t4, t4 / static_cast<double>(w.cfg.epochs),
      alloc_delta);
  if (alloc_delta != 0.0) {
    std::fprintf(stderr,
                 "training_throughput: epoch loop fell through the workspace "
                 "pool (delta %.0f)\n",
                 alloc_delta);
    deterministic = false;  // treat a non-flat epoch loop as a failure too
  }

  // --- Self-validate the emitted report. ---------------------------------
  std::string json;
  bool keys_ok = bench::validate_json_file(
      bench::bench_output_dir() / "BENCH_training_throughput.json", &json);
  for (const char* key :
       {"samples_per_second", "fit_seconds_p50_t1", "fit_seconds_p50_t4",
        "epoch_seconds_p50", "speedup_vs_1_thread", "heap_alloc_delta",
        "heap_alloc_churn_t4", "heap_allocs_per_fit", "determinism_cells",
        "simd_isa", "simd_backend", "repeats"}) {
    if (json.find('"' + std::string{key} + '"') == std::string::npos) {
      std::fprintf(stderr, "training_throughput: BENCH json missing key %s\n",
                   key);
      keys_ok = false;
    }
  }
  if (!deterministic || !keys_ok) return 1;
  return 0;
}
