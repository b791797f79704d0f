// Process-wide metrics registry: named counters, gauges and histograms with
// whole-run percentile summaries.  Producers cache a
// reference once (function-local static) and then update lock-free
// (counters/gauges) or under a short per-instrument lock; readers snapshot
// on demand.
//
// Collection never draws RNG and never feeds back into any computation, so
// instrumentation cannot perturb seeded results.  High-frequency producers
// (GEMM flop counts, thread-pool task timing) additionally gate their
// updates on obs::enabled() so the disabled-mode cost is a single relaxed
// atomic load.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace sb::obs {

class JsonWriter;

// Monotonic event/quantity counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Last-written value (training MSE, learning rate, queue depth, ...).
class Gauge {
 public:
  void set(double v) { bits_.store(encode(v), std::memory_order_relaxed); }
  double value() const { return decode(bits_.load(std::memory_order_relaxed)); }
  void reset() { set(0.0); }

 private:
  static std::uint64_t encode(double v);
  static double decode(std::uint64_t bits);
  std::atomic<std::uint64_t> bits_{0};
};

// Value distribution with exact count/sum/min/max and percentiles that stay
// accurate over the WHOLE run: every recorded value lands in a bounded set
// of signed log-spaced bins (kSubBuckets per octave, so bucketed quantiles
// carry <= ~1/(2*kSubBuckets) relative error), and streams of at most
// kExactSamples values additionally keep every sample so small-stream
// percentiles are exact (same interpolation as util::stats).
class Histogram {
 public:
  void record(double v);

  // Empty histograms report NaN statistics (count 0, sum 0): the JSON layer
  // serializes non-finite as null, so consumers never see fabricated zeros.
  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
  };
  Snapshot snapshot() const;

  // Whole-run percentile, p in [0, 100]: exact (util::stats interpolation)
  // while the stream fits kExactSamples, bin-resolution accurate beyond.
  // NaN when empty.
  double percentile(double p) const;

  std::uint64_t count() const;
  void reset();

  // Bin-level snapshot, for consumers that difference two snapshots into
  // windowed quantiles (TelemetryExporter).  `bins` is empty until the
  // first record; once sized it has kNumBins entries in ascending value
  // order (negative magnitudes descending, zero, positive ascending).
  struct Buckets {
    std::uint64_t count = 0;
    double sum = 0.0;
    std::vector<std::uint64_t> bins;
  };
  Buckets buckets() const;

  // Percentile over a raw bin array (e.g. the elementwise difference of two
  // Buckets snapshots); `count` must be the sum of `bins`.  NaN when empty.
  static double bins_percentile(const std::vector<std::uint64_t>& bins,
                                std::uint64_t count, double p);

  static constexpr std::size_t kExactSamples = 1 << 12;
  static constexpr int kSubBuckets = 16;  // bins per octave (~3% rel. error)
  static constexpr int kMinExp = -64;     // |v| < 2^kMinExp lands in the zero bin
  static constexpr int kMaxExp = 64;      // |v| >= 2^kMaxExp clamps to the edge
  static constexpr std::size_t kBinsPerSign =
      static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets;
  static constexpr std::size_t kNumBins = 2 * kBinsPerSign + 1;

 private:
  void record_locked(double v);
  double percentile_locked(double p) const;

  mutable std::mutex mutex_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::vector<double> exact_;         // every sample while count_ <= kExactSamples
  std::vector<std::uint64_t> bins_;   // lazily sized to kNumBins on first record
};

// Name -> instrument registry.  Instruments are created on first use and
// live for the process lifetime, so cached references never dangle.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  // Zeroes every registered instrument (names stay registered).
  void reset();

  // Serializes every instrument into the writer as one JSON object:
  //   {"counters": {...}, "gauges": {...}, "histograms": {name: {count,...}}}
  // Empty histograms emit null min/max/mean/percentiles (never fabricated
  // zeros) — metrics_json_wellformed() rejects the pre-null form.
  void write_json(JsonWriter& w) const;

  // Full-registry snapshots for exporters (TelemetryExporter).
  std::vector<std::pair<std::string, std::uint64_t>> counters_snapshot() const;
  std::vector<std::pair<std::string, double>> gauges_snapshot() const;
  std::vector<std::pair<std::string, Histogram::Buckets>> histograms_snapshot()
      const;

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

// Strict structural check for metrics dumps, layered on top of json_valid:
// additionally rejects the legacy empty-distribution encoding, i.e. any
// object carrying "count":0 whose statistic fields (mean/min/max/p50/p90/
// p99) are not null.  Used by the obs tests and the bench self-checks.
bool metrics_json_wellformed(std::string_view json);

}  // namespace sb::obs
