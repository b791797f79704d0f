#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>

#include "obs/json.hpp"

namespace sb::obs {

// ---------------------------------------------------------------------------
// Gauge: doubles stored as bit patterns so reads/writes stay lock-free.

std::uint64_t Gauge::encode(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double Gauge::decode(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// ---------------------------------------------------------------------------
// Histogram

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// Identical interpolation to util::stats percentile; obs cannot link util
// (util links obs), so the five-line algorithm is duplicated and pinned to
// the util implementation by obs_test.
double sorted_percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return kNan;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

// Magnitude bin for 2^kMinExp <= |v|: log-linear — the octave from frexp,
// kSubBuckets linear sub-bins inside it.  Octaves above kMaxExp clamp to
// the top bin (min/max stay exact, so the clamp only widens the error of
// extreme-tail quantiles).
std::size_t magnitude_bin(double a) {
  int exp = 0;
  const double frac = std::frexp(a, &exp);  // a = frac * 2^exp, frac in [0.5, 1)
  if (exp > Histogram::kMaxExp) return Histogram::kBinsPerSign - 1;
  const int octave = exp - (Histogram::kMinExp + 1);
  const int sub = std::min<int>(
      Histogram::kSubBuckets - 1,
      static_cast<int>((2.0 * frac - 1.0) * Histogram::kSubBuckets));
  return static_cast<std::size_t>(octave) * Histogram::kSubBuckets +
         static_cast<std::size_t>(sub);
}

// Ascending-value bin index: [0, kBinsPerSign) negative (descending
// magnitude), kBinsPerSign zero/underflow/non-finite, then positive
// ascending.
std::size_t value_bin(double v) {
  if (!std::isfinite(v)) return Histogram::kBinsPerSign;
  const double a = std::abs(v);
  if (a < std::ldexp(1.0, Histogram::kMinExp)) return Histogram::kBinsPerSign;
  const std::size_t m = magnitude_bin(a);
  return v < 0.0 ? Histogram::kBinsPerSign - 1 - m
                 : Histogram::kBinsPerSign + 1 + m;
}

// Geometric midpoint of a magnitude bin: its values span
// [2^(e-1)*(1 + s/kSub), 2^(e-1)*(1 + (s+1)/kSub)).
double magnitude_representative(std::size_t m) {
  const std::size_t octave = m / Histogram::kSubBuckets;
  const std::size_t sub = m % Histogram::kSubBuckets;
  return std::ldexp(1.0 + (static_cast<double>(sub) + 0.5) /
                              Histogram::kSubBuckets,
                    Histogram::kMinExp + static_cast<int>(octave));
}

double bin_representative(std::size_t bin) {
  if (bin == Histogram::kBinsPerSign) return 0.0;
  if (bin < Histogram::kBinsPerSign)
    return -magnitude_representative(Histogram::kBinsPerSign - 1 - bin);
  return magnitude_representative(bin - Histogram::kBinsPerSign - 1);
}

}  // namespace

void Histogram::record_locked(double v) {
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  if (bins_.empty()) bins_.assign(kNumBins, 0);
  ++bins_[value_bin(v)];
  if (count_ <= kExactSamples) {
    exact_.push_back(v);
  } else if (!exact_.empty()) {
    // Mode switch: the bins have seen every sample from the start, so the
    // exact copy adds nothing beyond memory.
    exact_.clear();
    exact_.shrink_to_fit();
  }
}

void Histogram::record(double v) {
  std::lock_guard<std::mutex> lock{mutex_};
  record_locked(v);
}

double Histogram::bins_percentile(const std::vector<std::uint64_t>& bins,
                                  std::uint64_t count, double p) {
  if (count == 0 || bins.empty()) return kNan;
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(count - 1);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < bins.size(); ++i) {
    cumulative += bins[i];
    if (static_cast<double>(cumulative) > rank)
      return bin_representative(i);
  }
  // Unreachable when count == sum(bins); keep the top bin as a backstop.
  return bin_representative(bins.size() - 1);
}

double Histogram::percentile_locked(double p) const {
  if (count_ == 0) return kNan;
  // The extrema are tracked exactly, so p0/p100 never pay bin resolution.
  if (p <= 0.0) return min_;
  if (p >= 100.0) return max_;
  if (!exact_.empty()) {
    std::vector<double> sorted{exact_};
    std::sort(sorted.begin(), sorted.end());
    return sorted_percentile(sorted, p);
  }
  // Bin-resolution estimate, clamped to the exact extrema so p0/p100 (and
  // any estimate the clamp catches) never leave the observed range.
  return std::clamp(bins_percentile(bins_, count_, p), min_, max_);
}

double Histogram::percentile(double p) const {
  std::lock_guard<std::mutex> lock{mutex_};
  return percentile_locked(p);
}

Histogram::Snapshot Histogram::snapshot() const {
  std::lock_guard<std::mutex> lock{mutex_};
  Snapshot s;
  s.count = count_;
  s.sum = sum_;
  if (count_ == 0) {
    s.min = s.max = s.mean = s.p50 = s.p90 = s.p99 = kNan;
    return s;
  }
  s.min = min_;
  s.max = max_;
  s.mean = sum_ / static_cast<double>(count_);
  if (!exact_.empty()) {
    std::vector<double> sorted{exact_};
    std::sort(sorted.begin(), sorted.end());
    s.p50 = sorted_percentile(sorted, 50.0);
    s.p90 = sorted_percentile(sorted, 90.0);
    s.p99 = sorted_percentile(sorted, 99.0);
  } else {
    s.p50 = std::clamp(bins_percentile(bins_, count_, 50.0), min_, max_);
    s.p90 = std::clamp(bins_percentile(bins_, count_, 90.0), min_, max_);
    s.p99 = std::clamp(bins_percentile(bins_, count_, 99.0), min_, max_);
  }
  return s;
}

Histogram::Buckets Histogram::buckets() const {
  std::lock_guard<std::mutex> lock{mutex_};
  return Buckets{count_, sum_, bins_};
}

std::uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock{mutex_};
  return count_;
}

void Histogram::reset() {
  std::lock_guard<std::mutex> lock{mutex_};
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
  exact_.clear();
  std::fill(bins_.begin(), bins_.end(), 0);
}

// ---------------------------------------------------------------------------
// Registry

struct Registry::Impl {
  mutable std::mutex mutex;
  // std::map: stable references, deterministic (sorted) serialization order.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry::Impl& Registry::impl() const {
  static Impl* impl = new Impl;  // leaked: outlive any static destructor user
  return *impl;
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock{im.mutex};
  auto& slot = im.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock{im.mutex};
  auto& slot = im.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock{im.mutex};
  auto& slot = im.histograms[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void Registry::reset() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock{im.mutex};
  for (auto& [name, c] : im.counters) c->reset();
  for (auto& [name, g] : im.gauges) g->reset();
  for (auto& [name, h] : im.histograms) h->reset();
}

void Registry::write_json(JsonWriter& w) const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock{im.mutex};
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, c] : im.counters) w.kv(name, c->value());
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, g] : im.gauges) w.kv(name, g->value());
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : im.histograms) {
    const Histogram::Snapshot s = h->snapshot();
    w.key(name);
    w.begin_object();
    w.kv("count", static_cast<std::uint64_t>(s.count));
    w.kv("sum", s.sum);
    // NaN statistics of an empty histogram serialize as null here.
    w.kv("mean", s.mean);
    w.kv("min", s.min);
    w.kv("max", s.max);
    w.kv("p50", s.p50);
    w.kv("p90", s.p90);
    w.kv("p99", s.p99);
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::counters_snapshot()
    const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock{im.mutex};
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(im.counters.size());
  for (const auto& [name, c] : im.counters) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, double>> Registry::gauges_snapshot() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock{im.mutex};
  std::vector<std::pair<std::string, double>> out;
  out.reserve(im.gauges.size());
  for (const auto& [name, g] : im.gauges) out.emplace_back(name, g->value());
  return out;
}

std::vector<std::pair<std::string, Histogram::Buckets>>
Registry::histograms_snapshot() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock{im.mutex};
  std::vector<std::pair<std::string, Histogram::Buckets>> out;
  out.reserve(im.histograms.size());
  for (const auto& [name, h] : im.histograms)
    out.emplace_back(name, h->buckets());
  return out;
}

// ---------------------------------------------------------------------------
// Strict metrics-dump validation.

bool metrics_json_wellformed(std::string_view json) {
  if (!json_valid(json)) return false;
  // The serializers above emit compact objects ("key":value, no whitespace),
  // so a lexical scan is exact for our own dumps: inside any object that
  // carries "count":0, every present statistic field must be null.
  static constexpr std::string_view kStatKeys[] = {
      "\"mean\":", "\"min\":", "\"max\":", "\"p50\":", "\"p90\":", "\"p99\":",
  };
  std::size_t pos = 0;
  while ((pos = json.find("\"count\":0,", pos)) != std::string_view::npos) {
    const std::size_t end = json.find('}', pos);
    const std::string_view object =
        json.substr(pos, end == std::string_view::npos ? json.size() - pos
                                                       : end - pos);
    for (const std::string_view key : kStatKeys) {
      std::size_t k = 0;
      while ((k = object.find(key, k)) != std::string_view::npos) {
        if (object.substr(k + key.size(), 4) != "null") return false;
        k += key.size();
      }
    }
    pos += 10;  // past "count":0,
  }
  return true;
}

}  // namespace sb::obs
