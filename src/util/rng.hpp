// Deterministic, seedable random number generation.
//
// All stochastic components in the library (sensor noise, wind gusts, ML
// weight init, attack schedules) draw from an explicitly passed Rng so that
// every experiment is reproducible from a single seed.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace sb {

// xoshiro256** — small, fast, high-quality PRNG.  Not cryptographic; this
// library only needs statistical quality and reproducibility.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Uniform in [0, 2^64).  Inline: the audio renderer draws one per sample.
  std::uint64_t next_u64() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  // Uniform double in [0, 1): the 53 high bits.
  double uniform() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  // Uniform integer in [lo, hi] (inclusive).  Requires lo <= hi.
  int uniform_int(int lo, int hi);

  // Standard normal via Box–Muller (cached second deviate).
  double normal();

  // Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  // Derive an independent child stream (e.g. one per flight) so that adding
  // draws to one component does not perturb another.
  Rng split();

  // Fisher–Yates shuffle of an index set [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

 private:
  std::uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace sb
