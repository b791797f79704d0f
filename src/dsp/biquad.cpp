#include "dsp/biquad.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <stdexcept>

#include "util/simd.hpp"

namespace sb::dsp {
namespace {

namespace simd = util::simd;
using simd::VDouble;

// process_channels_into's interleaving block holds sample t of channel c at
// [t * kLaneChannels + c], so one sample of every channel is kChains
// vectors ("chains") of kDoubleLanes channels each.
constexpr std::size_t kChains = kLaneChannels / simd::kDoubleLanes;
static_assert(kChains * simd::kDoubleLanes == kLaneChannels &&
              (kChains == 1 || kChains == 2));
static_assert(kLaneChannels == 4, "the interleave loops name four channels");
// Samples per channel in one block: 8 KB of doubles.
constexpr std::size_t kBlock = 256;

// One section's coefficients and, lane c being channel c, its last two
// inputs (x1, x2) and outputs (y1, y2), carried from block to block.
struct LaneSection {
  double b0, b1, b2, a1, a2;
  double x1[kLaneChannels], x2[kLaneChannels];
  double y1[kLaneChannels], y2[kLaneChannels];
};

struct Coeffs {
  VDouble b0, b1, b2, a1, a2;
};

Coeffs broadcast(const LaneSection& s) {
  return {simd::broadcastd(s.b0), simd::broadcastd(s.b1), simd::broadcastd(s.b2),
          simd::broadcastd(s.a1), simd::broadcastd(s.a2)};
}

// b0*x + b1*x1 + b2*x2 - a1*y1 - a2*y2, left to right as Biquad::process.
VDouble section(const Coeffs& k, VDouble x, VDouble x1, VDouble x2, VDouble y1,
                VDouble y2) {
  return simd::subd(
      simd::subd(simd::addd(simd::addd(simd::muld(k.b0, x), simd::muld(k.b1, x1)),
                            simd::muld(k.b2, x2)),
                 simd::muld(k.a1, y1)),
      simd::muld(k.a2, y2));
}

// One chain's state through a sweep: the sweep's last two inputs (x1, x2)
// and each section's last two outputs (m1, m2 for the first of a pair; y1,
// y2 for the last section).  The second section of a pair reads the first
// one's outputs as its inputs, so it needs no input history of its own.
struct Chain {
  VDouble x1, x2, m1, m2, y1, y2;
};

template <bool kPair>
Chain load_chain(const LaneSection* sec, std::size_t lane) {
  const LaneSection& last = sec[kPair ? 1 : 0];
  Chain h{};
  h.x1 = simd::loadd(sec[0].x1 + lane);
  h.x2 = simd::loadd(sec[0].x2 + lane);
  if constexpr (kPair) {
    h.m1 = simd::loadd(sec[0].y1 + lane);
    h.m2 = simd::loadd(sec[0].y2 + lane);
  }
  h.y1 = simd::loadd(last.y1 + lane);
  h.y2 = simd::loadd(last.y2 + lane);
  return h;
}

template <bool kPair>
void store_chain(const Chain& h, LaneSection* sec, std::size_t lane) {
  LaneSection& last = sec[kPair ? 1 : 0];
  simd::stored(sec[0].x1 + lane, h.x1);
  simd::stored(sec[0].x2 + lane, h.x2);
  if constexpr (kPair) {
    simd::stored(sec[0].y1 + lane, h.m1);
    simd::stored(sec[0].y2 + lane, h.m2);
  }
  simd::stored(last.y1 + lane, h.y1);
  simd::stored(last.y2 + lane, h.y2);
}

// One sample of one chain through the sweep's section(s).
template <bool kPair>
VDouble step(Chain& h, const Coeffs& k0, const Coeffs& k1, VDouble x) {
  VDouble y;
  if constexpr (kPair) {
    const VDouble m = section(k0, x, h.x1, h.x2, h.m1, h.m2);
    y = section(k1, m, h.m1, h.m2, h.y1, h.y2);
    h.m2 = h.m1;
    h.m1 = m;
  } else {
    y = section(k0, x, h.x1, h.x2, h.y1, h.y2);
  }
  h.x2 = h.x1;
  h.x1 = x;
  h.y2 = h.y1;
  h.y1 = y;
  return y;
}

// Filters `len` samples of `block` in place through the section at `sec`,
// or through it and the next one fused, with every chain's state in
// registers and the chains of one sample interleaved.
template <bool kPair>
void sweep(double* block, std::size_t len, LaneSection* sec) {
  constexpr std::size_t kLanes = simd::kDoubleLanes;
  const Coeffs k0 = broadcast(sec[0]);
  const Coeffs k1 = broadcast(sec[kPair ? 1 : 0]);
  Chain a = load_chain<kPair>(sec, 0);
  Chain b = a;
  if constexpr (kChains == 2) b = load_chain<kPair>(sec, kLanes);
  for (std::size_t t = 0; t < len; ++t) {
    double* row = block + t * kLaneChannels;
    simd::stored(row, step<kPair>(a, k0, k1, simd::loadd(row)));
    if constexpr (kChains == 2)
      simd::stored(row + kLanes, step<kPair>(b, k0, k1, simd::loadd(row + kLanes)));
  }
  store_chain<kPair>(a, sec, 0);
  if constexpr (kChains == 2) store_chain<kPair>(b, sec, kLanes);
}

}  // namespace

Biquad::Biquad(double b0, double b1, double b2, double a1, double a2)
    : b0_(b0), b1_(b1), b2_(b2), a1_(a1), a2_(a2) {}

Biquad Biquad::low_pass(double cutoff_hz, double sample_rate, double q) {
  const double w0 = 2.0 * std::numbers::pi * cutoff_hz / sample_rate;
  const double alpha = std::sin(w0) / (2.0 * q);
  const double cw = std::cos(w0);
  const double a0 = 1.0 + alpha;
  return {(1.0 - cw) / 2.0 / a0, (1.0 - cw) / a0, (1.0 - cw) / 2.0 / a0,
          -2.0 * cw / a0, (1.0 - alpha) / a0};
}

Biquad Biquad::band_pass(double center_hz, double sample_rate, double q) {
  const double w0 = 2.0 * std::numbers::pi * center_hz / sample_rate;
  const double alpha = std::sin(w0) / (2.0 * q);
  const double cw = std::cos(w0);
  const double a0 = 1.0 + alpha;
  return {alpha / a0, 0.0, -alpha / a0, -2.0 * cw / a0, (1.0 - alpha) / a0};
}

void Biquad::process_into(std::span<const double> xs, std::span<double> out) {
  if (xs.size() != out.size())
    throw std::invalid_argument{"Biquad::process_into: size mismatch"};
  for (std::size_t i = 0; i < xs.size(); ++i) out[i] = process(xs[i]);
}

void Biquad::reset() { x1_ = x2_ = y1_ = y2_ = 0.0; }

double Biquad::magnitude_at(double hz, double sample_rate) const {
  const double w = 2.0 * std::numbers::pi * hz / sample_rate;
  const std::complex<double> z{std::cos(w), std::sin(w)};
  const auto z1 = 1.0 / z, z2 = z1 * z1;
  const auto num = b0_ + b1_ * z1 + b2_ * z2;
  const auto den = 1.0 + a1_ * z1 + a2_ * z2;
  return std::abs(num / den);
}

BiquadCascade BiquadCascade::low_pass(double cutoff_hz, double sample_rate,
                                      int sections) {
  BiquadCascade c;
  for (int i = 0; i < sections; ++i)
    c.sections_.push_back(Biquad::low_pass(cutoff_hz, sample_rate));
  return c;
}

double BiquadCascade::process(double x) {
  for (auto& s : sections_) x = s.process(x);
  return x;
}

void BiquadCascade::process_into(std::span<const double> xs,
                                 std::span<double> out) {
  if (xs.size() != out.size())
    throw std::invalid_argument{"BiquadCascade::process_into: size mismatch"};
  for (std::size_t i = 0; i < xs.size(); ++i) out[i] = process(xs[i]);
}

void BiquadCascade::reset() {
  for (auto& s : sections_) s.reset();
}

void BiquadCascade::process_channels_into(
    std::span<const std::span<const double>, kLaneChannels> in,
    std::span<const std::span<double>, kLaneChannels> out) const {
  const std::size_t n = in[0].size();
  for (std::size_t c = 0; c < kLaneChannels; ++c)
    if (in[c].size() != n || out[c].size() != n)
      throw std::invalid_argument{
          "BiquadCascade::process_channels_into: size mismatch"};
  if (!util::simd_enabled()) {
    BiquadCascade lane = *this;
    for (std::size_t c = 0; c < kLaneChannels; ++c) {
      lane.reset();
      lane.process_into(in[c], out[c]);
    }
    return;
  }
  const std::size_t sections = sections_.size();
  util::Scratch<LaneSection> state{sections};
  for (std::size_t s = 0; s < sections; ++s) {
    const Biquad::Coefficients k = sections_[s].coefficients();
    state[s] = {k.b0, k.b1, k.b2, k.a1, k.a2, {}, {}, {}, {}};
  }
  util::Scratch<double> block{kBlock * kLaneChannels};
  double* b = block.data();
  for (std::size_t t0 = 0; t0 < n; t0 += kBlock) {
    const std::size_t len = std::min(kBlock, n - t0);
    const double* x0 = in[0].data() + t0;
    const double* x1 = in[1].data() + t0;
    const double* x2 = in[2].data() + t0;
    const double* x3 = in[3].data() + t0;
    for (std::size_t t = 0; t < len; ++t) {
      b[4 * t] = x0[t];
      b[4 * t + 1] = x1[t];
      b[4 * t + 2] = x2[t];
      b[4 * t + 3] = x3[t];
    }
    // Sections run in fused pairs, each pair one sweep over the block.
    for (std::size_t s = 0; s < sections;) {
      if (sections - s >= 2) {
        sweep<true>(b, len, state.data() + s);
        s += 2;
      } else {
        sweep<false>(b, len, state.data() + s);
        s += 1;
      }
    }
    double* y0 = out[0].data() + t0;
    double* y1 = out[1].data() + t0;
    double* y2 = out[2].data() + t0;
    double* y3 = out[3].data() + t0;
    for (std::size_t t = 0; t < len; ++t) {
      y0[t] = b[4 * t];
      y1[t] = b[4 * t + 1];
      y2[t] = b[4 * t + 2];
      y3[t] = b[4 * t + 3];
    }
  }
}

}  // namespace sb::dsp
