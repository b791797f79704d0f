// Biquad IIR filters.  SoundBoost low-passes the microphone signal at 6 kHz
// so that ultrasonic IMU-injection carriers (>20 kHz) can never reach the
// acoustic pipeline (paper §III-A).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/scratch.hpp"

namespace sb::dsp {

// Direct-form-I biquad section.
class Biquad {
 public:
  // RBJ audio-EQ-cookbook designs.
  static Biquad low_pass(double cutoff_hz, double sample_rate, double q = 0.7071);
  static Biquad band_pass(double center_hz, double sample_rate, double q);

  // Processes one sample through the filter, updating internal state.
  // Inline: the rotor-sound renderer filters one noise sample per output
  // sample.
  double process(double x) {
    const double y = b0_ * x + b1_ * x1_ + b2_ * x2_ - a1_ * y1_ - a2_ * y2_;
    x2_ = x1_;
    x1_ = x;
    y2_ = y1_;
    y1_ = y;
    return y;
  }

  // Filters a whole buffer into `out` (stateful across calls); sizes must
  // match (throws).
  void process_into(std::span<const double> xs, std::span<double> out);

  void reset();

  // Steady-state magnitude response at the given frequency.
  double magnitude_at(double hz, double sample_rate) const;

  // The coefficients and the direct-form-I state, by process()'s names.
  // Lane kernels that run process()'s arithmetic for several filters at
  // once (BiquadCascade::process_channels_into, the rotor renderer's
  // lanes) read filters through these and write the state back.
  struct Coefficients {
    double b0, b1, b2, a1, a2;
  };
  struct State {
    double x1, x2, y1, y2;
  };
  Coefficients coefficients() const { return {b0_, b1_, b2_, a1_, a2_}; }
  State state() const { return {x1_, x2_, y1_, y2_}; }
  void set_state(const State& s) {
    x1_ = s.x1;
    x2_ = s.x2;
    y1_ = s.y1;
    y2_ = s.y2;
  }

 private:
  Biquad(double b0, double b1, double b2, double a1, double a2);
  double b0_, b1_, b2_, a1_, a2_;
  double x1_ = 0, x2_ = 0, y1_ = 0, y2_ = 0;
};

// Channels BiquadCascade::process_channels_into filters in one pass: the
// four microphones.
inline constexpr std::size_t kLaneChannels = 4;

// Cascade of biquads for steeper roll-off.
class BiquadCascade {
 public:
  // N-section Butterworth-ish low-pass by cascading identical RBJ sections.
  static BiquadCascade low_pass(double cutoff_hz, double sample_rate,
                                int sections = 2);

  double process(double x);
  // Filters a whole buffer into `out` (stateful across calls); sizes must
  // match (throws).
  void process_into(std::span<const double> xs, std::span<double> out);
  void reset();

  // Filters kLaneChannels equal-length channels, each from zero state, and
  // leaves this cascade's state untouched: out[c] holds bitwise what a
  // reset copy's process_into(in[c], out[c]) writes.  The vector backend
  // runs the channels as lanes (lane = channel) through an interleaving
  // block of 256 samples per channel from the workspace pool, sweeping each
  // block once per pair of sections with both sections' state in registers
  // and each lane in Biquad::process's operation order; the scalar backend
  // runs the per-channel loop.  Sizes must match (throws).
  void process_channels_into(
      std::span<const std::span<const double>, kLaneChannels> in,
      std::span<const std::span<double>, kLaneChannels> out) const;

 private:
  // Pool-allocated: cascades are built per analysis window on the streaming
  // hot path, so the section storage must come from the workspace pool.
  std::vector<Biquad, util::PoolAllocator<Biquad>> sections_;
};

}  // namespace sb::dsp
