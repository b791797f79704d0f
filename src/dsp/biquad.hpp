// Biquad IIR filters.  SoundBoost low-passes the microphone signal at 6 kHz
// so that ultrasonic IMU-injection carriers (>20 kHz) can never reach the
// acoustic pipeline (paper §III-A).
#pragma once

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

  // Filters a whole buffer (stateful across calls).
  std::vector<double> process(std::span<const double> xs);

  // Allocation-free variant for hot paths; sizes must match (throws).
  void process_into(std::span<const double> xs, std::span<double> out);

  void reset();

  // Steady-state magnitude response at the given frequency.
  double magnitude_at(double hz, double sample_rate) const;

 private:
  Biquad(double b0, double b1, double b2, double a1, double a2);
  double b0_, b1_, b2_, a1_, a2_;
  double x1_ = 0, x2_ = 0, y1_ = 0, y2_ = 0;
};

// Cascade of biquads for steeper roll-off.
class BiquadCascade {
 public:
  // N-section Butterworth-ish low-pass by cascading identical RBJ sections.
  static BiquadCascade low_pass(double cutoff_hz, double sample_rate,
                                int sections = 2);

  double process(double x);
  std::vector<double> process(std::span<const double> xs);
  // Allocation-free variant for hot paths; sizes must match (throws).
  void process_into(std::span<const double> xs, std::span<double> out);
  void reset();

 private:
  // Pool-allocated: cascades are built per analysis window on the streaming
  // hot path, so the section storage must come from the workspace pool.
  std::vector<Biquad, util::PoolAllocator<Biquad>> sections_;
};

}  // namespace sb::dsp
