// Ring-buffered incremental window slicing for the online serving runtime.
//
// The offline pipeline renders a flight's one continuous recording and reads
// every analysis window as a view of it; a live deployment sees the same
// continuous multi-channel stream arriving chunk by chunk.
// StreamingFeatureExtractor buffers that stream and emits an analysis window
// the moment its last sample arrives, enumerating exactly the
// core::window_grid the offline path analyzes.  The emitted audio is a
// verbatim slice of the stream at the samples core::recording_window views
// offline, so streaming the recording reproduces the offline signatures bit
// for bit at any stride — pinned by stream_test and the integration
// equivalence suite at the production 0.25 s stride.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "acoustics/propagation.hpp"

namespace sb::stream {

// One analysis window cut from the stream: its span on the flight timeline
// and a copy of its samples (the ring buffer moves on before the window is
// analyzed).
struct WindowAudio {
  double t0 = 0.0;
  double t1 = 0.0;
  acoustics::MultiChannelAudio audio;
};

// The stream runs at sensors::kMicSampleRate.
struct StreamingExtractorConfig {
  double settle = 2.0;          // grid origin: takeoff transient skipped
  double stride = 0.5;          // grid step
  double window_seconds = 0.5;  // window length
};

class StreamingFeatureExtractor {
 public:
  explicit StreamingFeatureExtractor(const StreamingExtractorConfig& config);

  // Appends one chunk (all channels the same length, at
  // sensors::kMicSampleRate — anything else throws invalid_argument; t = 0 is the first
  // sample ever pushed) and returns the analysis windows it completed, in
  // grid order.  Chunk boundaries are irrelevant: the emitted windows depend
  // only on the concatenated stream (chunk-size invariance is pinned by
  // stream_test).
  std::vector<WindowAudio> push(
      const acoustics::MultiChannelAudio& chunk);

  // Window k covers samples [begin, begin + length) of the stream, with
  // begin = llround(t0_k * fs) — the same rounding the synthesizer slices
  // the recording by and core::recording_window views it with.
  std::size_t window_length() const { return window_len_; }

  std::size_t samples_pushed() const { return next_abs_; }
  // Per-channel samples currently held — stays O(window + stride + chunk)
  // however long the stream runs (pinned by stream_test).
  std::size_t buffered_samples() const { return buffer_[0].size(); }
  const StreamingExtractorConfig& config() const { return config_; }

  // Bitwise checkpoint of the ring state: buffered tail samples, cursors
  // and the float-accumulated next_t0_ (the accumulated double itself is
  // persisted — recomputing settle + k*stride would NOT reproduce it).
  // load_state expects an extractor constructed with the SAME config and
  // returns false on malformed bytes, a config mismatch, or cursors that
  // disagree with the buffer (a next window starting before the buffered
  // tail).
  void save_state(std::ostream& os) const;
  bool load_state(std::istream& is);

 private:
  std::size_t window_begin(double t0) const;
  void trim();

  StreamingExtractorConfig config_;
  std::size_t window_len_ = 0;
  std::array<std::vector<double>, sensors::kNumMics> buffer_;
  std::size_t base_ = 0;      // absolute stream index of buffer_[c][0]
  std::size_t next_abs_ = 0;  // absolute stream index of the next new sample
  std::size_t next_window_ = 0;
  double next_t0_ = 0.0;  // advances by repeated `+= stride` to mirror the
                          // float accumulation of core::window_grid exactly
};

}  // namespace sb::stream
