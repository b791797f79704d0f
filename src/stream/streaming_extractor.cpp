#include "stream/streaming_extractor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/binary_io.hpp"

namespace sb::stream {

StreamingFeatureExtractor::StreamingFeatureExtractor(
    const StreamingExtractorConfig& config)
    : config_(config), next_t0_(config.settle) {
  if (config_.stride <= 0.0 || config_.window_seconds <= 0.0)
    throw std::invalid_argument{"StreamingFeatureExtractor: non-positive config"};
  window_len_ = static_cast<std::size_t>(
      std::llround(config_.window_seconds * sensors::kMicSampleRate));
  if (window_len_ == 0)
    throw std::invalid_argument{"StreamingFeatureExtractor: empty window"};
}

std::size_t StreamingFeatureExtractor::window_begin(double t0) const {
  const auto idx = std::llround(std::max(t0, 0.0) * sensors::kMicSampleRate);
  return static_cast<std::size_t>(idx);
}

void StreamingFeatureExtractor::trim() {
  // Nothing below the next unfinished window's first sample is ever read
  // again; drop it so a session holds O(window + stride) audio, not the
  // whole flight.
  const std::size_t keep_from = std::min(window_begin(next_t0_), next_abs_);
  if (keep_from <= base_) return;
  const std::size_t drop = keep_from - base_;
  for (auto& ch : buffer_)
    ch.erase(ch.begin(), ch.begin() + static_cast<std::ptrdiff_t>(drop));
  base_ = keep_from;
}

std::vector<WindowAudio> StreamingFeatureExtractor::push(
    const acoustics::MultiChannelAudio& chunk) {
  const std::size_t n = chunk.num_samples();
  for (const auto& ch : chunk.channels)
    if (ch.size() != n)
      throw std::invalid_argument{"StreamingFeatureExtractor: ragged chunk"};
  // Sample indices are the stream's clock: audio at another rate would be
  // cut into windows of the wrong duration and stamped as this rate.
  if (chunk.sample_rate != sensors::kMicSampleRate)
    throw std::invalid_argument{"StreamingFeatureExtractor: sample rate mismatch"};
  for (std::size_t c = 0; c < sensors::kNumMics; ++c)
    buffer_[c].insert(buffer_[c].end(), chunk.channels[c].begin(),
                      chunk.channels[c].end());
  next_abs_ += n;

  std::vector<WindowAudio> out;
  while (true) {
    const std::size_t begin = window_begin(next_t0_);
    if (begin + window_len_ > next_abs_) break;
    WindowAudio w;
    w.t0 = next_t0_;
    w.t1 = next_t0_ + config_.window_seconds;
    const std::size_t off = begin - base_;
    for (std::size_t c = 0; c < sensors::kNumMics; ++c)
      w.audio.channels[c].assign(
          buffer_[c].begin() + static_cast<std::ptrdiff_t>(off),
          buffer_[c].begin() + static_cast<std::ptrdiff_t>(off + window_len_));
    out.push_back(std::move(w));
    ++next_window_;
    next_t0_ += config_.stride;
  }
  trim();
  return out;
}

void StreamingFeatureExtractor::save_state(std::ostream& os) const {
  using util::io::write_pod;
  write_pod(os, sensors::kMicSampleRate);
  write_pod(os, config_.settle);
  write_pod(os, config_.stride);
  write_pod(os, config_.window_seconds);
  write_pod(os, static_cast<std::uint64_t>(base_));
  write_pod(os, static_cast<std::uint64_t>(next_abs_));
  write_pod(os, static_cast<std::uint64_t>(next_window_));
  write_pod(os, next_t0_);
  for (const auto& ch : buffer_) util::io::write_pod_vec(os, ch);
}

bool StreamingFeatureExtractor::load_state(std::istream& is) {
  using util::io::read_pod;
  double sample_rate = 0.0, settle = 0.0, stride = 0.0, window_seconds = 0.0;
  if (!read_pod(is, sample_rate) || sample_rate != sensors::kMicSampleRate)
    return false;
  if (!read_pod(is, settle) || settle != config_.settle) return false;
  if (!read_pod(is, stride) || stride != config_.stride) return false;
  if (!read_pod(is, window_seconds) || window_seconds != config_.window_seconds)
    return false;
  std::uint64_t base = 0, next_abs = 0, next_window = 0;
  double next_t0 = 0.0;
  if (!read_pod(is, base) || !read_pod(is, next_abs) ||
      !read_pod(is, next_window) || !read_pod(is, next_t0))
    return false;
  std::array<std::vector<double>, sensors::kNumMics> buffer;
  for (auto& ch : buffer)
    if (!util::io::read_pod_vec(is, ch)) return false;
  // Cursor consistency: the buffer holds the stream tail [base_, next_abs_),
  // and the next window starts inside or after it (push copies from there).
  if (base > next_abs || buffer[0].size() != next_abs - base) return false;
  for (const auto& ch : buffer)
    if (ch.size() != buffer[0].size()) return false;
  if (!std::isfinite(next_t0) || window_begin(next_t0) < base) return false;
  base_ = static_cast<std::size_t>(base);
  next_abs_ = static_cast<std::size_t>(next_abs);
  next_window_ = static_cast<std::size_t>(next_window);
  next_t0_ = next_t0;
  buffer_ = std::move(buffer);
  return true;
}

}  // namespace sb::stream
