// Acoustic signature generation (paper §III-A).
//
// A signature is the model input for one time window: the 4 microphone
// channels are low-passed at 6 kHz (making ultrasonic IMU-injection
// carriers unreachable by construction), STFT'd, and reduced to banded
// log-magnitude features, giving a [channels x frames x bands] grid.
#pragma once

#include <string>

#include "acoustics/propagation.hpp"
#include "dsp/features.hpp"
#include "dsp/spectrogram.hpp"
#include "ml/tensor.hpp"

namespace sb::core {

// Provenance tag of the signature math: the low-pass, the STFT, its
// magnitudes and the band features.  Bump it whenever the signature of a
// given recording changes: model caches key their filenames on it
// (bench::cache_tag), so a front-end change retrains instead of loading
// weights fitted to superseded features.
std::string signature_schema_tag();

struct SignatureConfig {
  double window_seconds = 0.5;   // base analysis window (tuned in Tab. I)
  std::size_t frame_size = 1024; // STFT frame
  std::size_t target_frames = 14;  // fixed time resolution of the grid
  dsp::BandFeatureConfig bands;  // 32 bands up to 6 kHz by default
  double lowpass_hz = dsp::kPipelineCutoffHz;
  int lowpass_sections = 2;
};

// Model input dimensions implied by a signature configuration.
struct SignatureShape {
  std::size_t channels = 0;
  std::size_t frames = 0;
  std::size_t bands = 0;
};

SignatureShape signature_shape(const SignatureConfig& config);

// One analysis-window span on a flight's timeline.
struct WindowSpan {
  double t0 = 0.0;
  double t1 = 0.0;
};

// The canonical analysis-window grid: starts at `settle` (takeoff transient
// skipped), advances by `stride`, and keeps every window that fits before
// `duration`.  Offline windowing (DatasetBuilder, SensoryMapper::
// predict_windows) and the streaming extractor all enumerate THIS grid — one
// implementation, so the online and post-incident paths analyze
// bit-identical windows.
std::vector<WindowSpan> window_grid(double settle, double stride,
                                    double window_seconds, double duration);

// Window [t0, t0 + seconds) of a recording that starts at t = 0: the view
// of samples [llround(t0 * fs), + llround(seconds * fs)) — the rounding the
// synthesizer slices by and the streaming extractor emits — or an empty
// view when that range runs past the recording's end.
acoustics::AudioView recording_window(acoustics::AudioView recording, double t0,
                                      double seconds);

// Computes the signature of one audio window.  The window may be LONGER than
// the base window (time-shift augmentation): the STFT hop is stretched so the
// output grid always has exactly `target_frames` frames, exposing the whole
// (head-wind-lengthened) actuation process at the same resolution.
// Returns a [1, C, H, W] tensor ready to batch.  Training, offline analysis
// and serving all compute signatures here.
ml::Tensor compute_signature(acoustics::AudioView audio,
                             const SignatureConfig& config);

}  // namespace sb::core
