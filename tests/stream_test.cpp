#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/decision_trace.hpp"
#include "core/signature.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "stream/fleet_server.hpp"
#include "stream/inference_scheduler.hpp"
#include "stream/rca_session.hpp"
#include "stream/streaming_extractor.hpp"
#include "util/binary_io.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"

namespace sb::stream {
namespace {

// A deterministic pseudo-random multichannel stream (not flight audio; the
// extractor is pure index arithmetic and never inspects the waveform).
acoustics::MultiChannelAudio noise_stream(std::size_t n, std::uint64_t seed) {
  acoustics::MultiChannelAudio a;
  Rng rng{seed};
  for (auto& ch : a.channels) {
    ch.resize(n);
    for (auto& x : ch) x = rng.normal(0.0, 1.0);
  }
  return a;
}

acoustics::MultiChannelAudio slice(const acoustics::MultiChannelAudio& full,
                                   std::size_t begin, std::size_t end) {
  acoustics::MultiChannelAudio chunk;
  chunk.sample_rate = full.sample_rate;
  for (std::size_t c = 0; c < sensors::kNumMics; ++c)
    chunk.channels[c].assign(full.channels[c].begin() + begin,
                             full.channels[c].begin() + end);
  return chunk;
}

std::vector<WindowAudio> push_in_chunks(
    StreamingFeatureExtractor& ex, const acoustics::MultiChannelAudio& full,
    std::size_t chunk_size) {
  std::vector<WindowAudio> out;
  for (std::size_t i = 0; i < full.num_samples(); i += chunk_size) {
    const std::size_t end = std::min(i + chunk_size, full.num_samples());
    for (auto& w : ex.push(slice(full, i, end))) out.push_back(std::move(w));
  }
  return out;
}

TEST(StreamingExtractor, EmitsTheOfflineWindowGrid) {
  StreamingExtractorConfig cfg;  // 16 kHz, settle 2, stride 0.5, window 0.5
  StreamingFeatureExtractor ex{cfg};
  const double duration = 6.3;
  const auto n = static_cast<std::size_t>(
      std::llround(duration * sensors::kMicSampleRate));
  const auto full = noise_stream(n, 1);
  const auto windows = push_in_chunks(ex, full, 4096);

  const auto grid = core::window_grid(cfg.settle, cfg.stride,
                                      cfg.window_seconds, duration);
  ASSERT_EQ(windows.size(), grid.size());
  for (std::size_t k = 0; k < grid.size(); ++k) {
    EXPECT_DOUBLE_EQ(windows[k].t0, grid[k].t0);
    EXPECT_DOUBLE_EQ(windows[k].t1, grid[k].t1);
    // The emitted audio is the verbatim stream slice at the synthesizer's
    // index convention: begin = llround(t0 * fs), length = llround(w * fs).
    const auto begin = static_cast<std::size_t>(
        std::llround(grid[k].t0 * sensors::kMicSampleRate));
    ASSERT_EQ(windows[k].audio.num_samples(), ex.window_length());
    for (std::size_t c = 0; c < sensors::kNumMics; ++c)
      for (std::size_t i = 0; i < ex.window_length(); ++i)
        ASSERT_EQ(windows[k].audio.channels[c][i], full.channels[c][begin + i])
            << "window " << k << " ch " << c << " sample " << i;
  }
}

TEST(StreamingExtractor, ChunkSizeIsIrrelevant) {
  StreamingExtractorConfig cfg;
  const auto n =
      static_cast<std::size_t>(std::llround(4.7 * sensors::kMicSampleRate));
  const auto full = noise_stream(n, 2);

  StreamingFeatureExtractor whole{cfg};
  const auto ref = push_in_chunks(whole, full, n);  // one push
  ASSERT_FALSE(ref.empty());

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{1000}, std::size_t{16000}}) {
    StreamingFeatureExtractor ex{cfg};
    const auto got = push_in_chunks(ex, full, chunk);
    ASSERT_EQ(got.size(), ref.size()) << "chunk " << chunk;
    for (std::size_t k = 0; k < ref.size(); ++k) {
      EXPECT_DOUBLE_EQ(got[k].t0, ref[k].t0);
      for (std::size_t c = 0; c < sensors::kNumMics; ++c)
        ASSERT_EQ(got[k].audio.channels[c], ref[k].audio.channels[c])
            << "chunk " << chunk << " window " << k << " ch " << c;
    }
  }
}

TEST(StreamingExtractor, OverlappingStrideEmitsEveryGridWindow) {
  StreamingExtractorConfig cfg;
  cfg.stride = 0.25;  // windows overlap by half
  StreamingFeatureExtractor ex{cfg};
  const double duration = 5.0;
  const auto n = static_cast<std::size_t>(
      std::llround(duration * sensors::kMicSampleRate));
  const auto full = noise_stream(n, 3);
  const auto windows = push_in_chunks(ex, full, 777);

  const auto grid = core::window_grid(cfg.settle, cfg.stride,
                                      cfg.window_seconds, duration);
  ASSERT_EQ(windows.size(), grid.size());
  for (std::size_t k = 0; k < grid.size(); ++k) {
    EXPECT_DOUBLE_EQ(windows[k].t0, grid[k].t0);
    const auto begin = static_cast<std::size_t>(
        std::llround(grid[k].t0 * sensors::kMicSampleRate));
    for (std::size_t c = 0; c < sensors::kNumMics; ++c)
      for (std::size_t i = 0; i < ex.window_length(); ++i)
        ASSERT_EQ(windows[k].audio.channels[c][i], full.channels[c][begin + i]);
  }
}

TEST(StreamingExtractor, BufferStaysBoundedOnLongStreams) {
  StreamingExtractorConfig cfg;
  StreamingFeatureExtractor ex{cfg};
  const std::size_t chunk = 1600;  // 100 ms
  const auto window_plus_stride = static_cast<std::size_t>(std::llround(
      (cfg.window_seconds + cfg.stride) * sensors::kMicSampleRate));
  std::size_t emitted = 0;
  for (int tick = 0; tick < 600; ++tick) {  // one minute of stream
    emitted += ex.push(noise_stream(chunk, 100 + tick)).size();
    EXPECT_LE(ex.buffered_samples(), window_plus_stride + chunk);
  }
  EXPECT_GT(emitted, 100u);
  EXPECT_EQ(ex.samples_pushed(), 600 * chunk);
}

TEST(StreamingExtractor, RejectsRaggedChunks) {
  StreamingFeatureExtractor ex{StreamingExtractorConfig{}};
  auto chunk = noise_stream(64, 4);
  chunk.channels[1].pop_back();
  EXPECT_THROW(ex.push(chunk), std::invalid_argument);
}

// A 48 kHz chunk in a 16 kHz stream would be cut into windows a third as
// long and stamped as 16 kHz audio.
TEST(StreamingExtractor, RejectsChunksAtAnotherSampleRate) {
  StreamingFeatureExtractor ex{StreamingExtractorConfig{}};
  auto chunk = noise_stream(48000, 5);
  chunk.sample_rate = 48000.0;
  EXPECT_THROW(ex.push(chunk), std::invalid_argument);
  EXPECT_EQ(ex.samples_pushed(), 0u);
  chunk.sample_rate = sensors::kMicSampleRate;
  EXPECT_FALSE(ex.push(chunk).empty());
}

// A checkpoint whose next-window cursor points before the buffered tail
// must not restore: the next push would copy that window from before the
// buffer.
TEST(StreamingExtractor, LoadStateRejectsACursorBeforeTheBuffer) {
  const StreamingExtractorConfig cfg;
  StreamingFeatureExtractor ex{cfg};
  ex.push(noise_stream(64000, 6));  // 4 s
  std::ostringstream os{std::ios::binary};
  ex.save_state(os);
  const std::string bytes = os.str();
  // Four config doubles, then base, next_abs, next_window and next_t0.
  constexpr std::size_t kNextT0At = 4 * sizeof(double) + 3 * sizeof(std::uint64_t);
  double next_t0 = 0.0;
  std::memcpy(&next_t0, bytes.data() + kNextT0At, sizeof next_t0);
  ASSERT_EQ(next_t0, 4.0);  // settle 2 s + 4 strides of 0.5 s
  const auto load_with = [&](double t0) {
    std::string forged = bytes;
    std::memcpy(forged.data() + kNextT0At, &t0, sizeof t0);
    std::istringstream is{forged, std::ios::binary};
    StreamingFeatureExtractor fresh{cfg};
    return fresh.load_state(is);
  };
  EXPECT_FALSE(load_with(0.0));
  EXPECT_FALSE(load_with(3.5));
  EXPECT_FALSE(load_with(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_FALSE(load_with(std::numeric_limits<double>::infinity()));
  EXPECT_TRUE(load_with(next_t0));
}

// ---------------------------------------------------------------------------
// Session + scheduler structure.  One tiny MLP trained on a single short
// flight is enough: these tests pin ordering, backpressure and error paths,
// not detection quality (that is the integration suite's job).

class StreamServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::SensoryMapperConfig cfg;
    cfg.model = ml::ModelKind::kMlp;
    cfg.dataset.stride = 0.5;
    cfg.train.epochs = 1;
    mapper_ = new core::SensoryMapper{cfg};
    lab_ = new core::FlightLab{};
    core::FlightScenario s;
    s.mission = sim::Mission::hover({0, 0, -10}, 10.0);
    s.seed = 99;
    flight_ = new core::Flight{lab_->fly(s)};
    const std::vector<core::Flight> flights{*flight_};
    mapper_->fit(*lab_, flights);
    audio_ = new acoustics::MultiChannelAudio{
        lab_->synthesizer(*flight_).synthesize(flight_->log, 0.0, 10.0)};
    // Calibrate both detector stages on the same flight — threshold quality
    // is irrelevant here, but sessions require calibrated detectors.
    const std::vector<std::vector<core::TimedPrediction>> preds{
        mapper_->predict_flight(*lab_, *flight_)};
    det_ = new core::CalibratedDetectors{core::calibrate_detectors(flights, preds)};
  }
  static void TearDownTestSuite() {
    delete det_;
    delete audio_;
    delete flight_;
    delete lab_;
    delete mapper_;
  }

  RcaSession make_session(std::uint64_t id) {
    return RcaSession{id, *mapper_, det_->imu, det_->gps};
  }

  // Pushes the shared flight's streams into the session up to `seconds`.
  void feed(RcaSession& session, double seconds) {
    const auto upto = std::min(
        static_cast<std::size_t>(std::llround(seconds * audio_->sample_rate)),
        audio_->num_samples());
    session.push_audio(slice(*audio_, 0, upto));
    session.push_imu(flight_->log.imu);
    session.push_gps(flight_->log.gps);
  }

  // Incremental variant: pushes only the [t0, t1) stretch of every stream,
  // so a session can be fed in phases (checkpoint mid-flight, then resume).
  void feed_range(RcaSession& session, double t0, double t1) {
    const auto lo = std::min(
        static_cast<std::size_t>(std::llround(t0 * audio_->sample_rate)),
        audio_->num_samples());
    const auto hi = std::min(
        static_cast<std::size_t>(std::llround(t1 * audio_->sample_rate)),
        audio_->num_samples());
    if (hi > lo) session.push_audio(slice(*audio_, lo, hi));
    const auto& imu = flight_->log.imu;
    std::size_t ia = 0, ib = 0;
    while (ia < imu.size() && imu[ia].t < t0) ++ia;
    ib = ia;
    while (ib < imu.size() && imu[ib].t < t1) ++ib;
    session.push_imu(std::span{imu}.subspan(ia, ib - ia));
    const auto& gps = flight_->log.gps;
    std::size_t ga = 0, gb = 0;
    while (ga < gps.size() && gps[ga].t < t0) ++ga;
    gb = ga;
    while (gb < gps.size() && gps[gb].t < t1) ++gb;
    session.push_gps(std::span{gps}.subspan(ga, gb - ga));
  }

  static core::SensoryMapper* mapper_;
  static core::FlightLab* lab_;
  static core::Flight* flight_;
  static acoustics::MultiChannelAudio* audio_;
  static core::CalibratedDetectors* det_;
};

core::SensoryMapper* StreamServingTest::mapper_ = nullptr;
core::FlightLab* StreamServingTest::lab_ = nullptr;
core::Flight* StreamServingTest::flight_ = nullptr;
acoustics::MultiChannelAudio* StreamServingTest::audio_ = nullptr;
core::CalibratedDetectors* StreamServingTest::det_ = nullptr;

TEST_F(StreamServingTest, SessionRequiresTrainedMapper) {
  core::SensoryMapper untrained{core::SensoryMapperConfig{}};
  EXPECT_THROW(RcaSession(1, untrained, det_->imu, det_->gps), std::logic_error);
}

TEST_F(StreamServingTest, SchedulerRejectsDegenerateConfigAndDuplicateIds) {
  EXPECT_THROW(InferenceScheduler(*mapper_, {.max_batch = 0}),
               std::invalid_argument);
  EXPECT_THROW(InferenceScheduler(*mapper_, {.queue_capacity = 0}),
               std::invalid_argument);
  auto a = make_session(7);
  auto b = make_session(7);
  InferenceScheduler sched{*mapper_};
  sched.attach(a);
  EXPECT_THROW(sched.attach(b), std::invalid_argument);
}

TEST_F(StreamServingTest, DrainsAllSessionsAndDeliversInOrder) {
  auto a = make_session(2);
  auto b = make_session(1);
  const auto occupancy_before =
      obs::Registry::instance().histogram("stream.batch_occupancy").count();
  InferenceScheduler sched{*mapper_};
  sched.attach(a);
  sched.attach(b);
  feed(a, 8.0);
  feed(b, 8.0);
  ASSERT_GT(a.windows_staged(), 0u);
  sched.drain();
  EXPECT_EQ(sched.windows_shed(), 0u);
  EXPECT_EQ(sched.windows_inferred(), a.windows_staged() + b.windows_staged());
  EXPECT_EQ(a.windows_delivered(), a.windows_staged());
  EXPECT_EQ(b.windows_delivered(), b.windows_staged());
  // The scheduler surfaces its own load: one occupancy sample per batch,
  // each within [1, max_batch], and a live-session gauge.
  const auto occupancy =
      obs::Registry::instance().histogram("stream.batch_occupancy").snapshot();
  EXPECT_EQ(occupancy.count - occupancy_before, sched.batches_run());
  EXPECT_GE(occupancy.min, 1.0);
  EXPECT_LE(occupancy.max, 16.0);  // default max_batch
  EXPECT_EQ(obs::Registry::instance().gauge("stream.sessions_active").value(),
            2.0);
  // Verdict timestamps are monotonically non-decreasing per session.
  for (auto* s : {&a, &b}) {
    double last = 0.0;
    for (const auto& e : s->poll_verdicts()) {
      EXPECT_GE(e.decided_at, last);
      last = e.decided_at;
    }
    const auto report = s->finish();
    EXPECT_GT(report.health.windows_total, 0u);
  }
}

TEST_F(StreamServingTest, OverflowShedsOldestAndEngagesDegradation) {
  auto a = make_session(1);
  // Capacity 2: staging a whole flight's windows at once forces shedding,
  // and the shed windows must be the OLDEST staged ones.
  InferenceScheduler sched{*mapper_, {.max_batch = 2, .queue_capacity = 2}};
  sched.attach(a);
  feed(a, 10.0);
  const std::size_t staged = a.windows_staged();
  ASSERT_GT(staged, 4u);
  const std::size_t inferred = sched.pump();
  EXPECT_EQ(inferred, 2u);
  EXPECT_EQ(sched.windows_shed(), staged - 2);
  // Every staged window was delivered exactly once (shed ones as NaN).
  EXPECT_EQ(a.windows_delivered(), staged);
  sched.drain();
  const auto report = a.finish();
  // Shed windows flow through the non-finite degradation path: their IMU
  // samples are dropped and every shed window is skipped as evidence (the
  // two real inferences — the newest windows, since shedding drops the
  // queue front — still contribute), never silently lost.
  EXPECT_GT(report.health.imu_samples_nonfinite, 0u);
  EXPECT_EQ(report.health.imu_windows_skipped, staged - 2);
}

// Windows held past the 1 s p99 latency target before the pump: every
// delivery lands in the window->verdict histogram, and each one is a breach
// in the session's black box, against the same 1 s target.
TEST_F(StreamServingTest, DeliveriesPastTheP99TargetAreBreaches) {
  // Black boxes dump to the working directory by default; keep them in a
  // temporary one.
  const auto cwd = std::filesystem::current_path();
  const auto dir = std::filesystem::path{::testing::TempDir()} / "sb_slo_breach";
  std::filesystem::create_directories(dir);
  std::filesystem::current_path(dir);
  obs::set_recorder_enabled(true);
  auto a = make_session(23);
  obs::set_recorder_enabled(false);
  ASSERT_NE(a.recorder(), nullptr);

  auto& latency =
      obs::Registry::instance().histogram("stream.window_to_verdict_seconds");
  const auto latency_before = latency.count();
  auto& breach_count = obs::Registry::instance().counter("stream.slo_breaches");
  const auto breaches_before = breach_count.value();
  InferenceScheduler sched{*mapper_};
  sched.attach(a);
  feed(a, 5.0);
  const std::size_t staged = a.windows_staged();
  ASSERT_GT(staged, 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  sched.drain();
  ASSERT_EQ(a.windows_delivered(), staged);
  EXPECT_EQ(latency.count() - latency_before, staged);
  EXPECT_EQ(breach_count.value() - breaches_before, staged);

  std::size_t breaches = 0;
  for (const auto& e : a.recorder()->events()) {
    if (e.kind != obs::RecorderEvent::Kind::kSloBreach) continue;
    ++breaches;
    EXPECT_GT(e.v0, 1.0);
    EXPECT_EQ(e.v1, 1.0);
  }
  EXPECT_EQ(breaches, staged);
  EXPECT_TRUE(std::filesystem::exists(a.recorder()->dump_path()));
  std::filesystem::current_path(cwd);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Detach / bounded drain (migration + overload-robustness surfaces).

TEST_F(StreamServingTest, DetachRejectsUnknownAndInFlightSessions) {
  auto a = make_session(11);
  auto b = make_session(12);
  InferenceScheduler sched{*mapper_};
  sched.attach(a);
  EXPECT_THROW(sched.detach(b), std::invalid_argument);
  feed(a, 6.0);
  ASSERT_GT(a.windows_staged(), a.windows_delivered());
  // In-flight windows would be stranded by a detach — refuse loudly.
  EXPECT_THROW(sched.detach(a), std::logic_error);
  sched.drain();
  sched.detach(a);
  EXPECT_EQ(sched.sessions_attached(), 0u);
  EXPECT_THROW(sched.detach(a), std::invalid_argument);
}

TEST_F(StreamServingTest, DetachedSessionMigratesToAnotherScheduler) {
  auto a = make_session(13);
  InferenceScheduler first{*mapper_};
  first.attach(a);
  feed_range(a, 0.0, 5.0);
  first.drain();
  first.detach(a);
  // The second scheduler picks the session up mid-flight and serves the
  // rest; the session never notices the migration.
  InferenceScheduler second{*mapper_};
  second.attach(a);
  feed_range(a, 5.0, 10.0);
  second.drain();
  EXPECT_EQ(a.windows_delivered(), a.windows_staged());
  EXPECT_GT(second.windows_inferred(), 0u);
  const auto report = a.finish();
  EXPECT_GT(report.health.windows_total, 0u);
}

TEST_F(StreamServingTest, BoundedDrainAbortsOnExcessProgress) {
  auto a = make_session(14);
  InferenceScheduler sched{*mapper_, {.max_batch = 2}};
  sched.attach(a);
  feed(a, 10.0);
  ASSERT_GT(a.windows_staged(), 3u);
  const auto aborts_before =
      obs::Registry::instance().counter("stream.drain_aborts").value();
  // A one-window budget cannot cover the backlog: the drain must terminate
  // anyway (returning false) instead of looping, and count the abort.
  EXPECT_FALSE(sched.drain(1));
  EXPECT_EQ(obs::Registry::instance().counter("stream.drain_aborts").value(),
            aborts_before + 1);
  // An adequate budget (the default: the current backlog) finishes the job.
  EXPECT_TRUE(sched.drain());
  EXPECT_EQ(a.windows_delivered(), a.windows_staged());
}

// ---------------------------------------------------------------------------
// Evidence thinning (degraded admissions).

TEST_F(StreamServingTest, EvidenceThinningDeliversEveryWindowWithoutInference) {
  RcaSessionConfig config;
  config.evidence_stride = 2;
  RcaSession a{15, *mapper_, det_->imu, det_->gps, config};
  InferenceScheduler sched{*mapper_};
  sched.attach(a);
  feed(a, 10.0);
  const std::size_t staged = a.windows_staged();
  ASSERT_GT(staged, 4u);
  sched.drain();
  // Every window is delivered in seq order; the off-stride ones as NaN
  // without consuming inference capacity.
  EXPECT_EQ(a.windows_delivered(), staged);
  const std::size_t expect_inferred = (staged + 1) / 2;  // seq 0, 2, 4, ...
  EXPECT_EQ(sched.windows_inferred(), expect_inferred);
  EXPECT_EQ(sched.windows_thinned(), staged - expect_inferred);
  EXPECT_EQ(sched.windows_shed(), 0u);
  const auto report = a.finish();
  // Thinned windows flow through the same degradation accounting as shed
  // ones: skipped as IMU evidence, never silently lost.
  EXPECT_GE(report.health.imu_windows_skipped, staged - expect_inferred);
}

// ---------------------------------------------------------------------------
// Checkpoint / restore (SBSESS01).

std::string slurp(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

void spew(const std::string& path, const std::string& bytes) {
  std::ofstream os{path, std::ios::binary};
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(StreamServingTest, CheckpointRequiresQuiescence) {
  auto a = make_session(16);
  InferenceScheduler sched{*mapper_};
  sched.attach(a);
  feed(a, 6.0);
  ASSERT_GT(a.windows_staged(), a.windows_delivered());
  const std::string path = ::testing::TempDir() + "sb_quiescence.sbsess";
  EXPECT_THROW(a.checkpoint(path), std::logic_error);
  sched.drain();
  EXPECT_TRUE(a.checkpoint(path));
  const auto restored = RcaSession::restore(path, *mapper_, det_->imu, det_->gps);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->id(), 16u);
  sched.detach(a);
  a.finish();
  EXPECT_THROW(a.checkpoint(path), std::logic_error);
}

TEST_F(StreamServingTest, CheckpointRejectsCorruptFiles) {
  auto a = make_session(17);
  InferenceScheduler sched{*mapper_};
  sched.attach(a);
  feed(a, 6.0);
  sched.drain();
  const std::string path = ::testing::TempDir() + "sb_corrupt.sbsess";
  ASSERT_TRUE(a.checkpoint(path));
  const std::string bytes = slurp(path);
  ASSERT_GT(bytes.size(), 64u);

  auto& rejected = obs::Registry::instance().counter("stream.checkpoint_rejected");
  const auto rejected_before = rejected.value();
  std::size_t attempts = 0;
  const auto expect_rejected = [&](std::string corrupt, const char* what) {
    spew(path, corrupt);
    EXPECT_EQ(RcaSession::restore(path, *mapper_, det_->imu, det_->gps), nullptr)
        << what;
    ++attempts;
  };
  for (const std::size_t keep :
       {bytes.size() - 1, bytes.size() / 2, std::size_t{10}})
    expect_rejected(bytes.substr(0, keep), "truncated file");
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x10;
  expect_rejected(flipped, "bit flip in the payload");
  std::string magic = bytes;
  magic[0] ^= 0xFF;
  expect_rejected(magic, "foreign magic");
  std::string version = bytes;
  version[8] ^= 0xFF;  // format version lives right after the 8-byte magic
  expect_rejected(version, "version skew");
  // A version-2 file (dense KF matrices in place of velocity and variance)
  // is version skew too, even with its CRC intact.
  std::string v2 = bytes;
  const std::uint32_t two = 2;
  std::memcpy(v2.data() + 8, &two, sizeof two);
  expect_rejected(v2, "previous format version");
  // A CRC-valid payload whose next-window cursor points before the buffered
  // audio.  After the 24-byte frame header come the id, evidence stride,
  // sample rate and chunk count, then the extractor's four config doubles,
  // base, next_abs, next_window and next_t0.
  std::string cursor = bytes;
  constexpr std::size_t kExtractorAt = 24 + 4 * 8;
  constexpr std::size_t kNextT0At = kExtractorAt + 4 * 8 + 3 * 8;
  double fs = 0.0, next_t0 = 0.0;
  std::memcpy(&fs, cursor.data() + kExtractorAt, sizeof fs);
  std::memcpy(&next_t0, cursor.data() + kNextT0At, sizeof next_t0);
  ASSERT_EQ(fs, audio_->sample_rate);
  ASSERT_GT(next_t0, 5.0);
  const double forged_t0 = 0.0;
  std::memcpy(cursor.data() + kNextT0At, &forged_t0, sizeof forged_t0);
  const std::uint32_t crc = util::crc32(cursor.data() + 24, cursor.size() - 24);
  std::memcpy(cursor.data() + 20, &crc, sizeof crc);
  expect_rejected(cursor, "window cursor before the buffered audio");
  EXPECT_EQ(rejected.value(), rejected_before + attempts);

  // The pristine bytes still restore — the harness, not the format, was
  // rejecting above.
  spew(path, bytes);
  const auto restored = RcaSession::restore(path, *mapper_, det_->imu, det_->gps);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->id(), 17u);
}

// A crafted checkpoint: its CRC is recomputed, so only the payload parser
// stands between a hostile length prefix and the allocator.
TEST_F(StreamServingTest, RestoreRejectsOversizedLengthPrefixWithoutThrowing) {
  auto a = make_session(19);
  InferenceScheduler sched{*mapper_};
  sched.attach(a);
  feed(a, 6.0);
  sched.drain();
  a.poll_verdicts();
  const std::string path = ::testing::TempDir() + "sb_oversized.sbsess";
  ASSERT_TRUE(a.checkpoint(path));
  std::string bytes = slurp(path);
  ASSERT_GT(bytes.size(), 24u);

  // Frame header: magic(8) version(4) size(8) crc(4).  With the verdict
  // backlog polled empty, the payload ends with the backlog's zero length
  // prefix and the window health tally.
  std::string payload = bytes.substr(24);
  const std::size_t prefix_at =
      payload.size() - sizeof(faults::HealthReport) - sizeof(std::uint64_t);
  std::uint64_t count = 1;
  std::memcpy(&count, payload.data() + prefix_at, sizeof count);
  ASSERT_EQ(count, 0u);
  count = (std::uint64_t{1} << 32) - 1;  // ~2^32 events: far past the file
  std::memcpy(payload.data() + prefix_at, &count, sizeof count);
  const std::uint32_t crc = util::crc32(payload.data(), payload.size());
  std::memcpy(bytes.data() + 20, &crc, sizeof crc);
  bytes.replace(24, payload.size(), payload);
  spew(path, bytes);

  std::unique_ptr<RcaSession> restored;
  EXPECT_NO_THROW(restored = RcaSession::restore(path, *mapper_, det_->imu, det_->gps));
  EXPECT_EQ(restored, nullptr);
}

// Two sessions fed the same streams write the same checkpoint bytes,
// verdict backlog and decision records included.
TEST_F(StreamServingTest, IdenticalSessionsWriteIdenticalCheckpoints) {
  std::string files[2];
  for (std::size_t i = 0; i < 2; ++i) {
    auto a = make_session(25);
    InferenceScheduler sched{*mapper_};
    sched.attach(a);
    feed(a, 6.0);
    sched.drain();
    const std::string path =
        ::testing::TempDir() + "sb_same_" + std::to_string(i) + ".sbsess";
    ASSERT_TRUE(a.checkpoint(path));
    files[i] = slurp(path);
  }
  ASSERT_EQ(files[0].size(), files[1].size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < files[0].size(); ++i)
    differing += files[0][i] != files[1][i] ? 1 : 0;
  EXPECT_EQ(differing, 0u) << "of " << files[0].size() << " bytes";
}

// A CRC-valid checkpoint whose verdict backlog holds a bool byte other than
// 0 or 1 is rejected before the byte is read as a bool.
TEST_F(StreamServingTest, RestoreRejectsABoolByteOtherThanZeroOrOne) {
  auto a = make_session(27);
  InferenceScheduler sched{*mapper_};
  sched.attach(a);
  feed(a, 6.0);
  sched.drain();
  const std::string path = ::testing::TempDir() + "sb_bool.sbsess";
  ASSERT_TRUE(a.checkpoint(path));
  const std::string bytes = slurp(path);
  const auto pristine = RcaSession::restore(path, *mapper_, det_->imu, det_->gps);
  ASSERT_NE(pristine, nullptr);
  const std::size_t backlog = pristine->poll_verdicts().size();
  ASSERT_GT(backlog, 0u);

  // Frame header: magic(8) version(4) size(8) crc(4).  The payload ends with
  // the backlog (a count, then 160-byte events) and the window health tally.
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::memcpy(&magic, bytes.data(), sizeof magic);
  std::memcpy(&version, bytes.data() + 8, sizeof version);
  const std::string payload = bytes.substr(24);
  constexpr std::size_t kEventBytes = 160;
  const std::size_t events_at =
      payload.size() - sizeof(faults::HealthReport) - backlog * kEventBytes;
  std::uint64_t count = 0;
  std::memcpy(&count, payload.data() + events_at - sizeof count, sizeof count);
  ASSERT_EQ(count, backlog);

  // The first event's bools: imu_attacked, the IMU decision's flagged and
  // alert, the GPS decision's four hit/alert/reset flags.
  auto& rejected = obs::Registry::instance().counter("stream.checkpoint_rejected");
  for (const std::size_t at : {16, 104, 105, 152, 153, 154, 155}) {
    std::string forged = payload;
    ASSERT_LE(static_cast<unsigned char>(forged[events_at + at]), 1u) << at;
    forged[events_at + at] = 2;
    std::ofstream os{path, std::ios::binary | std::ios::trunc};
    util::io::write_frame(os, magic, version, forged);
    os.close();
    const auto before = rejected.value();
    EXPECT_FALSE(RcaSession::restore(path, *mapper_, det_->imu, det_->gps))
        << "bool byte at event offset " << at;
    EXPECT_EQ(rejected.value(), before + 1) << at;
  }
}

void expect_same_verdicts(const std::vector<VerdictEvent>& x,
                          const std::vector<VerdictEvent>& y) {
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(x[i].kind, y[i].kind) << "event " << i;
    EXPECT_EQ(x[i].decided_at, y[i].decided_at) << "event " << i;
    EXPECT_EQ(x[i].imu_attacked, y[i].imu_attacked) << "event " << i;
    EXPECT_EQ(x[i].gps_mode, y[i].gps_mode) << "event " << i;
    EXPECT_EQ(x[i].imu.score, y[i].imu.score) << "event " << i;
    EXPECT_EQ(x[i].imu.flagged, y[i].imu.flagged) << "event " << i;
    EXPECT_EQ(x[i].gps.running_mean_err, y[i].gps.running_mean_err)
        << "event " << i;
    EXPECT_EQ(x[i].gps.pos_dev, y[i].gps.pos_dev) << "event " << i;
    EXPECT_EQ(x[i].gps.alert, y[i].gps.alert) << "event " << i;
  }
}

void expect_same_reports(const core::RcaReport& x, const core::RcaReport& y) {
  EXPECT_EQ(x.imu_attacked, y.imu_attacked);
  EXPECT_EQ(x.imu_detect_time, y.imu_detect_time);
  EXPECT_EQ(x.gps_attacked, y.gps_attacked);
  EXPECT_EQ(x.gps_detect_time, y.gps_detect_time);
  EXPECT_EQ(x.gps_mode_used, y.gps_mode_used);
  EXPECT_EQ(x.health.windows_total, y.health.windows_total);
  EXPECT_EQ(x.health.imu_samples_total, y.health.imu_samples_total);
  EXPECT_EQ(x.health.imu_windows_skipped, y.health.imu_windows_skipped);
  EXPECT_EQ(x.health.gps_fixes_total, y.health.gps_fixes_total);
  EXPECT_EQ(x.health.gps_coast_seconds, y.health.gps_coast_seconds);
}

TEST_F(StreamServingTest, CheckpointRestoreResumesBitwise) {
  // Control: one uninterrupted session over the whole flight, fed in the
  // same two phases.
  auto control = make_session(18);
  InferenceScheduler control_sched{*mapper_};
  control_sched.attach(control);
  feed_range(control, 0.0, 5.0);
  control_sched.drain();
  auto control_events = control.poll_verdicts();
  feed_range(control, 5.0, 10.0);
  control_sched.drain();
  for (auto& e : control.poll_verdicts()) control_events.push_back(e);

  // Subject: checkpoint at the phase boundary, restore into a NEW session
  // object on a NEW scheduler, serve the identical second phase.
  auto subject = make_session(18);
  InferenceScheduler before_sched{*mapper_};
  before_sched.attach(subject);
  feed_range(subject, 0.0, 5.0);
  before_sched.drain();
  auto subject_events = subject.poll_verdicts();
  const std::string path = ::testing::TempDir() + "sb_resume.sbsess";
  ASSERT_TRUE(subject.checkpoint(path));

  const auto resumed = RcaSession::restore(path, *mapper_, det_->imu, det_->gps);
  ASSERT_NE(resumed, nullptr);
  InferenceScheduler after_sched{*mapper_};
  after_sched.attach(*resumed);
  feed_range(*resumed, 5.0, 10.0);
  after_sched.drain();
  for (auto& e : resumed->poll_verdicts()) subject_events.push_back(e);

  expect_same_verdicts(control_events, subject_events);
  const auto expected = control.finish();
  const auto actual = resumed->finish();
  expect_same_reports(expected, actual);
}

// A checkpoint holds what the session still needs, not the flight so far.
// Until the IMU stage holds its baseline it keeps the reference windows'
// residuals, so the test checkpoints at every whole second (one phase of
// the window grid) from the first IMU window decision on.  The monitor then
// holds the sensor samples from the last window's start on, plus a read
// prefix it drops once that prefix is at least half its buffer, so the
// checkpoints may differ by one window of IMU samples and GPS fixes plus
// the decision records of the seconds between them (both GPS variants),
// but not by those seconds' samples (the IMU's alone are 200 Hz x 80 B =
// 16 KB per second).
TEST_F(StreamServingTest, CheckpointSizeDoesNotGrowWithFlightAge) {
  auto a = make_session(21);
  InferenceScheduler sched{*mapper_};
  sched.attach(a);
  bool baseline = false;
  std::vector<double> sizes;
  for (std::size_t chunk = 1; chunk <= 100; ++chunk) {
    feed_range(a, 0.1 * static_cast<double>(chunk - 1),
               0.1 * static_cast<double>(chunk));
    sched.pump();
    if (chunk % 10 != 0) continue;
    sched.drain();
    for (const auto& e : a.poll_verdicts())
      baseline = baseline || e.kind == VerdictEvent::Kind::kImuWindow;
    if (!baseline) continue;
    const std::string path = ::testing::TempDir() + "sb_age.sbsess";
    ASSERT_TRUE(a.checkpoint(path));
    sizes.push_back(static_cast<double>(std::filesystem::file_size(path)));
  }
  ASSERT_GE(sizes.size(), 3u);
  const auto& rates = lab_->config().rates;
  const auto& dataset = mapper_->config().dataset;
  const double seconds = static_cast<double>(sizes.size() - 1);
  const double window = dataset.signature.window_seconds *
                        (rates.imu_hz * sizeof(sim::ImuSample) +
                         rates.gps_hz * sizeof(sim::GpsSample));
  const double records =
      seconds * (sizeof(core::ImuWindowDecision) / dataset.stride +
                 2.0 * rates.gps_hz * sizeof(core::GpsFixDecision));
  const auto [lo, hi] = std::minmax_element(sizes.begin(), sizes.end());
  std::ostringstream seen;
  for (const double b : sizes) seen << ' ' << b;
  EXPECT_LT(*hi - *lo, window + records) << "bytes, one a second:" << seen.str();
}

// ---------------------------------------------------------------------------
// Fleet server: shard assignment, admission control, migration.

TEST(FleetShard, AssignmentIsPureDeterministicAndCovers) {
  for (const std::uint64_t id : {0ull, 1ull, 42ull, 1ull << 63}) {
    EXPECT_EQ(FleetServer::shard_of(id, 4), FleetServer::shard_of(id, 4));
    EXPECT_LT(FleetServer::shard_of(id, 4), 4u);
    EXPECT_EQ(FleetServer::shard_of(id, 1), 0u);
  }
  // Dense id ranges (the common fleet pattern) must spread across shards,
  // not stripe into one.
  std::vector<std::size_t> hits(4, 0);
  for (std::uint64_t id = 0; id < 256; ++id)
    ++hits[FleetServer::shard_of(id, 4)];
  for (std::size_t k = 0; k < 4; ++k)
    EXPECT_GT(hits[k], 16u) << "shard " << k;
}

TEST_F(StreamServingTest, FleetAdmissionAdmitsAndDegrades) {
  FleetServerConfig config;
  config.num_shards = 2;
  config.degrade_sessions_per_shard = 1;
  FleetServer fleet{*mapper_, det_->imu, det_->gps, config};

  // Three ids that land on the SAME shard: the first is admitted with full
  // evidence, every later one with the degraded stride.
  std::vector<std::uint64_t> ids;
  const std::size_t shard = FleetServer::shard_of(100, 2);
  for (std::uint64_t id = 100; ids.size() < 3; ++id)
    if (FleetServer::shard_of(id, 2) == shard) ids.push_back(id);

  const auto first = fleet.admit(ids[0]);
  EXPECT_EQ(first.verdict, Admission::kAdmitted);
  EXPECT_EQ(first.shard, shard);
  ASSERT_NE(first.session, nullptr);
  EXPECT_EQ(first.session->config().evidence_stride, 1u);

  for (const std::uint64_t id : {ids[1], ids[2]}) {
    const auto later = fleet.admit(id);
    EXPECT_EQ(later.verdict, Admission::kDegraded);
    EXPECT_EQ(later.shard, shard);
    ASSERT_NE(later.session, nullptr);
    EXPECT_EQ(later.session->config().evidence_stride, kDegradedEvidenceStride);
  }

  EXPECT_THROW(fleet.admit(ids[0]), std::invalid_argument);
  EXPECT_EQ(fleet.find(ids[0]), first.session);
  EXPECT_EQ(fleet.sessions_live(), 3u);
}

TEST_F(StreamServingTest, FleetServingMatchesShardedStandaloneBitwise) {
  // Reference: standalone schedulers with the SAME session->shard mapping
  // and pump pattern as the fleet, serving serially on the shared trained
  // mapper.  The fleet adds parallel shard pumps — concurrent eval forwards
  // on that one mapper — and scoped metrics on top, none of which may
  // change a single bit of any verdict.  (Queue composition must match
  // between the two sides: GPS fix->window attribution legitimately depends
  // on how deliveries interleave with pushes, so comparing different
  // queueing layouts — e.g. one shared queue vs shards — compares different
  // serving schedules.)
  constexpr std::size_t kShards = 3;
  FleetServerConfig config;
  config.num_shards = kShards;
  FleetServer fleet{*mapper_, det_->imu, det_->gps, config};
  const std::vector<std::uint64_t> ids{1, 2, 3, 4};
  std::vector<RcaSession*> fleet_sessions;
  for (const auto id : ids)
    fleet_sessions.push_back(fleet.admit(id).session);

  std::vector<RcaSession> solo_sessions;
  solo_sessions.reserve(ids.size());
  for (const auto id : ids) solo_sessions.push_back(make_session(id));
  std::vector<InferenceScheduler> solo_shards;
  solo_shards.reserve(kShards);
  for (std::size_t k = 0; k < kShards; ++k) solo_shards.emplace_back(*mapper_);
  for (std::size_t i = 0; i < ids.size(); ++i)
    solo_shards[FleetServer::shard_of(ids[i], kShards)].attach(
        solo_sessions[i]);

  for (const double t : {2.5, 5.0, 7.5, 10.0}) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      feed_range(*fleet_sessions[i], t - 2.5, t);
      feed_range(solo_sessions[i], t - 2.5, t);
    }
    fleet.pump();
    for (auto& sched : solo_shards) sched.pump();
  }
  EXPECT_TRUE(fleet.drain());
  for (auto& sched : solo_shards) sched.drain();
  EXPECT_EQ(fleet.windows_shed(), 0u);

  for (std::size_t i = 0; i < ids.size(); ++i) {
    expect_same_verdicts(solo_sessions[i].poll_verdicts(),
                         fleet_sessions[i]->poll_verdicts());
    const auto solo_report = solo_sessions[i].finish();
    const auto fleet_report = fleet.finish(ids[i]);
    expect_same_reports(solo_report, fleet_report);
  }
  EXPECT_EQ(fleet.sessions_live(), 0u);
}

TEST_F(StreamServingTest, FleetCheckpointAllCreatesItsDirectoryAndRestoresBitwise) {
  // A restart-recovery run hands checkpoint_all a directory that does not
  // exist yet; the fleet must create it, and a fresh fleet restoring from it
  // must finish the flight exactly as an uninterrupted fleet does.
  const std::vector<std::uint64_t> ids{31, 32};
  FleetServerConfig config;
  config.num_shards = 2;
  FleetServer control{*mapper_, det_->imu, det_->gps, config};
  FleetServer before{*mapper_, det_->imu, det_->gps, config};
  for (const auto id : ids) {
    feed_range(*control.admit(id).session, 0.0, 5.0);
    feed_range(*before.admit(id).session, 0.0, 5.0);
  }
  control.pump();
  before.pump();
  // checkpoint_all drains first; drain the control at the same point so
  // both fleets see one delivery schedule.
  EXPECT_TRUE(control.drain());

  const std::filesystem::path dir = std::filesystem::path{::testing::TempDir()} /
                                    "sb_fleet_ckpt" / "nested" / "run";
  std::filesystem::remove_all(dir.parent_path().parent_path());
  ASSERT_EQ(before.checkpoint_all(dir.string()), ids.size());

  FleetServer after{*mapper_, det_->imu, det_->gps, config};
  for (const auto id : ids) {
    const auto res =
        after.restore((dir / ("SESSION_" + std::to_string(id) + ".sbsess")).string());
    ASSERT_NE(res.session, nullptr) << "session " << id;
    feed_range(*res.session, 5.0, 10.0);
    feed_range(*control.find(id), 5.0, 10.0);
  }
  control.pump();
  after.pump();
  EXPECT_TRUE(control.drain());
  EXPECT_TRUE(after.drain());
  for (const auto id : ids) {
    expect_same_verdicts(control.find(id)->poll_verdicts(),
                         after.find(id)->poll_verdicts());
    expect_same_reports(control.finish(id), after.finish(id));
  }
  std::filesystem::remove_all(dir.parent_path().parent_path());
}

TEST_F(StreamServingTest, FleetRestoreMigratesSessionsAcrossShardLayouts) {
  // Checkpoint from a standalone scheduler (a "one-shard" server)...
  auto a = make_session(19);
  InferenceScheduler sched{*mapper_};
  sched.attach(a);
  feed_range(a, 0.0, 5.0);
  sched.drain();
  const std::string path = ::testing::TempDir() + "sb_migrate.sbsess";
  ASSERT_TRUE(a.checkpoint(path));

  // ...and restore into a fleet that shards differently: the session lands
  // on whichever shard its id maps to and resumes there.
  FleetServerConfig config;
  config.num_shards = 4;
  FleetServer fleet{*mapper_, det_->imu, det_->gps, config};
  const auto res = fleet.restore(path);
  ASSERT_NE(res.session, nullptr);
  EXPECT_EQ(res.shard, FleetServer::shard_of(19, 4));
  EXPECT_EQ(fleet.find(19), res.session);
  // A second restore of the same id must not silently fork the session:
  // it throws before anything is attached.
  EXPECT_THROW(fleet.restore(path), std::invalid_argument);
  EXPECT_EQ(fleet.sessions_live(), 1u);
  EXPECT_EQ(fleet.scheduler(res.shard).sessions_attached(), 1u);

  feed_range(*res.session, 5.0, 10.0);
  fleet.pump();
  EXPECT_TRUE(fleet.drain());
  const auto report = fleet.finish(19);
  EXPECT_GT(report.health.windows_total, 0u);

  // A corrupt file is rejected, not attached, and counted once.
  std::string bytes = slurp(path);
  bytes[bytes.size() / 2] ^= 0x10;
  spew(path, bytes);
  auto& rejections = obs::Registry::instance().counter("stream.checkpoint_rejected");
  const auto rejections_before = rejections.value();
  const auto rejected = fleet.restore(path);
  EXPECT_EQ(rejected.verdict, Admission::kRejected);
  EXPECT_EQ(rejected.session, nullptr);
  EXPECT_EQ(rejections.value(), rejections_before + 1);
  EXPECT_EQ(fleet.sessions_live(), 0u);
}

}  // namespace
}  // namespace sb::stream
