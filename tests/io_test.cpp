#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "io/flight_csv.hpp"
#include "io/wav.hpp"
#include "test_helpers.hpp"
#include "util/binary_io.hpp"

namespace sb::io {
namespace {

std::string temp_path(const char* name) {
  return std::string{"/tmp/soundboost_io_test_"} + name;
}

WavData make_tone(std::size_t channels, std::size_t n, double freq, double fs) {
  WavData d;
  d.sample_rate = fs;
  for (std::size_t c = 0; c < channels; ++c) {
    std::vector<double> s(n);
    for (std::size_t i = 0; i < n; ++i)
      s[i] = 0.5 * std::sin(2.0 * M_PI * freq * static_cast<double>(i) / fs +
                            static_cast<double>(c));
    d.channels.push_back(std::move(s));
  }
  return d;
}

// write_wav layout: "RIFF" size "WAVE" | "fmt " @12, size @16, format @20,
// channels @22, rate @24, byte rate @28, block align @32, bits @34 |
// "data" @36, size @40, samples @44.
struct WrittenWav {
  std::uint16_t format = 0, channels = 0, bits = 0;
  std::uint32_t rate = 0, data_bytes = 0;
  std::vector<std::int16_t> samples;  // interleaved
};

template <typename T>
T field_at(const std::string& bytes, std::size_t offset) {
  T v{};
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  return v;
}

// Reads back the header fields and samples write_wav put at the offsets
// above, and removes the file.
WrittenWav written_wav(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  const std::string bytes{std::istreambuf_iterator<char>{is}, {}};
  std::remove(path.c_str());
  WrittenWav w;
  if (bytes.size() < 44) {
    ADD_FAILURE() << "header cut short: " << bytes.size() << " bytes";
    return w;
  }
  w.format = field_at<std::uint16_t>(bytes, 20);
  w.channels = field_at<std::uint16_t>(bytes, 22);
  w.rate = field_at<std::uint32_t>(bytes, 24);
  w.bits = field_at<std::uint16_t>(bytes, 34);
  w.data_bytes = field_at<std::uint32_t>(bytes, 40);
  if (bytes.size() != 44u + w.data_bytes) {
    ADD_FAILURE() << "data size " << w.data_bytes << " in a file of "
                  << bytes.size() << " bytes";
    return w;
  }
  w.samples.resize(w.data_bytes / 2);
  std::memcpy(w.samples.data(), bytes.data() + 44, w.data_bytes);
  return w;
}

TEST(Wav, RoundTripPreservesSamples) {
  const auto path = temp_path("roundtrip.wav");
  const auto original = make_tone(2, 1000, 440.0, 16000.0);
  ASSERT_TRUE(write_wav(path, original));

  const WrittenWav w = written_wav(path);
  EXPECT_EQ(w.format, 1u);  // PCM
  EXPECT_EQ(w.channels, 2u);
  EXPECT_EQ(w.rate, 16000u);
  EXPECT_EQ(w.bits, 16u);
  ASSERT_EQ(w.samples.size(), 2u * 1000u);
  for (std::size_t c = 0; c < 2; ++c)
    for (std::size_t i = 0; i < 1000; i += 37)
      EXPECT_NEAR(w.samples[i * 2 + c] / 32767.0, original.channels[c][i],
                  1.0 / 32767.0);
}

TEST(Wav, ClipsOutOfRangeSamples) {
  const auto path = temp_path("clip.wav");
  WavData d;
  d.channels.push_back({5.0, -5.0, 0.0});
  ASSERT_TRUE(write_wav(path, d));
  const WrittenWav w = written_wav(path);
  ASSERT_EQ(w.samples.size(), 3u);
  EXPECT_EQ(w.samples[0], 32767);
  EXPECT_EQ(w.samples[1], -32767);
  EXPECT_EQ(w.samples[2], 0);
}

TEST(Wav, RejectsEmptyData) {
  EXPECT_FALSE(write_wav(temp_path("empty.wav"), WavData{}));
}

TEST(Wav, RejectsRaggedChannels) {
  WavData d;
  d.channels.push_back(std::vector<double>(10, 0.0));
  d.channels.push_back(std::vector<double>(5, 0.0));
  EXPECT_FALSE(write_wav(temp_path("ragged.wav"), d));
}

TEST(Wav, ExportsMicArrayRecording) {
  const auto flight = test::hover_flight(4.0, 70);
  const auto synth = test::lab().synthesizer(flight);
  const auto audio = synth.synthesize(flight.log, 1.0, 1.5);
  const auto path = temp_path("mics.wav");
  ASSERT_TRUE(write_wav(path, audio, 2.0));
  const WrittenWav w = written_wav(path);
  EXPECT_EQ(w.channels, 4u);
  EXPECT_EQ(w.rate, static_cast<std::uint32_t>(audio.sample_rate));
  EXPECT_EQ(w.samples.size(), 4u * audio.num_samples());
}

std::size_t count_lines(const std::string& path) {
  std::ifstream is{path};
  std::size_t n = 0;
  std::string line;
  while (std::getline(is, line)) ++n;
  return n;
}

TEST(FlightCsv, TruthExport) {
  const auto flight = test::hover_flight(3.0, 71);
  const auto path = temp_path("truth.csv");
  ASSERT_TRUE(write_truth_csv(path, flight.log, 8));
  EXPECT_EQ(count_lines(path), 1 + flight.log.t.size() / 8 +
                                   (flight.log.t.size() % 8 ? 1 : 0));
  std::remove(path.c_str());
}

TEST(FlightCsv, ImuAndGpsExports) {
  const auto flight = test::hover_flight(3.0, 72);
  const auto imu_path = temp_path("imu.csv");
  const auto gps_path = temp_path("gps.csv");
  ASSERT_TRUE(write_imu_csv(imu_path, flight.log));
  ASSERT_TRUE(write_gps_csv(gps_path, flight.log));
  EXPECT_EQ(count_lines(imu_path), 1 + flight.log.imu.size());
  EXPECT_EQ(count_lines(gps_path), 1 + flight.log.gps.size());
  std::remove(imu_path.c_str());
  std::remove(gps_path.c_str());
}

TEST(FlightCsv, ZeroStrideRejected) {
  const auto flight = test::hover_flight(2.0, 73);
  EXPECT_FALSE(write_truth_csv(temp_path("bad.csv"), flight.log, 0));
}


// Length prefixes come from files: a count the remaining bytes cannot hold
// is rejected before any allocation (an ~2^32-element prefix of 80-byte IMU
// samples would otherwise ask for ~320 GiB).
TEST(BinaryIo, ReadPodVecRejectsLengthBeyondRemainingBytes) {
  const auto stream_with = [](std::uint64_t count, std::size_t present) {
    std::stringstream ss{std::ios::in | std::ios::out | std::ios::binary};
    util::io::write_pod(ss, count);
    for (std::size_t i = 0; i < present; ++i) util::io::write_pod(ss, sim::ImuSample{});
    return ss;
  };
  std::vector<sim::ImuSample> v;
  for (const std::uint64_t count :
       {(std::uint64_t{1} << 32) - 1, std::uint64_t{3}, ~std::uint64_t{0}}) {
    auto ss = stream_with(count, 2);
    bool ok = true;
    EXPECT_NO_THROW(ok = util::io::read_pod_vec(ss, v)) << count;
    EXPECT_FALSE(ok) << count;
  }
  auto exact = stream_with(2, 2);
  ASSERT_TRUE(util::io::read_pod_vec(exact, v));
  EXPECT_EQ(v.size(), 2u);
}

}  // namespace
}  // namespace sb::io
