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

#include "core/gps_rca.hpp"
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

TEST(Wav, RoundTripPreservesSamples) {
  const auto path = temp_path("roundtrip.wav");
  const auto original = make_tone(2, 1000, 440.0, 16000.0);
  ASSERT_TRUE(write_wav(path, original));

  WavData loaded;
  ASSERT_TRUE(read_wav(path, loaded));
  EXPECT_EQ(loaded.num_channels(), 2u);
  EXPECT_EQ(loaded.num_samples(), 1000u);
  EXPECT_DOUBLE_EQ(loaded.sample_rate, 16000.0);
  for (std::size_t c = 0; c < 2; ++c)
    for (std::size_t i = 0; i < 1000; i += 37)
      EXPECT_NEAR(loaded.channels[c][i], original.channels[c][i], 1.0 / 32767.0);
  std::remove(path.c_str());
}

TEST(Wav, ClipsOutOfRangeSamples) {
  const auto path = temp_path("clip.wav");
  WavData d;
  d.channels.push_back({5.0, -5.0, 0.0});
  ASSERT_TRUE(write_wav(path, d));
  WavData loaded;
  ASSERT_TRUE(read_wav(path, loaded));
  EXPECT_NEAR(loaded.channels[0][0], 1.0, 1e-3);
  EXPECT_NEAR(loaded.channels[0][1], -1.0, 1e-3);
  std::remove(path.c_str());
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

TEST(Wav, RejectsMalformedFile) {
  const auto path = temp_path("garbage.wav");
  {
    std::ofstream os{path, std::ios::binary};
    os << "this is not a wav file at all, not even close";
  }
  WavData out;
  EXPECT_FALSE(read_wav(path, out));
  std::remove(path.c_str());
}

TEST(Wav, RejectsMissingFile) {
  WavData out;
  EXPECT_FALSE(read_wav("/nonexistent/dir/nope.wav", out));
}

// ---------------------------------------------------------------------------
// Corrupt-header hardening: a hostile or truncated file must produce a clean
// `false`, never a crash, a backwards seek, or a giant allocation.

std::string wav_bytes(const WavData& d, const char* name) {
  const auto path = temp_path(name);
  EXPECT_TRUE(write_wav(path, d));
  std::ifstream is{path, std::ios::binary};
  std::string bytes{std::istreambuf_iterator<char>{is}, {}};
  std::remove(path.c_str());
  return bytes;
}

bool read_bytes(const std::string& bytes, const char* name, WavData& out) {
  const auto path = temp_path(name);
  {
    std::ofstream os{path, std::ios::binary};
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const bool ok = read_wav(path, out);
  std::remove(path.c_str());
  return ok;
}

void patch_u32(std::string& bytes, std::size_t offset, std::uint32_t v) {
  std::memcpy(bytes.data() + offset, &v, sizeof(v));
}

void patch_u16(std::string& bytes, std::size_t offset, std::uint16_t v) {
  std::memcpy(bytes.data() + offset, &v, sizeof(v));
}

// write_wav layout: "RIFF" size "WAVE" | "fmt " @12, size @16, format @20,
// channels @22, rate @24, byte rate @28, block align @32, bits @34 |
// "data" @36, size @40, samples @44.

TEST(Wav, RejectsTruncatedFile) {
  const auto bytes = wav_bytes(make_tone(2, 500, 440.0, 16000.0), "trunc_src.wav");
  WavData out;
  // Cut inside the sample data AND inside the header.
  EXPECT_FALSE(read_bytes(bytes.substr(0, bytes.size() / 2), "trunc_data.wav", out));
  EXPECT_FALSE(read_bytes(bytes.substr(0, 30), "trunc_hdr.wav", out));
}

TEST(Wav, RejectsHugeDeclaredDataChunk) {
  auto bytes = wav_bytes(make_tone(1, 100, 440.0, 16000.0), "huge_src.wav");
  patch_u32(bytes, 40, 0xFFFFFF00u);  // data chunk claims ~4 GB
  WavData out;
  EXPECT_FALSE(read_bytes(bytes, "huge.wav", out));
  EXPECT_TRUE(out.channels.empty());  // no allocation happened
}

TEST(Wav, RejectsFmtChunkSmallerThanPcmHeader) {
  auto bytes = wav_bytes(make_tone(1, 100, 440.0, 16000.0), "fmt_src.wav");
  patch_u32(bytes, 16, 8);  // fmt chunk too small: would seek backwards
  WavData out;
  EXPECT_FALSE(read_bytes(bytes, "fmt_small.wav", out));
}

TEST(Wav, RejectsZeroChannels) {
  auto bytes = wav_bytes(make_tone(1, 100, 440.0, 16000.0), "zch_src.wav");
  patch_u16(bytes, 22, 0);
  WavData out;
  EXPECT_FALSE(read_bytes(bytes, "zero_channels.wav", out));
}

TEST(Wav, RejectsUnsupportedBitDepths) {
  for (std::uint16_t bits : {std::uint16_t{8}, std::uint16_t{24}, std::uint16_t{32}}) {
    auto bytes = wav_bytes(make_tone(1, 100, 440.0, 16000.0), "bits_src.wav");
    patch_u16(bytes, 34, bits);
    WavData out;
    EXPECT_FALSE(read_bytes(bytes, "bits.wav", out)) << bits << " bits accepted";
  }
}

TEST(Wav, RejectsNonPcmFormat) {
  auto bytes = wav_bytes(make_tone(1, 100, 440.0, 16000.0), "fmt3_src.wav");
  patch_u16(bytes, 20, 3);  // IEEE float
  WavData out;
  EXPECT_FALSE(read_bytes(bytes, "ieee.wav", out));
}

TEST(Wav, SkipsUnknownChunksButRejectsOversizedOnes) {
  // A well-formed extra chunk before "data" is fine...
  const auto src = wav_bytes(make_tone(1, 100, 440.0, 16000.0), "xchunk_src.wav");
  std::string with_chunk = src.substr(0, 36);
  with_chunk += "LIST";
  const std::uint32_t list_size = 4;
  with_chunk.append(reinterpret_cast<const char*>(&list_size), 4);
  with_chunk += "INFO";
  with_chunk += src.substr(36);
  WavData out;
  EXPECT_TRUE(read_bytes(with_chunk, "xchunk_ok.wav", out));
  EXPECT_EQ(out.num_samples(), 100u);

  // ...but one whose declared size exceeds the file is rejected, not skipped
  // into EOF oblivion.
  patch_u32(with_chunk, 40, 0x7FFFFFFFu);
  EXPECT_FALSE(read_bytes(with_chunk, "xchunk_bad.wav", out));
}

TEST(Wav, ExportsMicArrayRecording) {
  const auto flight = test::hover_flight(4.0, 70);
  const auto synth = test::lab().synthesizer(flight);
  const auto audio = synth.synthesize(flight.log, 1.0, 1.5);
  const auto path = temp_path("mics.wav");
  ASSERT_TRUE(write_wav(path, audio, 2.0));
  WavData loaded;
  ASSERT_TRUE(read_wav(path, loaded));
  EXPECT_EQ(loaded.num_channels(), 4u);
  EXPECT_EQ(loaded.num_samples(), audio.num_samples());
  std::remove(path.c_str());
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

TEST(FlightCsv, TraceExport) {
  core::GpsRcaDetector::Trace trace;
  trace.t = {0.2, 0.4};
  trace.v_est = {{1, 0, 0}, {1, 1, 0}};
  trace.v_gps = {{0.9, 0, 0}, {1, 1, 0.1}};
  trace.pos_est = {{0, 0, -10}, {0.2, 0, -10}};
  trace.running_mean = {0.1, 0.12};
  const auto path = temp_path("trace.csv");
  ASSERT_TRUE(write_trace_csv(path, trace));
  EXPECT_EQ(count_lines(path), 3u);
  std::remove(path.c_str());
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
