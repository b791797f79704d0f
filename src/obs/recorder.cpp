#include "obs/recorder.hpp"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <utility>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace sb::obs {
namespace {

std::atomic<int> g_recorder_enabled{-1};  // -1 = not yet read from the env

}  // namespace

bool recorder_enabled() {
  int e = g_recorder_enabled.load(std::memory_order_relaxed);
  if (e < 0) {
    const char* s = std::getenv("SB_RECORDER");
    e = (s && *s && std::strcmp(s, "0") != 0) ? 1 : 0;
    g_recorder_enabled.store(e, std::memory_order_relaxed);
  }
  return e == 1;
}

void set_recorder_enabled(bool on) {
  g_recorder_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

const char* to_string(RecorderEvent::Kind kind) {
  switch (kind) {
    case RecorderEvent::Kind::kChunk:
      return "chunk";
    case RecorderEvent::Kind::kWindow:
      return "window";
    case RecorderEvent::Kind::kDeliver:
      return "deliver";
    case RecorderEvent::Kind::kShed:
      return "shed";
    case RecorderEvent::Kind::kDegrade:
      return "degrade";
    case RecorderEvent::Kind::kImuVerdict:
      return "imu_verdict";
    case RecorderEvent::Kind::kGpsVerdict:
      return "gps_verdict";
    case RecorderEvent::Kind::kSloBreach:
      return "slo_breach";
    case RecorderEvent::Kind::kAdmit:
      return "admit";
    case RecorderEvent::Kind::kThinned:
      return "thinned";
  }
  return "event";
}

FlightRecorder::FlightRecorder(std::uint64_t session, std::string out_dir)
    : session_(session),
      out_dir_(std::move(out_dir)),
      ring_(kCapacity),
      last_dump_us_(-1e300) {}

void FlightRecorder::record(const RecorderEvent& e) {
  const std::uint64_t h = head_.load(std::memory_order_relaxed);
  ring_[h & (kCapacity - 1)] = e;
  head_.store(h + 1, std::memory_order_release);
}

std::vector<RecorderEvent> FlightRecorder::events() const {
  const std::uint64_t h = head_.load(std::memory_order_acquire);
  const std::uint64_t n = h < kCapacity ? h : kCapacity;
  std::vector<RecorderEvent> out;
  out.reserve(n);
  for (std::uint64_t i = h - n; i < h; ++i)
    out.push_back(ring_[i & (kCapacity - 1)]);
  return out;
}

std::string FlightRecorder::dump_path() const {
  std::string path = out_dir_;
  if (!path.empty() && path.back() != '/') path += '/';
  path += "BLACKBOX_" + std::to_string(session_) + ".jsonl";
  return path;
}

bool FlightRecorder::trigger(const char* reason, bool force) {
  const double now = now_us();
  if (dumps_.load(std::memory_order_relaxed) >= kMaxDumps) return false;
  if (!force && now - last_dump_us_ < kMinTriggerGapSeconds * 1e6) return false;
  if (!dump(reason, now)) return false;
  last_dump_us_ = now;
  dumps_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool FlightRecorder::dump(const char* reason, double now_us) {
  const std::vector<RecorderEvent> retained = events();
  const double oldest = now_us - kHorizonSeconds * 1e6;
  std::size_t first = 0;
  while (first < retained.size() && retained[first].t_us < oldest) ++first;

  // Latest incident wins: the file is the session's current black box, not
  // an append log (every line is still one well-formed JSON object).
  std::ofstream os{dump_path(), std::ios::trunc};
  if (!os) return false;

  {
    JsonWriter w;
    w.begin_object();
    w.kv("type", "blackbox");
    w.kv("session", session_);
    w.kv("reason", std::string_view{reason});
    w.kv("t_us", now_us);
    w.kv("horizon_seconds", kHorizonSeconds);
    w.kv("events", static_cast<std::uint64_t>(retained.size() - first));
    w.kv("recorded", recorded());
    w.kv("dropped", dropped());
    w.kv("capacity", static_cast<std::uint64_t>(kCapacity));
    w.end_object();
    w.write_to(os);
    os << '\n';
  }
  for (std::size_t i = first; i < retained.size(); ++i) {
    const RecorderEvent& e = retained[i];
    JsonWriter w;
    w.begin_object();
    w.kv("type", "event");
    w.kv("kind", std::string_view{to_string(e.kind)});
    w.kv("seq", e.seq);
    w.kv("t_us", e.t_us);
    w.kv("stream_t", e.stream_t);
    w.kv("v0", e.v0);
    w.kv("v1", e.v1);
    w.kv("flag", e.flag);
    w.end_object();
    w.write_to(os);
    os << '\n';
  }
  return os.good();
}

}  // namespace sb::obs
