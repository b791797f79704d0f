// POD-stream helpers and the integrity frame of the binary artifact formats
// (SBMAPF02 model files, SBSESS01 session checkpoints).  Header-only: every
// persistence path serializes with these so all formats share one idiom —
// little-endian in-memory byte images, explicit sizes ahead of variable
// payloads, read functions that report failure instead of throwing.  A
// struct with padding or bools is written field by field (write_bool,
// write_padding, write_records), never as a memory image: its padding bytes
// are indeterminate, and a bool byte read back unchecked may not be 0 or 1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/checksum.hpp"

namespace sb::util::io {

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
bool read_pod(std::istream& is, T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  return static_cast<bool>(is);
}

// A bool as one byte, 0 or 1.  read_bool rejects any other byte before it is
// stored as a bool.
inline void write_bool(std::ostream& os, bool b) {
  write_pod(os, static_cast<std::uint8_t>(b ? 1 : 0));
}

inline bool read_bool(std::istream& is, bool& b) {
  std::uint8_t byte = 0;
  if (!read_pod(is, byte) || byte > 1) return false;
  b = byte == 1;
  return true;
}

// `n` zero bytes where a record keeps padding; skip_padding passes over them
// without reading their values.
inline void write_padding(std::ostream& os, std::size_t n) {
  for (; n > 0; --n) os.put('\0');
}

inline bool skip_padding(std::istream& is, std::size_t n) {
  is.ignore(static_cast<std::streamsize>(n));
  return is && is.gcount() == static_cast<std::streamsize>(n);
}

// Bytes between the read position and the end of a seekable stream (0 when
// the position is unknown).  Parsers bound every length prefix by it, so a
// crafted count can never demand more memory than the input holds.
inline std::uint64_t bytes_left(std::istream& is) {
  const std::streampos pos = is.tellg();
  if (pos < 0) return 0;
  is.seekg(0, std::ios::end);
  const std::streampos end = is.tellg();
  is.seekg(pos);
  return end > pos ? static_cast<std::uint64_t>(end - pos) : 0;
}

// Length-prefixed vector of trivially copyable elements.
template <typename T>
void write_pod_vec(std::ostream& os, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  write_pod(os, static_cast<std::uint64_t>(v.size()));
  if (!v.empty())
    os.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(T)));
}

// Rejects a length prefix larger than the elements the rest of the stream
// could hold before allocating anything.
template <typename T>
bool read_pod_vec(std::istream& is, std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::uint64_t n = 0;
  if (!read_pod(is, n) || n > bytes_left(is) / sizeof(T)) return false;
  v.resize(static_cast<std::size_t>(n));
  if (n > 0)
    is.read(reinterpret_cast<char*>(v.data()),
            static_cast<std::streamsize>(n * sizeof(T)));
  return static_cast<bool>(is);
}

// Length-prefixed vector of records written field by field: `write_one`
// writes one element, `read_one` reads one of `record_bytes` bytes back.  The
// prefix is bounded by the bytes left, as in read_pod_vec.
template <typename T, typename WriteOne>
void write_records(std::ostream& os, const std::vector<T>& v,
                   WriteOne write_one) {
  write_pod(os, static_cast<std::uint64_t>(v.size()));
  for (const T& x : v) write_one(os, x);
}

template <typename T, typename ReadOne>
bool read_records(std::istream& is, std::vector<T>& v,
                  std::size_t record_bytes, ReadOne read_one) {
  std::uint64_t n = 0;
  if (!read_pod(is, n) || n > bytes_left(is) / record_bytes) return false;
  v.resize(static_cast<std::size_t>(n));
  for (T& x : v)
    if (!read_one(is, x)) return false;
  return true;
}

// Integrity frame: magic, format version, payload size, CRC-32 of the
// payload, then the payload.  A frame may start mid-stream and runs to the
// end of it.
inline void write_frame(std::ostream& os, std::uint64_t magic,
                        std::uint32_t version, std::string_view payload) {
  write_pod(os, magic);
  write_pod(os, version);
  write_pod(os, static_cast<std::uint64_t>(payload.size()));
  write_pod(os, crc32(payload.data(), payload.size()));
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

// Reads the frame at the stream's position and validates all of it — size
// against the bytes present, then the checksum — before the caller parses
// any payload field.  Returns nullptr with `payload` filled, or why the
// frame was rejected.  `found_magic` receives the magic actually read, so a
// format can name its legacy files.
inline const char* read_frame(std::istream& is, std::uint64_t magic,
                              std::uint32_t version, std::string& payload,
                              std::uint64_t* found_magic = nullptr) {
  std::uint64_t got = 0;
  if (!read_pod(is, got)) return "truncated frame header";
  if (found_magic) *found_magic = got;
  if (got != magic) return "unrecognized magic";
  std::uint32_t got_version = 0;
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
  if (!read_pod(is, got_version) || !read_pod(is, size) || !read_pod(is, crc))
    return "truncated frame header";
  if (got_version != version) return "unsupported format version";
  if (size != bytes_left(is)) return "payload size mismatch (truncated or corrupt)";
  payload.assign(static_cast<std::size_t>(size), '\0');
  is.read(payload.data(), static_cast<std::streamsize>(size));
  if (!is) return "short read";
  if (crc32(payload.data(), payload.size()) != crc)
    return "checksum mismatch (bit-flipped or corrupt)";
  return nullptr;
}

// True once every byte of a parsed payload was consumed: trailing bytes
// mean a framing bug or a foreign payload that happened to parse.
inline bool at_end(std::istream& is) {
  is.peek();
  return is.eof();
}

}  // namespace sb::util::io
