#pragma once
// Compact, versioned binary codec for on-disk flow artifacts.
//
// This header is the single sanctioned place where TAF values become
// bytes: taf-analyze (rule raw-serialization) bans fwrite/fread and
// memcpy-of-struct serialization everywhere else, so the artifact format
// cannot fork. Properties:
//
//   * explicit little-endian byte layout — no struct dumps, no padding,
//     no host-endianness in the files;
//   * doubles round-trip bit-exactly (IEEE-754 bits through u64), so
//     serialize -> deserialize -> re-serialize is byte-identical;
//   * every file is wrapped in an envelope {magic, codec version, kind
//     hash, payload size, payload checksum}. Readers validate all five
//     before touching the payload; any mismatch (truncation, corruption,
//     a stale version, a foreign file) throws codec::Error, which the
//     artifact store turns into a clean cache miss — never a crash.
//
// Bumping kVersion invalidates every artifact on disk at once; bump it
// whenever any serialize() layout changes (DESIGN.md section 10).

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/hash.hpp"

namespace taf::util::codec {

/// Global artifact format version: covers the envelope and every
/// artifact payload layout. Readers reject any other value.
inline constexpr std::uint32_t kVersion = 1;

/// "TAFa" little-endian.
inline constexpr std::uint32_t kMagic = 0x61464154u;

/// Malformed/truncated/version-mismatched input. Message is diagnostic
/// only; callers degrade to a cache miss.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-only little-endian encoder over a growable byte buffer.
class Encoder {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    buf_.append(s);
  }
  void i32_vec(const std::vector<int>& v) {
    u64(v.size());
    for (int x : v) i32(x);
  }
  void f64_vec(const std::vector<double>& v) {
    u64(v.size());
    for (double x : v) f64(x);
  }

  const std::string& buffer() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian decoder; throws codec::Error on any read
/// past the end (the truncation path of the corruption corpus).
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(u8()) << (8 * i);
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    const std::uint64_t n = length(u64());
    std::string s(data_.substr(pos_, static_cast<std::size_t>(n)));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }
  std::vector<int> i32_vec() {
    const std::uint64_t n = length(u64() * 4) / 4;
    std::vector<int> v;
    v.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(i32());
    return v;
  }
  std::vector<double> f64_vec() {
    const std::uint64_t n = length(u64() * 8) / 8;
    std::vector<double> v;
    v.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(f64());
    return v;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }
  /// Payloads must be consumed exactly; trailing bytes mean the layout
  /// drifted without a kVersion bump.
  void expect_done() const {
    if (!done()) throw Error("codec: trailing bytes after payload");
  }

 private:
  void need(std::size_t n) const {
    if (data_.size() - pos_ < n) throw Error("codec: truncated input");
  }
  /// Validates a length prefix against the bytes actually present, so a
  /// corrupted huge count fails fast instead of triggering a giant
  /// allocation.
  std::uint64_t length(std::uint64_t byte_count) const {
    if (byte_count > data_.size() - pos_) throw Error("codec: length exceeds input");
    return byte_count;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Stable id of an artifact kind ("pack", "place", ...) in the envelope.
inline std::uint64_t kind_id(std::string_view kind) {
  Fnv1a h;
  h.add(kind);
  return h.state;
}

/// Wrap a payload in the versioned envelope. The result is what the
/// artifact store writes to disk, byte for byte.
inline std::string wrap(std::string_view kind, std::string_view payload) {
  Encoder e;
  e.u32(kMagic);
  e.u32(kVersion);
  e.u64(kind_id(kind));
  e.u64(payload.size());
  e.u64(fnv1a_bytes(payload.data(), payload.size()));
  std::string out = e.take();
  out.append(payload);
  return out;
}

/// Validate an envelope and return the payload. Throws codec::Error on
/// bad magic, version mismatch, kind mismatch, truncation, or a checksum
/// failure — the caller treats every one of these as a cache miss.
inline std::string_view unwrap(std::string_view file, std::string_view kind) {
  Decoder d(file);
  if (d.u32() != kMagic) throw Error("codec: bad magic");
  if (const std::uint32_t v = d.u32(); v != kVersion) {
    throw Error("codec: version " + std::to_string(v) + " != " +
                std::to_string(kVersion));
  }
  if (d.u64() != kind_id(kind)) throw Error("codec: artifact kind mismatch");
  const std::uint64_t size = d.u64();
  const std::uint64_t checksum = d.u64();
  if (d.remaining() != size) throw Error("codec: payload size mismatch");
  const std::string_view payload = file.substr(file.size() - d.remaining());
  if (fnv1a_bytes(payload.data(), payload.size()) != checksum) {
    throw Error("codec: payload checksum mismatch");
  }
  return payload;
}

}  // namespace taf::util::codec
