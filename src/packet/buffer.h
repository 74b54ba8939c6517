// Big-endian byte buffer used by all wire codecs.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace livesec::pkt {

/// Append-only writer producing network-byte-order (big-endian) bytes.
class BufferWriter {
 public:
  void u8(std::uint8_t v) { data_.push_back(v); }
  void u16(std::uint16_t v) {
    const std::uint8_t b[2] = {static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
    data_.insert(data_.end(), b, b + sizeof(b));
  }
  void u32(std::uint32_t v) {
    const std::uint8_t b[4] = {
        static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
        static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
    data_.insert(data_.end(), b, b + sizeof(b));
  }
  void u64(std::uint64_t v) {
    const std::uint8_t b[8] = {
        static_cast<std::uint8_t>(v >> 56), static_cast<std::uint8_t>(v >> 48),
        static_cast<std::uint8_t>(v >> 40), static_cast<std::uint8_t>(v >> 32),
        static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
        static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
    data_.insert(data_.end(), b, b + sizeof(b));
  }
  /// Pre-sizes the buffer for `additional` more bytes, so a writer that
  /// knows its output size (e.g. Packet::serialized_size()) grows at most
  /// once instead of doubling through push_back.
  void reserve(std::size_t additional) { data_.reserve(data_.size() + additional); }

  void bytes(std::span<const std::uint8_t> b) { data_.insert(data_.end(), b.begin(), b.end()); }
  /// Appends `n` zeroed bytes and returns a pointer to them, so bulk column
  /// encoders (Segment::encode) fill whole arrays with store_* writes —
  /// one growth check per column instead of one writer call per element.
  /// The pointer is invalidated by any further append.
  std::uint8_t* extend(std::size_t n) {
    data_.resize(data_.size() + n);
    return data_.data() + data_.size() - n;
  }
  void string(std::string_view s) {
    data_.insert(data_.end(), s.begin(), s.end());
  }
  /// Writes a 16-bit length prefix followed by the string bytes.
  void length_prefixed_string(std::string_view s) {
    u16(static_cast<std::uint16_t>(s.size()));
    string(s);
  }
  /// LEB128 varint: 7 bits per byte, low group first (1 byte below 128).
  inline void varint(std::uint64_t v);

  std::size_t size() const { return data_.size(); }
  const std::vector<std::uint8_t>& data() const { return data_; }
  std::vector<std::uint8_t> take() { return std::move(data_); }
  /// Empties the buffer but keeps its capacity, so a writer reused across
  /// batches (RowBatchEncoder) stops paying the growth reallocations after
  /// the first batch. Callers that need the bytes copy from data() first.
  void clear() { data_.clear(); }

 private:
  std::vector<std::uint8_t> data_;
};

// Raw big-endian stores into caller-owned memory. Codecs on per-row hot
// paths assemble fixed-size field groups in a stack buffer and append them
// with one BufferWriter::bytes() call instead of a writer call per field.
inline void store_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}

inline void store_u32(std::uint8_t* p, std::uint32_t v) {
  store_u16(p, static_cast<std::uint16_t>(v >> 16));
  store_u16(p + 2, static_cast<std::uint16_t>(v));
}

inline void store_u64(std::uint8_t* p, std::uint64_t v) {
  store_u32(p, static_cast<std::uint32_t>(v >> 32));
  store_u32(p + 4, static_cast<std::uint32_t>(v));
}

/// Bytes store_varint writes for `v` (1..10).
inline std::size_t varint_size(std::uint64_t v) {
  return 1 + static_cast<std::size_t>(std::bit_width(v | 1) - 1) / 7;
}

/// Writes `v` as a LEB128 varint and returns the bytes written.
inline std::size_t store_varint(std::uint8_t* p, std::uint64_t v) {
  std::size_t n = 0;
  while (v >= 0x80) {
    p[n++] = static_cast<std::uint8_t>(v | 0x80);
    v >>= 7;
  }
  p[n++] = static_cast<std::uint8_t>(v);
  return n;
}

inline void BufferWriter::varint(std::uint64_t v) { store_varint(extend(varint_size(v)), v); }

// In-place big-endian patches over an already-serialized buffer. The flow
// fast path serializes control messages once and replays them per flow with
// only the variable fields (ports, cookie, buffer id) rewritten at fixed
// offsets. Out-of-range offsets are ignored (template/offset mismatch must
// not corrupt adjacent bytes).
inline void patch_u16(std::span<std::uint8_t> buffer, std::size_t offset, std::uint16_t v) {
  if (offset + 2 > buffer.size()) return;
  buffer[offset] = static_cast<std::uint8_t>(v >> 8);
  buffer[offset + 1] = static_cast<std::uint8_t>(v);
}

inline void patch_u32(std::span<std::uint8_t> buffer, std::size_t offset, std::uint32_t v) {
  if (offset + 4 > buffer.size()) return;
  patch_u16(buffer, offset, static_cast<std::uint16_t>(v >> 16));
  patch_u16(buffer, offset + 2, static_cast<std::uint16_t>(v));
}

inline void patch_u64(std::span<std::uint8_t> buffer, std::size_t offset, std::uint64_t v) {
  if (offset + 8 > buffer.size()) return;
  patch_u32(buffer, offset, static_cast<std::uint32_t>(v >> 32));
  patch_u32(buffer, offset + 4, static_cast<std::uint32_t>(v));
}

/// Sequential reader over big-endian bytes. All reads are bounds-checked:
/// reading past the end sets a sticky error flag and returns zeros, so codecs
/// can parse optimistically and check `ok()` once at the end.
class BufferReader {
 public:
  explicit BufferReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    if (!ensure(1)) return 0;
    return data_[pos_++];
  }
  std::uint16_t u16() {
    if (!ensure(2)) return 0;
    const std::uint16_t v =
        static_cast<std::uint16_t>((std::uint16_t{data_[pos_]} << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    const std::uint32_t hi = u16();
    const std::uint32_t lo = u16();
    return (hi << 16) | lo;
  }
  std::uint64_t u64() {
    const std::uint64_t hi = u32();
    const std::uint64_t lo = u32();
    return (hi << 32) | lo;
  }
  std::vector<std::uint8_t> bytes(std::size_t n) {
    if (!ensure(n)) return {};
    std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                  data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }
  std::string string(std::size_t n) {
    if (!ensure(n)) return {};
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return out;
  }
  std::string length_prefixed_string() {
    const std::uint16_t n = u16();
    return string(n);
  }
  /// Reads a LEB128 varint; an overlong or unterminated one sets the error.
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint8_t byte = u8();
      if (!ok_) return 0;
      if (shift == 63 && byte > 1) break;
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return v;
    }
    ok_ = false;
    return 0;
  }
  void skip(std::size_t n) {
    if (ensure(n)) pos_ += n;
  }

  std::size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }
  bool ok() const { return ok_; }

 private:
  bool ensure(std::size_t n) {
    if (!ok_ || pos_ + n > data_.size()) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace livesec::pkt
