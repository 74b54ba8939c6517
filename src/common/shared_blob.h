// Immutable refcounted byte buffer.
//
// Replication holds the same encoded event payload in several places at once
// — the retention log, the incremental snapshot store and in-flight
// frames. Records are copied between those owners wholesale, and a
// multi-kilobyte `std::vector` payload would re-allocate at every hop.
// SharedBlob freezes the bytes behind a shared_ptr so copying a record is a
// refcount bump, never a buffer clone.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace livesec {

class SharedBlob {
 public:
  SharedBlob() = default;
  /// Implicit by design: codecs and tests keep building payloads as plain
  /// byte vectors and freeze them on record construction.
  SharedBlob(std::vector<std::uint8_t> bytes)
      : data_(bytes.empty()
                  ? nullptr
                  : std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes))) {}
  SharedBlob(std::initializer_list<std::uint8_t> bytes)
      : SharedBlob(std::vector<std::uint8_t>(bytes)) {}

  std::span<const std::uint8_t> span() const {
    return data_ ? std::span<const std::uint8_t>(*data_) : std::span<const std::uint8_t>();
  }
  operator std::span<const std::uint8_t>() const { return span(); }

  std::size_t size() const { return data_ ? data_->size() : 0; }
  bool empty() const { return size() == 0; }

  friend bool operator==(const SharedBlob& a, const SharedBlob& b) {
    const auto sa = a.span();
    const auto sb = b.span();
    return sa.size() == sb.size() && std::equal(sa.begin(), sa.end(), sb.begin());
  }
  friend bool operator==(const SharedBlob& a, const std::vector<std::uint8_t>& b) {
    const auto sa = a.span();
    return sa.size() == b.size() && std::equal(sa.begin(), sa.end(), b.begin());
  }
  friend bool operator==(const std::vector<std::uint8_t>& a, const SharedBlob& b) {
    return b == a;
  }

 private:
  std::shared_ptr<const std::vector<std::uint8_t>> data_;
};

}  // namespace livesec
