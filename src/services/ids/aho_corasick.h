// Aho-Corasick multi-pattern string matcher — the content-inspection core of
// the Snort-like IDS service element.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace livesec::svc::ids {

/// Builds one automaton over all rule content patterns and scans payloads in
/// a single pass (O(bytes + matches)), which is what lets a VM-sized service
/// element sustain the hundreds of Mbps measured in paper §V.B.1.
class AhoCorasick {
 public:
  /// A match: which pattern, and the payload offset just past its last byte.
  struct Hit {
    std::uint32_t pattern_id;
    std::size_t end_offset;
  };

  /// Adds a pattern; returns its id (dense, starting at 0). Patterns may
  /// contain arbitrary bytes. Must be called before build().
  std::uint32_t add_pattern(std::string_view pattern);

  /// Finalizes the goto/fail automaton. Idempotent.
  void build();

  bool built() const { return built_; }
  std::size_t pattern_count() const { return patterns_.size(); }
  const std::string& pattern(std::uint32_t id) const { return patterns_[id]; }
  /// Bytes the root window skip jumps (m - 1 for a shortest pattern of
  /// m >= 3 bytes), or 0 when the set keeps the plain walk.
  std::size_t window_skip() const { return skip_; }

  /// Scans `data`, appending every match to `hits`. Returns match count.
  std::size_t scan(std::span<const std::uint8_t> data, std::vector<Hit>& hits) const;

  /// Convenience: true if any pattern occurs in `data` (runs scan()).
  bool contains_any(std::span<const std::uint8_t> data) const;

  /// Streaming scan: feed chunks with persistent state across calls so
  /// patterns spanning packet boundaries are still found. `state` starts at 0.
  std::size_t scan_stream(std::span<const std::uint8_t> data, std::uint32_t& state,
                          std::vector<Hit>& hits) const;

 private:
  struct Node {
    std::int32_t next[256];
    std::uint32_t fail = 0;
    std::vector<std::uint32_t> output;  // pattern ids ending here
    Node() {
      for (auto& n : next) n = -1;
    }
  };

  bool has_bigram(std::uint8_t a, std::uint8_t b) const {
    const unsigned bit = (unsigned{a} << 8) | b;
    return ((bigrams_[bit >> 6] >> (bit & 63)) & 1) != 0;
  }

  std::vector<std::string> patterns_;
  std::vector<Node> nodes_;
  /// root_advances_[b] iff byte b moves the automaton off the root. While at
  /// the root (the overwhelmingly common state for benign payloads), bytes
  /// that stay there can be skimmed in a tight loop instead of paying the
  /// dependent-load table walk — no pattern starts with them, so no hit or
  /// state change is possible.
  std::uint8_t root_advances_[256] = {};
  /// Window skip at the root (Wu & Manber's multi-pattern shift): m - 1,
  /// where m >= 3 is the shortest pattern's length; 0 disables it.
  std::size_t skip_ = 0;
  /// 64 Ki-bit set of every bigram inside some pattern's first m bytes.
  /// Allocated (8 KB) only when skip_ != 0.
  std::vector<std::uint64_t> bigrams_;
  bool built_ = false;
};

}  // namespace livesec::svc::ids
