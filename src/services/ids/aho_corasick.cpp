#include "services/ids/aho_corasick.h"

#include <algorithm>
#include <cassert>
#include <queue>

namespace livesec::svc::ids {

std::uint32_t AhoCorasick::add_pattern(std::string_view pattern) {
  assert(!built_ && "cannot add patterns after build()");
  patterns_.emplace_back(pattern);
  return static_cast<std::uint32_t>(patterns_.size() - 1);
}

void AhoCorasick::build() {
  if (built_) return;
  nodes_.clear();
  nodes_.emplace_back();  // root = 0

  // Phase 1: trie of all patterns.
  for (std::uint32_t id = 0; id < patterns_.size(); ++id) {
    std::uint32_t state = 0;
    for (unsigned char c : patterns_[id]) {
      if (nodes_[state].next[c] < 0) {
        nodes_[state].next[c] = static_cast<std::int32_t>(nodes_.size());
        nodes_.emplace_back();
      }
      state = static_cast<std::uint32_t>(nodes_[state].next[c]);
    }
    nodes_[state].output.push_back(id);
  }

  // Phase 2: BFS failure links; convert to a full goto function so scanning
  // is a single table walk per byte.
  std::queue<std::uint32_t> queue;
  for (int c = 0; c < 256; ++c) {
    const std::int32_t next = nodes_[0].next[c];
    if (next < 0) {
      nodes_[0].next[c] = 0;
    } else {
      nodes_[static_cast<std::uint32_t>(next)].fail = 0;
      queue.push(static_cast<std::uint32_t>(next));
    }
  }
  while (!queue.empty()) {
    const std::uint32_t state = queue.front();
    queue.pop();
    const std::uint32_t fail = nodes_[state].fail;
    // Inherit the fail state's outputs (suffix matches).
    for (std::uint32_t id : nodes_[fail].output) nodes_[state].output.push_back(id);
    for (int c = 0; c < 256; ++c) {
      const std::int32_t next = nodes_[state].next[c];
      if (next < 0) {
        nodes_[state].next[c] = nodes_[fail].next[c];
      } else {
        nodes_[static_cast<std::uint32_t>(next)].fail =
            static_cast<std::uint32_t>(nodes_[fail].next[c]);
        queue.push(static_cast<std::uint32_t>(next));
      }
    }
  }
  for (int c = 0; c < 256; ++c) {
    root_advances_[c] = nodes_[0].next[c] != 0 ? 1 : 0;
  }

  // Phase 3: the root window skip, for pattern sets whose shortest pattern
  // has m >= 3 bytes (below that a jump of m - 1 would not beat the skim).
  std::size_t m = patterns_.empty() ? 0 : patterns_[0].size();
  for (const std::string& p : patterns_) m = std::min(m, p.size());
  skip_ = m >= 3 ? m - 1 : 0;
  bigrams_.clear();
  if (skip_ != 0) {
    bigrams_.assign(65536 / 64, 0);
    for (const std::string& p : patterns_) {
      for (std::size_t j = 0; j + 1 < m; ++j) {
        const unsigned bit =
            (unsigned{static_cast<std::uint8_t>(p[j])} << 8) | static_cast<std::uint8_t>(p[j + 1]);
        bigrams_[bit >> 6] |= std::uint64_t{1} << (bit & 63);
      }
    }
  }
  built_ = true;
}

std::size_t AhoCorasick::scan(std::span<const std::uint8_t> data, std::vector<Hit>& hits) const {
  std::uint32_t state = 0;
  return scan_stream(data, state, hits);
}

std::size_t AhoCorasick::scan_stream(std::span<const std::uint8_t> data, std::uint32_t& state,
                                     std::vector<Hit>& hits) const {
  assert(built_);
  const Node* nodes = nodes_.data();
  const std::size_t skip = skip_;
  std::size_t found = 0;
  std::size_t i = 0;
  const std::size_t n = data.size();
  while (i < n) {
    if (state == 0) {
      // Root fast paths; neither can miss a hit or change the state.
      //  - Window skip: an occurrence starting anywhere in [i, i + m - 2]
      //    covers bytes i + m - 2 and i + m - 1 inside its first m bytes.
      //    If that bigram is in no pattern's first m bytes, none starts
      //    there, so jump m - 1 bytes and stay at the root. (A stream cut
      //    inside a skipped window only loses prefixes that cannot
      //    complete.)
      //  - Skim: bytes no pattern starts with loop on the root with no
      //    output (the root matches no empty pattern).
      while (true) {
        if (skip != 0 && i + skip < n && !has_bigram(data[i + skip - 1], data[i + skip])) {
          i += skip;
        } else if (i < n && root_advances_[data[i]] == 0) {
          ++i;
        } else {
          break;
        }
      }
      if (i == n) break;
    }
    state = static_cast<std::uint32_t>(nodes[state].next[data[i]]);
    for (std::uint32_t id : nodes[state].output) {
      hits.push_back(Hit{id, i + 1});
      ++found;
    }
    ++i;
  }
  return found;
}

bool AhoCorasick::contains_any(std::span<const std::uint8_t> data) const {
  std::vector<Hit> hits;
  return scan(data, hits) > 0;
}

}  // namespace livesec::svc::ids
