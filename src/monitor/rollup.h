// Streaming rollups maintained at ingest (ROADMAP item 6: "pre-binned
// rollups", rspamd's ClickHouse exporter keeps per-hour aggregates next to
// the raw rows). Every appended event lands in a per-type x time-bucket
// count table and two heavy-hitter sketches (subjects and identified
// protocols), so the WebUI's dashboard numbers never touch raw rows.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "monitor/event.h"
#include "packet/buffer.h"

namespace livesec::mon {

/// Event counts indexed by raw EventType value.
using TypeCounts = std::array<std::uint32_t, kEventTypeSlots>;

/// Sparse codec for TypeCounts: a count of non-zero slots, then (slot,
/// count) pairs. decode rejects out-of-range slots and truncation.
void encode_type_counts(pkt::BufferWriter& w, const TypeCounts& counts);
bool decode_type_counts(pkt::BufferReader& r, TypeCounts& counts);

/// Misra-Gries heavy-hitter sketch: at most `capacity` counters; when a new
/// key arrives with the table full, every counter is decremented (amortized
/// O(1) per ingest) and zeroed entries are dropped. Any key with true
/// frequency > N / capacity is guaranteed to survive. Deterministic: the
/// decrement step is order-independent and top() sorts (count desc, rendered
/// key asc). Keys are typed subjects, so a MAC or SE key is counted without
/// formatting it; keys are rendered only by top().
class TopK {
 public:
  explicit TopK(std::size_t capacity = 512) : capacity_(capacity) {}

  void ingest(const SubjectKey& key);

  /// The k largest surviving counters, count-descending, ties broken by the
  /// rendered key ascending so the output is deterministic.
  std::vector<std::pair<std::string, std::uint64_t>> top(std::size_t k) const;

  std::size_t entries() const { return counts_.size(); }
  std::uint64_t ingested() const { return ingested_; }

  void encode(pkt::BufferWriter& w) const;
  static std::optional<TopK> decode(pkt::BufferReader& r);

 private:
  std::size_t capacity_;
  std::uint64_t ingested_ = 0;
  struct KeyHash {
    std::size_t operator()(const SubjectKey& key) const noexcept;
  };
  std::unordered_map<SubjectKey, std::uint64_t, KeyHash> counts_;
};

/// Ingest-time aggregates over the whole event stream: fixed-width time
/// buckets of per-type counts plus subject/protocol heavy hitters. Buckets
/// are pruned in step with retention eviction, so the rollup horizon always
/// covers at least the raw-row horizon.
class RollupStore {
 public:
  struct Bucket {
    SimTime start = 0;
    TypeCounts by_type{};
    std::uint64_t total = 0;
    std::uint8_t severity_max = 0;
  };

  explicit RollupStore(SimTime bucket_width = kSecond, std::size_t topk_capacity = 512)
      : bucket_width_(bucket_width > 0 ? bucket_width : 1),
        subjects_(topk_capacity),
        protocols_(topk_capacity) {}

  /// Folds one event in. Times must be non-decreasing (the pipeline clamps).
  void ingest(const NetworkEvent& event);

  std::uint64_t total() const { return total_; }
  std::size_t bucket_count() const { return buckets_.size(); }
  SimTime bucket_width() const { return bucket_width_; }

  /// Count of `type` events in buckets overlapping [from, to) (bucket
  /// resolution: exact when from/to are bucket-aligned).
  std::uint64_t count_type(EventType type, SimTime from, SimTime to) const;

  /// Total events in buckets overlapping [from, to).
  std::uint64_t count_all(SimTime from, SimTime to) const;

  const std::deque<Bucket>& buckets() const { return buckets_; }

  const TopK& subjects() const { return subjects_; }
  const TopK& protocols() const { return protocols_; }

  /// Drops buckets that end at or before `t` (retention eviction).
  void prune_before(SimTime t);
  std::uint64_t pruned_buckets() const { return pruned_; }

  /// JSON object: bucket series over [from, to) plus the two top-K tables.
  std::string to_json(SimTime from, SimTime to, std::size_t top_k = 5) const;

  /// Deterministic wire codec (top-K tables are emitted key-sorted).
  void encode(pkt::BufferWriter& w) const;
  static std::optional<RollupStore> decode(pkt::BufferReader& r);

 private:
  SimTime bucket_start(SimTime t) const { return t - (t % bucket_width_); }
  /// Iterator range of buckets overlapping [from, to).
  std::pair<std::size_t, std::size_t> bucket_span(SimTime from, SimTime to) const;

  SimTime bucket_width_;
  std::uint64_t total_ = 0;
  std::uint64_t pruned_ = 0;
  /// Bucket starts are strictly increasing (ingest times are monotone), so
  /// lookups binary-search and the common case appends to the back.
  std::deque<Bucket> buckets_;
  TopK subjects_;
  TopK protocols_;
};

}  // namespace livesec::mon
