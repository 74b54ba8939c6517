// Columnar event segments (DESIGN.md §12). Ingest fills an open
// struct-of-arrays segment: typed subjects and details are integer columns,
// and only the rare free-text rows go through a per-segment dictionary. At
// the end of each segment_rows-wide id block the segment is sealed, its zone
// map (time/id min-max, type bitmap, max severity) frozen, and queries prune
// whole sealed segments on the zone map before touching any column. Sealed
// segments serialize independently (EventPipeline::serialize).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "monitor/event.h"
#include "packet/buffer.h"

namespace livesec::mon {

/// Per-segment pruning metadata, cheap enough to keep for downsampled
/// segments long after their rows are gone.
struct SegmentZone {
  SimTime time_min = 0;
  SimTime time_max = 0;
  std::uint64_t id_min = 0;
  std::uint64_t id_max = 0;
  std::uint32_t type_mask = 0;  // bit (1 << raw type value), values 1..31
  std::uint8_t severity_max = 0;
  std::uint32_t rows = 0;

  /// Whole-segment pruning predicates for the query paths.
  bool overlaps(SimTime from, SimTime to) const {
    return rows > 0 && time_min < to && time_max >= from;
  }
  bool may_contain(EventType type) const {
    return (type_mask & (1u << (static_cast<std::uint8_t>(type) & 31u))) != 0;
  }
  bool covers_id(std::uint64_t id) const { return rows > 0 && id >= id_min && id <= id_max; }
};

/// One struct-of-arrays run of events. Open segments accept appends and keep
/// a text-dictionary index; seal() freezes the zone map and drops the index.
class Segment {
 public:
  explicit Segment(std::size_t expected_rows = 0);

  /// Appends a fully-assigned event (id and clamped time decided upstream;
  /// times must be non-decreasing within the segment).
  void append(const NetworkEvent& event);

  std::size_t rows() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  const SegmentZone& zone() const { return zone_; }
  bool sealed() const { return sealed_; }

  /// Freezes the segment: the dictionary index is dropped (columns stay).
  void seal();

  /// Materializes row `i` back into a NetworkEvent.
  NetworkEvent row(std::size_t i) const;

  /// Index of the first row with time >= t (rows are time-ordered).
  std::size_t lower_bound_time(SimTime t) const;

  /// Pointer to the row with the given id, or nullptr (ids are monotone).
  std::optional<std::size_t> find_id(std::uint64_t id) const;

  /// False when no row can have `subject`: a text subject must open one of
  /// the dictionary's strings (a scan of the distinct strings, not the
  /// rows). Typed subjects are not pruned; their rows compare integers.
  bool may_contain_subject(const SubjectKey& subject) const;
  /// True when row `i`'s subject is `subject`.
  bool subject_matches(std::size_t i, const SubjectKey& subject) const;

  const std::vector<SimTime>& times() const { return times_; }
  const std::vector<std::uint8_t>& types() const { return types_; }

  std::size_t memory_bytes() const;

  /// Independent wire encoding of this segment (magic + version framed).
  void encode(pkt::BufferWriter& w) const;
  std::vector<std::uint8_t> encode_blob() const;
  /// Rejects corrupt input (bad magic/version, oversized counts, dangling
  /// dictionary or flow references, rows that are not well formed,
  /// non-monotone times/ids).
  static std::optional<Segment> decode(pkt::BufferReader& r);
  static std::optional<Segment> decode_blob(std::span<const std::uint8_t> blob);

 private:
  std::uint32_t intern(const std::string& s);
  /// Dictionary string of row `i`, or nullptr for a typed row.
  const std::string* text_at(std::size_t i) const;

  SegmentZone zone_;
  bool sealed_ = false;

  // Column-per-field layout: one contiguous array per event field.
  std::vector<std::uint64_t> ids_;
  std::vector<SimTime> times_;
  std::vector<std::uint8_t> types_;
  std::vector<std::uint8_t> subject_kinds_;
  std::vector<std::uint64_t> subject_values_;
  std::vector<std::uint8_t> detail_kinds_;
  std::vector<std::uint64_t> detail_a_;
  std::vector<std::uint64_t> detail_b_;
  std::vector<std::uint64_t> dpids_;
  std::vector<std::uint64_t> se_ids_;
  std::vector<std::uint8_t> severities_;

  /// Free text of the text rows (NetworkEvent::text), distinct strings
  /// stored once.
  std::vector<std::string> dict_;
  std::size_t dict_bytes_ = 0;

  /// Flow keys and texts are sparse, so each is stored as (row index, value)
  /// pairs sorted by row instead of a full column.
  std::vector<std::pair<std::uint32_t, pkt::FlowKey>> flows_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> texts_;  // (row, dict_ index)

  /// Open-segment dictionary index (text rows are rare, so a plain hash
  /// map); dropped on seal.
  std::unordered_map<std::string, std::uint32_t> dict_index_;
};

/// A time-ordered run of sealed segments plus one open tail segment.
/// Segment boundaries depend on ids alone: with S = segment_rows, segment k
/// holds ids in (k*S, (k+1)*S]. For ids that run 1, 2, 3... that is "seal
/// every S rows"; a replica whose rows start mid-block (a bootstrap from
/// retained row batches) seals one short segment and then lands on the
/// same boundaries as the store it copies.
class ColumnStore {
 public:
  explicit ColumnStore(std::size_t segment_rows)
      : segment_rows_(std::max<std::size_t>(segment_rows, 1)) {}

  /// Appends one fully-assigned event (ids strictly increasing). Seals the
  /// open segment before a row of a later id block and right after a row
  /// whose id is a multiple of segment_rows. Returns true when this append
  /// sealed a segment.
  bool append(const NetworkEvent& event);

  std::size_t rows() const { return rows_; }
  std::size_t sealed_segments() const { return sealed_.size(); }
  const std::deque<Segment>& sealed() const { return sealed_; }
  const Segment& open_segment() const { return open_; }

  /// Pops the oldest sealed segment (retention downsampling/eviction).
  Segment pop_oldest_sealed();

  /// Visits rows in [from, to) in order, zone-pruning sealed segments.
  /// Returns the number of rows visited.
  std::size_t scan_range(SimTime from, SimTime to,
                         const std::function<void(const NetworkEvent&)>& visit) const;

  /// scan_range constrained to one event type (type bitmap pruning).
  std::size_t scan_type(EventType type, SimTime from, SimTime to,
                        const std::function<void(const NetworkEvent&)>& visit) const;

  /// Most-recent-first subject scan, newest segment first, dictionary-pruned.
  void scan_subject(const SubjectKey& subject, std::size_t limit,
                    const std::function<void(const NetworkEvent&)>& visit) const;

  const NetworkEvent* find_id(std::uint64_t id) const;

  std::size_t memory_bytes() const;

 private:
  void seal_open();

  std::size_t segment_rows_;
  std::size_t rows_ = 0;
  std::deque<Segment> sealed_;
  Segment open_;
  /// Last id of the open segment's block: the multiple of segment_rows at
  /// or above its first id.
  std::uint64_t open_last_id_ = 0;
  /// Scratch row for find_id's materialized result.
  mutable NetworkEvent found_;

  friend class EventPipeline;
};

}  // namespace livesec::mon
