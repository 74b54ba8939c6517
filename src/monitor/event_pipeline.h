// The event-storm monitoring pipeline (ROADMAP item 6, DESIGN.md §12): the
// WebUI's event database rebuilt for million-event campuses. Ingest stages
// rows in a small buffer and drains them into columnar segments
// (column_store.h) while folding every event into streaming rollups
// (rollup.h) at append time. Retention keeps recent segments at full
// fidelity, downsamples older ones to per-segment summaries, and evicts the
// oldest (pruning rollup buckets with them), so memory stays bounded at any
// event volume. Events reach an HA standby only as row batches (encode_rows /
// restore_rows): a standby ingests every row it receives and seals its own
// segments, which land on the active's boundaries because segment spans and
// staging drains follow ids alone.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "monitor/column_store.h"
#include "packet/buffer.h"
#include "monitor/event.h"
#include "monitor/rollup.h"

namespace livesec::mon {

/// Incremental row-batch encoder: callers that tap events one at a time (the
/// controller's replication observer) append each row straight onto the wire
/// instead of buffering NetworkEvent copies and re-walking them at flush.
/// `take()` yields a blob decodable by EventPipeline::decode_rows.
class RowBatchEncoder {
 public:
  void add(const NetworkEvent& event);
  std::size_t rows() const { return rows_; }
  bool empty() const { return rows_ == 0; }
  /// Finishes the batch (patching in the row count) and resets the encoder.
  std::vector<std::uint8_t> take();
  void clear();

 private:
  void write_header();

  pkt::BufferWriter writer_;
  std::uint32_t rows_ = 0;
  std::uint64_t id_min_ = 0;
  std::uint64_t id_max_ = 0;
};

/// Columnar event store + streaming rollups + tiered retention: the event
/// database the controller, the WebUI and the HA replicas query.
class EventPipeline {
 public:
  struct Config {
    /// Rows per sealed segment.
    std::size_t segment_rows = 4096;
    /// Ingest staging-buffer size: rows are dictionary-encoded into the open
    /// segment in runs of this many.
    std::size_t staging_rows = 512;
    /// Full-fidelity tier: sealed segments kept with raw rows.
    /// 0 = unbounded (no downsampling, no eviction).
    std::size_t full_segments = 0;
    /// Summary tier: downsampled segments kept as zone + per-type counts.
    std::size_t summary_segments = 64;
    /// Rollup time-bucket width.
    SimTime rollup_bucket = kSecond;
    /// Heavy-hitter sketch capacity (subjects and protocols).
    std::size_t topk_capacity = 512;
  };

  /// Maps the legacy `event_store_capacity` knob (a row bound, 0 =
  /// unbounded) onto segment-tier bounds with roughly that many full rows.
  static Config config_for_capacity(std::size_t capacity);

  /// A downsampled segment: the rows are gone, the zone map and per-type
  /// counts remain.
  struct SegmentSummary {
    SegmentZone zone;
    TypeCounts by_type{};
  };

  struct Counters {
    std::uint64_t appended = 0;       // rows ingested (including restores)
    std::uint64_t batches = 0;        // append_batch calls
    std::uint64_t clamped = 0;        // out-of-order times clamped
    std::uint64_t segments_sealed = 0;
    std::uint64_t segments_downsampled = 0;
    std::uint64_t segments_evicted = 0;
    std::uint64_t restored_rows = 0;
    std::uint64_t restore_skipped = 0;  // duplicate rows deduped
  };

  EventPipeline() : EventPipeline(Config{}) {}
  explicit EventPipeline(Config config);

  // --- ingest ----------------------------------------------------------------

  /// Appends one event and returns its assigned id. Out-of-order times are
  /// clamped to the last accepted time (counted in counters().clamped).
  std::uint64_t append(NetworkEvent event);

  /// Bulk ingest: an emitter stages a burst (ids and final times are
  /// assigned here) and hands it over in one call. Returns rows appended.
  std::size_t append_batch(std::vector<NetworkEvent> rows);

  /// Observer invoked once per live-appended row after id/time assignment
  /// (the controller's replication tap). Restores do not fire it.
  void set_ingest_observer(std::function<void(const NetworkEvent&)> observer) {
    observer_ = std::move(observer);
  }

  // --- queries ---------------------------------------------------------------

  /// Full-fidelity rows currently held (staging + columns).
  std::size_t size() const { return columns_.rows() + staging_.size(); }
  bool empty() const { return size() == 0; }
  const NetworkEvent* by_id(std::uint64_t id) const;

  std::vector<NetworkEvent> query_range(SimTime from, SimTime to) const;
  std::vector<NetworkEvent> query_type(EventType type, SimTime from, SimTime to) const;
  std::vector<NetworkEvent> query_subject(const std::string& subject, std::size_t limit) const;
  std::size_t replay(SimTime from, SimTime to,
                     const std::function<void(const NetworkEvent&)>& visit) const;

  /// Counts per type over everything ever ingested that the rollups still
  /// cover (summarized and evicted spans included until their buckets are
  /// pruned) — rollup-served, no row scan.
  std::vector<std::pair<EventType, std::size_t>> histogram() const;

  /// JSON array of events in [from, to) (the WebUI's periodic data fetch).
  std::string to_json(SimTime from, SimTime to) const;

  // --- rollups ----------------------------------------------------------------

  const RollupStore& rollups() const { return rollups_; }
  std::string rollup_json(SimTime from, SimTime to, std::size_t top_k = 5) const {
    return rollups_.to_json(from, to, top_k);
  }

  // --- introspection ----------------------------------------------------------

  const Counters& counters() const { return counters_; }
  std::uint64_t clamped() const { return counters_.clamped; }
  std::size_t sealed_segments() const { return columns_.sealed_segments(); }
  std::size_t summary_count() const { return summaries_.size(); }
  const std::deque<SegmentSummary>& summaries() const { return summaries_; }
  const Config& config() const { return config_; }
  std::size_t memory_bytes() const;

  // --- whole-store persistence ------------------------------------------------

  std::vector<std::uint8_t> serialize() const;
  static std::optional<EventPipeline> deserialize(std::span<const std::uint8_t> blob,
                                                  Config config);
  static std::optional<EventPipeline> deserialize(std::span<const std::uint8_t> blob) {
    return deserialize(blob, Config{});
  }

  /// Encoded blob per sealed segment, oldest first (serialize's segments).
  std::vector<std::vector<std::uint8_t>> export_segment_blobs() const;
  /// Open-segment + staging rows as one row-batch blob (empty vector when
  /// there are none).
  std::vector<std::uint8_t> export_open_rows() const;

  // --- HA row batches ---------------------------------------------------------

  /// The full tier as row-batch blobs, oldest first: one per sealed segment,
  /// then export_open_rows() when there are open rows. Restoring them in
  /// order rebuilds the same rows on the same segment boundaries.
  std::vector<std::vector<std::uint8_t>> export_row_batches() const;

  /// Row-batch blob codec (live event replication and export).
  static std::vector<std::uint8_t> encode_rows(std::span<const NetworkEvent> rows);
  static std::optional<std::vector<NetworkEvent>> decode_rows(
      std::span<const std::uint8_t> blob);

  /// O(1) header read over a row-batch blob: the row count straight from
  /// the header, no row walk (the snapshot store's fold). Validates
  /// magic/version, a minimum body size for the claimed count, and id-range
  /// sanity; full byte accounting (and header-vs-rows id agreement) is
  /// enforced by decode_rows when the blob is consumed. Nullopt on corrupt
  /// input.
  static std::optional<std::uint32_t> peek_rows(std::span<const std::uint8_t> blob);

  /// Restores a row batch (ids preserved, duplicates skipped). False on
  /// corrupt input, which leaves the pipeline unchanged.
  bool restore_rows(std::span<const std::uint8_t> blob);

 private:
  /// Clamp + id assignment + rollup + staging for one live row.
  std::uint64_t ingest(NetworkEvent&& event);
  /// Same, for a restored row that keeps its id.
  void ingest_restored(NetworkEvent&& event);
  /// Pushes one row into staging_ (reserving staging_rows on first use) and
  /// drains at the end of an id run.
  void stage(NetworkEvent&& event);
  void drain_staging();
  void enforce_retention();
  SegmentSummary summarize(const Segment& segment) const;

  Config config_;
  std::uint64_t next_id_ = 1;
  SimTime last_time_ = 0;
  Counters counters_;

  /// Rows ingested but not yet dictionary-encoded; always newer than every
  /// row in columns_. Queries scan it linearly (bounded by staging_rows).
  std::vector<NetworkEvent> staging_;
  ColumnStore columns_;
  std::deque<SegmentSummary> summaries_;
  RollupStore rollups_;
  std::function<void(const NetworkEvent&)> observer_;
};

}  // namespace livesec::mon
