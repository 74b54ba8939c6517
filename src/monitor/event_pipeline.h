// The event-storm monitoring pipeline (ROADMAP item 6, DESIGN.md §12): the
// WebUI's event database rebuilt for million-event campuses. Ingest stages
// rows in a small buffer and drains them into columnar segments
// (column_store.h) while folding every event into streaming rollups
// (rollup.h) at append time. Retention keeps recent segments at full
// fidelity, downsamples older ones to per-segment summaries, and evicts the
// oldest (pruning rollup buckets with them), so memory stays bounded at any
// event volume. Sealed segments serialize independently, which is what the
// HA snapshot path replicates (one record per segment).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/shared_blob.h"
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
    std::uint64_t restored_segments = 0;
    std::uint64_t restore_skipped = 0;  // duplicate rows/segments deduped
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

  /// Observer invoked once per segment sealed by live ingest, before
  /// retention may downsample it (the controller's segment-replication tap).
  /// Restores do not fire it — a restored segment was sealed elsewhere.
  void set_seal_observer(std::function<void(const Segment&)> observer) {
    seal_observer_ = std::move(observer);
  }

  // --- queries ---------------------------------------------------------------

  /// Full-fidelity rows currently held (staging + columns + stashed restores).
  std::size_t size() const {
    ensure_drained();
    return columns_.rows() + staging_.size();
  }
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

  const RollupStore& rollups() const {
    ensure_drained();
    return rollups_;
  }
  std::string rollup_json(SimTime from, SimTime to, std::size_t top_k = 5) const {
    ensure_drained();
    return rollups_.to_json(from, to, top_k);
  }

  // --- introspection ----------------------------------------------------------

  const Counters& counters() const {
    ensure_drained();
    return counters_;
  }
  std::uint64_t clamped() const { return counters_.clamped; }
  std::size_t sealed_segments() const {
    ensure_drained();
    return columns_.sealed_segments();
  }
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

  // --- segment-granular HA export/restore -------------------------------------

  /// Encoded blob per sealed segment, oldest first.
  std::vector<std::vector<std::uint8_t>> export_segment_blobs() const;
  /// Open-segment + staging rows as one row-batch blob (empty vector when
  /// there are none).
  std::vector<std::uint8_t> export_open_rows() const;

  /// Row-batch blob codec (also used for live event replication).
  static std::vector<std::uint8_t> encode_rows(std::span<const NetworkEvent> rows);
  static std::optional<std::vector<NetworkEvent>> decode_rows(
      std::span<const std::uint8_t> blob);

  /// O(1) header read over a row-batch blob: row count and max id straight
  /// from the header, no row walk. Validates magic/version, a minimum
  /// body size for the claimed count, and id-range sanity; full byte
  /// accounting (and header-vs-rows id agreement) is enforced by decode_rows
  /// when the blob is consumed. Nullopt on corrupt input.
  struct RowsPeek {
    std::uint32_t count = 0;
    std::uint64_t id_max = 0;
  };
  static std::optional<RowsPeek> peek_rows(std::span<const std::uint8_t> blob);

  /// Restores one sealed segment from its blob. Rows with already-seen ids
  /// are skipped (snapshot/log overlap dedupe). False on corrupt input.
  bool restore_segment(std::span<const std::uint8_t> blob);
  /// Restores a row batch (ids preserved, duplicates skipped). False on
  /// corrupt input.
  bool restore_rows(std::span<const std::uint8_t> blob);

  /// Lazily restores a row batch: the blob is validated (peek_rows) and
  /// parked undigested; a later sealed-segment stash/restore covering its
  /// ids discards it wholesale, so a standby never pays per-row ingestion
  /// for rows a segment will supersede anyway. Survivors are materialized
  /// (restore_rows) on the first read, live append, or when the stash
  /// exceeds two segments' worth of rows. False on corrupt input.
  bool stash_rows(SharedBlob blob);

  /// Lazily restores a sealed segment: the blob's zone header is validated
  /// and the (refcounted) blob parked undecoded, superseding any stashed row
  /// batches it covers. Decoding, rollup folds and retention run at the
  /// first read — a replica that is never read (the steady-state standby)
  /// pays O(1) per segment. False on corrupt input.
  bool stash_segment(SharedBlob blob);

 private:
  /// Clamp + id assignment + rollup + staging for one live row.
  std::uint64_t ingest(NetworkEvent&& event);
  /// Same, for a restored row that keeps its id.
  void ingest_restored(NetworkEvent&& event);
  /// Pushes one row into staging_, reserving staging_rows on first use.
  void stage(NetworkEvent&& event);
  void drain_staging();
  void enforce_retention();
  SegmentSummary summarize(const Segment& segment) const;

  /// Materializes deferred restore state: folds clean-tail-restored segments
  /// into the rollups, then row-restores every stashed blob, in arrival
  /// order.
  void drain_stash();
  /// Lazy-materialization point for the read APIs: the deferred state is an
  /// internal representation choice, so const queries drain it on demand.
  void ensure_drained() const {
    if (!stash_.empty() || !rollup_pending_.empty()) {
      const_cast<EventPipeline*>(this)->drain_stash();
    }
  }

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
  std::function<void(const Segment&)> seal_observer_;
  /// True while a restore is draining rows: seals it causes are replays of
  /// segments sealed elsewhere, so the seal observer stays quiet.
  bool restoring_ = false;

  /// Undigested blobs from stash_rows/stash_segment, in arrival order.
  struct StashEntry {
    bool segment = false;
    std::uint64_t id_max = 0;
    std::uint32_t rows = 0;  // row count (batches only; 0 for segments)
    SharedBlob blob;
  };
  std::deque<StashEntry> stash_;
  std::size_t stash_rows_count_ = 0;
  std::size_t stash_segment_count_ = 0;
  /// zone().id_min of sealed segments restored via the clean-tail fast path
  /// whose rows have not been folded into the rollups yet, oldest first.
  std::deque<std::uint64_t> rollup_pending_;
};

}  // namespace livesec::mon
