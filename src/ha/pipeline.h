// Group-commit replication pipeline (DESIGN.md §13). The active controller
// publishes one record per state mutation; at campus churn that used to cost
// one encode + one sim event per record per standby. The pipeline buffers
// records for a flush window (byte/count threshold or the cluster's flush
// timer) so a whole window ships as a single varint/dictionary-packed frame —
// one delivery event per standby per window.
//
// Within a window, pure last-writer-wins refreshes for the same key coalesce:
// a later record replaces the earlier one *at the tail position* (publish
// order is preserved for the survivor; sequence numbers are only assigned at
// flush, so coalescing never leaves holes in the log). Guardrails:
//  - Only host learns, DHCP leases and SE upserts ever coalesce, and only
//    when the fields that carry apply-time side effects match: a host/lease
//    refresh must keep the same IP (an IP change displaces the previous
//    holder on apply — dropping the earlier record would skip that
//    displacement on standbys), an SE refresh the same MAC + IP.
//  - A removal (HostRemoved / DhcpRelease / SeRemoved) fences its key: later
//    records for the key never coalesce back across it. A DHCP pool
//    reconfiguration fences every lease key (applying it resets the pool).
//  - Everything else — epoch bumps, promotions-era records, policy changes,
//    switch state, flow verdicts, event batches — never merges.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "ha/replication.h"

namespace livesec::ha {

class ReplicationPipeline {
 public:
  struct Config {
    /// Flush when this many live records are pending.
    std::size_t flush_records = 128;
    /// Flush when the pending window's estimated wire size reaches this.
    std::size_t flush_bytes = 16 * 1024;
  };

  struct Stats {
    std::uint64_t records_buffered = 0;   // add() calls
    std::uint64_t records_coalesced = 0;  // earlier duplicates dropped
    std::uint64_t size_flushes = 0;       // threshold-triggered (vs timer) flushes
  };

  ReplicationPipeline() = default;
  explicit ReplicationPipeline(Config config) : config_(config) {}

  /// Buffers one record. Returns true when a byte/count threshold is
  /// reached and the caller should flush now instead of waiting for the
  /// flush timer.
  bool add(RecordBody body);

  bool empty() const { return live_ == 0; }
  /// Live (non-coalesced) records pending in the current window.
  std::size_t pending_records() const { return live_; }
  std::size_t pending_bytes() const { return bytes_; }

  /// Moves the window out in publish order (coalesced tombstones dropped)
  /// and resets the buffer.
  std::vector<RecordBody> take();

  const Stats& stats() const { return stats_; }
  const Config& config() const { return config_; }

 private:
  /// Coalescing-key domains; a key is (domain, id) with side-effect fields
  /// checked before an earlier record is dropped.
  enum class Domain : std::uint8_t { kHost, kDhcpLease, kSe };

  struct Slot {
    std::size_t index = 0;       // position in pending_
    std::uint64_t aux_mac = 0;   // SE upserts: NIC mac that must match
    std::uint32_t aux_ip = 0;    // IP that must match for a pure refresh
  };

  struct Pending {
    RecordBody body;
    bool alive = true;
  };

  void index_record(const RecordBody& body, std::size_t index);

  Config config_{};
  Stats stats_;
  std::vector<Pending> pending_;
  std::map<std::pair<std::uint8_t, std::uint64_t>, Slot> keys_;
  std::size_t live_ = 0;
  std::size_t bytes_ = 0;
};

}  // namespace livesec::ha
