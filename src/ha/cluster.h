// Active-standby controller cluster: failure detection, mastership handover
// and the replication fabric between controller instances.
//
// The paper runs one NOX controller (§III.C); a production deployment of
// LiveSec needs the controller to survive machine loss. HaCluster runs N
// ctrl::Controller instances over the same simulated network:
//  - node 0 starts as the ACTIVE: its secure channels are connected and it
//    publishes every state mutation through the ReplicationSink interface;
//  - the remaining nodes are STANDBYS: they hold unconnected channels to
//    every switch and apply the replicated record stream;
//  - cluster heartbeats detect active death; the lowest-index live standby
//    is promoted, catches up from the replication log (or a snapshot when
//    the log was truncated past its position), reconnects the switches and
//    audits their flow tables against the replicated state.
//
// Replication runs through a group-commit pipeline (DESIGN.md §13): records
// buffer for a flush window (byte/count threshold or flush timer), same-key
// refreshes coalesce, and the window ships as ONE encoded frame costing one
// sim event per standby instead of one per record. Snapshots are incremental:
// every flushed record also folds into a SnapshotStore, so the snapshot tick
// is O(new records) and a lagging standby bootstraps from the folded state in
// bounded chunks instead of one synchronous full-state import.
//
// The replication channel is deliberately imperfect: a FaultPlan can drop,
// delay, reorder or corrupt deliveries (seeded, reproducible; one draw now
// covers a whole frame). Standbys apply records strictly in sequence-number
// order, buffering out-of-order arrivals; a periodic resync fetches gaps from
// the log — the reliable catch-up path a real deployment would implement as a
// fetch over TCP from the shared log.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "controller/controller.h"
#include "ha/fault_plan.h"
#include "ha/pipeline.h"
#include "ha/replication.h"
#include "ha/snapshot.h"
#include "openflow/channel.h"
#include "switching/openflow_switch.h"

namespace livesec::ha {

class HaCluster : public ReplicationSink {
 public:
  struct Config {
    /// Active -> standby liveness pulse period.
    SimTime heartbeat_interval = 50 * kMillisecond;
    /// Pulses missed before the active is declared dead.
    std::uint32_t heartbeat_miss_threshold = 3;
    /// One-way latency of a replication record delivery.
    SimTime replication_latency = 200 * kMicrosecond;
    /// Lag cap: every period the log truncates to its head, stranding any
    /// standby still behind into a snapshot import (0 = no cap).
    SimTime snapshot_interval = 5 * kSecond;
    /// How often standbys check for (and repair) sequence gaps; each tick
    /// then truncates the log to the slowest live standby's position.
    SimTime resync_interval = 100 * kMillisecond;
    /// Delay between switch re-handshake and the post-failover audit — long
    /// enough for every reconnect's FeaturesReply to land.
    SimTime reconcile_delay = 2 * kMillisecond;

    /// Flush the pending window at this many live records…
    std::size_t replication_flush_records = 128;
    /// …or at this estimated wire size…
    std::size_t replication_flush_bytes = 16 * 1024;
    /// …or this long after the first record entered an empty window (a
    /// one-shot timer, so an idle cluster schedules nothing).
    SimTime replication_flush_interval = kMillisecond;
    /// Records applied per sim event while a standby imports a snapshot
    /// (bounds the work one event does at million-host state sizes).
    std::size_t snapshot_import_chunk = 4096;
  };

  enum class Role : std::uint8_t { kActive, kStandby, kCrashed };

  struct HaStats {
    std::uint64_t records_published = 0;
    std::uint64_t records_dropped = 0;  // fault-injected losses
    std::uint64_t records_delayed = 0;  // fault-injected delays + reorders
    std::uint64_t duplicates_ignored = 0;
    std::uint64_t retransmits = 0;  // records served from the log on resync
    std::uint64_t snapshots_taken = 0;
    std::uint64_t snapshots_imported = 0;
    std::uint64_t crashes = 0;
    std::uint64_t failovers = 0;
    SimTime last_crash_at = 0;
    SimTime last_promotion_at = 0;
    // Group-commit pipeline (DESIGN.md §13).
    std::uint64_t frames_published = 0;     // flush windows shipped
    std::uint64_t bytes_published = 0;      // encoded frame bytes, pre fan-out
    std::uint64_t records_coalesced = 0;    // same-key refreshes merged away
    std::uint64_t deliveries_scheduled = 0; // sim events spent on fan-out
    std::uint64_t decode_failures = 0;      // corrupt deliveries and event blobs rejected
    std::uint64_t snapshot_chunks_applied = 0;
  };

  HaCluster(sim::Simulator& sim, Config config, FaultPlan plan = {});

  /// Registers a controller instance. The first added becomes the initial
  /// active (and this cluster its replication sink). Call before start().
  void add_node(ctrl::Controller& controller);

  /// Registers a switch: every node gets its own secure channel to it; the
  /// active's is `active_channel` (already connected by the caller), the
  /// standbys' are created here and stay down until promotion.
  void manage_switch(sw::OpenFlowSwitch& sw, of::SecureChannel& active_channel,
                     topo::NodeKind kind = topo::NodeKind::kAsSwitch);

  /// Launches heartbeats, resync, snapshots and the FaultPlan's timers.
  void start();

  /// Kills the active instance: replication stops, its channels close, and
  /// nothing is processed by it again. Detection + promotion follow from the
  /// heartbeat machinery. Pending pipelined records flush first — a crash
  /// loses nothing the active had already committed.
  void crash_active();

  /// Control-plane partition of one switch: the channel to the current
  /// active stays "connected" but loses everything (OFPT_ECHO liveness is
  /// what notices). heal reverses it and re-handshakes with the active.
  void partition_switch(DatapathId dpid);
  void heal_switch(DatapathId dpid);

  /// Routes every cluster-owned channel through the wire codec.
  void enable_wire_encoding();

  /// Ships the pending flush window now (no-op when empty): assigns seqs,
  /// folds the window into the snapshot store and fans the encoded frame out
  /// to standbys. Tests and the bench use this to quiesce the pipeline
  /// deterministically.
  void flush_replication();

  // --- ReplicationSink --------------------------------------------------------
  void replicate(RecordBody body) override;

  // --- observability ----------------------------------------------------------
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t active_index() const { return active_; }
  ctrl::Controller& active_controller() { return *nodes_[active_].controller; }
  const ctrl::Controller& active_controller() const { return *nodes_[active_].controller; }
  ctrl::Controller& node_controller(std::size_t node) { return *nodes_[node].controller; }
  Role role(std::size_t node) const { return nodes_[node].role; }
  std::uint64_t applied_seq(std::size_t node) const { return nodes_[node].applied_seq; }
  bool importing(std::size_t node) const { return nodes_[node].importing; }
  const ReplicationLog& log() const { return log_; }
  const HaStats& stats() const { return stats_; }
  const ReplicationPipeline& pipeline() const { return pipeline_; }
  const SnapshotStore& snapshot_store() const { return store_; }
  /// JSON object for the WebUI's HA status panel.
  std::string status_json() const;
  /// Human-readable HA panel (the WebUI's text rendering).
  std::string status_text() const;

 private:
  struct Node {
    ctrl::Controller* controller = nullptr;
    Role role = Role::kStandby;
    /// Highest sequence number applied contiguously.
    std::uint64_t applied_seq = 0;
    /// Records that arrived ahead of a gap, keyed by seq.
    std::map<std::uint64_t, RecordBody> held;
    /// Chunked snapshot import in progress: live deliveries are dropped
    /// (resync repairs the tail once the import lands).
    bool importing = false;
    std::vector<RecordBody> import_records;
    std::size_t import_pos = 0;
    /// Log position the import snapshot covers.
    std::uint64_t import_through = 0;
  };

  struct ManagedSwitch {
    sw::OpenFlowSwitch* sw = nullptr;
    DatapathId dpid = 0;
    topo::NodeKind kind = topo::NodeKind::kAsSwitch;
    /// Channel per node; [0] aliases the caller-owned active channel.
    std::vector<of::SecureChannel*> channels;
    bool partitioned = false;
  };

  void deliver(std::size_t node_index, const ReplicationRecord& record);
  void deliver_frame(std::size_t node_index, const std::vector<std::uint8_t>& bytes);
  /// Arms the one-shot flush timer when the window just went non-empty.
  void arm_flush_timer();
  /// Starts a chunked snapshot import for a standby that lags past the
  /// log's truncation point.
  void begin_import(std::size_t node_index);
  /// Applies one import chunk; returns true while chunks remain.
  bool apply_import_chunk(std::size_t node_index);
  void import_chunk_tick(std::size_t node_index);
  void finish_import(Node& node);
  /// Applies every log record past the node's position; imports the latest
  /// snapshot first when the log no longer reaches back far enough.
  void catch_up(Node& node, bool count_retransmits);
  void promote_next();
  void heartbeat_tick();
  void resync_tick();
  void snapshot_tick();

  sim::Simulator* sim_;
  Config config_;
  FaultPlan plan_;
  Rng rng_;

  std::vector<Node> nodes_;
  std::vector<ManagedSwitch> switches_;
  /// Channels created for standby nodes (active channels are caller-owned).
  std::vector<std::unique_ptr<of::SecureChannel>> owned_channels_;

  ReplicationLog log_;
  ReplicationPipeline pipeline_;
  bool flush_armed_ = false;
  /// Folded incremental snapshot: covers every flushed record, so bootstrap
  /// never walks the active's full state.
  SnapshotStore store_;
  /// Log head at the last lag-cap tick (reported in the status panels).
  std::uint64_t snapshot_through_ = 0;

  std::size_t active_ = 0;
  SimTime last_heartbeat_ = 0;
  bool started_ = false;
  bool wire_encoding_ = false;
  HaStats stats_;
};

}  // namespace livesec::ha
