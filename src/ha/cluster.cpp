#include "ha/cluster.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "sim/simulator.h"

namespace livesec::ha {

namespace {
const char* role_name(HaCluster::Role role) {
  switch (role) {
    case HaCluster::Role::kActive: return "active";
    case HaCluster::Role::kStandby: return "standby";
    case HaCluster::Role::kCrashed: return "crashed";
  }
  return "?";
}
}  // namespace

HaCluster::HaCluster(sim::Simulator& sim, Config config, FaultPlan plan)
    : sim_(&sim),
      config_(config),
      plan_(plan),
      rng_(plan.seed),
      pipeline_(ReplicationPipeline::Config{config.replication_flush_records,
                                            config.replication_flush_bytes}) {}

void HaCluster::add_node(ctrl::Controller& controller) {
  assert(switches_.empty() && "add every node before managing switches");
  Node node;
  node.controller = &controller;
  if (nodes_.empty()) {
    node.role = Role::kActive;
    controller.set_replication_sink(this);
    store_ = SnapshotStore(SnapshotStore::event_rows_for(controller.events().config()));
  }
  nodes_.push_back(std::move(node));
}

void HaCluster::manage_switch(sw::OpenFlowSwitch& sw, of::SecureChannel& active_channel,
                              topo::NodeKind kind) {
  assert(!nodes_.empty() && "add nodes before switches");
  ManagedSwitch ms;
  ms.sw = &sw;
  ms.dpid = sw.datapath_id();
  ms.kind = kind;
  ms.channels.resize(nodes_.size(), nullptr);
  ms.channels[0] = &active_channel;
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    owned_channels_.push_back(std::make_unique<of::SecureChannel>(
        *sim_, sw, *nodes_[i].controller, active_channel.latency()));
    owned_channels_.back()->set_wire_encoding(wire_encoding_);
    ms.channels[i] = owned_channels_.back().get();
    // The standby learns the channel now so promotion only has to connect it.
    nodes_[i].controller->attach_channel(ms.dpid, *ms.channels[i], kind);
  }
  switches_.push_back(std::move(ms));
}

void HaCluster::start() {
  if (started_) return;
  started_ = true;
  last_heartbeat_ = sim_->now();
  sim_->schedule(config_.heartbeat_interval, [this] { heartbeat_tick(); });
  sim_->schedule(config_.resync_interval, [this] { resync_tick(); });
  if (config_.snapshot_interval > 0) {
    sim_->schedule(config_.snapshot_interval, [this] { snapshot_tick(); });
  }
  if (plan_.crash_active_at > 0) {
    sim_->schedule_at(plan_.crash_active_at, [this] { crash_active(); });
  }
  if (plan_.partition_dpid != 0 && plan_.partition_at > 0) {
    sim_->schedule_at(plan_.partition_at, [this] { partition_switch(plan_.partition_dpid); });
    if (plan_.partition_heal_at > plan_.partition_at) {
      sim_->schedule_at(plan_.partition_heal_at, [this] { heal_switch(plan_.partition_dpid); });
    }
  }
}

void HaCluster::enable_wire_encoding() {
  wire_encoding_ = true;
  for (auto& channel : owned_channels_) channel->set_wire_encoding(true);
}

// --- replication fan-out -----------------------------------------------------

void HaCluster::replicate(RecordBody body) {
  ++stats_.records_published;
  if (pipeline_.add(std::move(body))) {
    flush_replication();  // byte/count threshold reached
  } else {
    arm_flush_timer();
  }
}

void HaCluster::arm_flush_timer() {
  // One-shot: armed when the window goes non-empty, so an idle cluster keeps
  // no recurring event alive (and a bare sim.run() still terminates).
  if (flush_armed_ || pipeline_.empty()) return;
  flush_armed_ = true;
  sim_->schedule(config_.replication_flush_interval, [this] { flush_replication(); });
}

void HaCluster::flush_replication() {
  flush_armed_ = false;
  if (pipeline_.empty()) return;

  ReplicationFrame frame;
  frame.records = pipeline_.take();
  frame.base_seq = log_.head_seq() + 1;
  // Sequence numbers are assigned here — after coalescing — so the log and
  // every frame carry consecutive seqs with no holes.
  for (const RecordBody& body : frame.records) {
    log_.append(body);
    store_.fold(body);
  }
  ++stats_.frames_published;
  stats_.records_coalesced = pipeline_.stats().records_coalesced;

  bool any_standby = false;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (i != active_ && nodes_[i].role == Role::kStandby) any_standby = true;
  }
  if (!any_standby) return;

  // Encode once; every standby's delivery shares the same immutable buffer.
  auto bytes = std::make_shared<const std::vector<std::uint8_t>>(encode_frame(frame));
  stats_.bytes_published += bytes->size();
  const std::uint64_t frame_records = frame.records.size();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (i == active_ || nodes_[i].role != Role::kStandby) continue;
    if (plan_.replication_drop_probability > 0 &&
        rng_.chance(plan_.replication_drop_probability)) {
      stats_.records_dropped += frame_records;  // one draw loses the frame
      continue;
    }
    SimTime delay = config_.replication_latency;
    if (plan_.replication_delay_probability > 0 &&
        rng_.chance(plan_.replication_delay_probability)) {
      delay += plan_.replication_extra_delay;
      stats_.records_delayed += frame_records;
    } else if (plan_.replication_reorder_probability > 0 &&
               rng_.chance(plan_.replication_reorder_probability)) {
      // Held just long enough for frames published after it to overtake.
      delay += 3 * config_.replication_latency;
      stats_.records_delayed += frame_records;
    }
    const bool corrupt = plan_.replication_corrupt_probability > 0 &&
                         rng_.chance(plan_.replication_corrupt_probability);
    ++stats_.deliveries_scheduled;
    sim_->schedule(delay, [this, i, bytes, corrupt] {
      if (!corrupt) {
        deliver_frame(i, *bytes);
        return;
      }
      std::vector<std::uint8_t> mutated = *bytes;
      if (mutated.size() > 2) mutated[2] ^= 0xFF;  // frame magic: must reject
      deliver_frame(i, mutated);
    });
  }
}

void HaCluster::deliver_frame(std::size_t node_index, const std::vector<std::uint8_t>& bytes) {
  auto frame = decode_frame(bytes);
  if (!frame) {
    ++stats_.decode_failures;  // resync repairs the hole
    return;
  }
  ReplicationRecord record;
  for (std::size_t k = 0; k < frame->records.size(); ++k) {
    record.seq = frame->base_seq + k;
    record.body = std::move(frame->records[k]);
    deliver(node_index, record);
  }
}

void HaCluster::deliver(std::size_t node_index, const ReplicationRecord& record) {
  Node& node = nodes_[node_index];
  if (node.role != Role::kStandby) return;  // promoted or crashed in flight
  if (node.importing) return;  // resync catches the tail once the import lands
  if (record.seq <= node.applied_seq) {
    ++stats_.duplicates_ignored;
    return;
  }
  if (record.seq != node.applied_seq + 1) {
    node.held.emplace(record.seq, record.body);  // gap: park until repaired
    return;
  }
  // A record whose payload the standby rejects (an event blob of another
  // codec version) is consumed and counted; resync cannot repair it.
  if (!node.controller->apply_replicated(record.body)) ++stats_.decode_failures;
  node.applied_seq = record.seq;
  // Drain any held records the gap was hiding.
  auto it = node.held.begin();
  while (it != node.held.end() && it->first <= node.applied_seq + 1) {
    if (it->first == node.applied_seq + 1) {
      if (!node.controller->apply_replicated(it->second)) ++stats_.decode_failures;
      node.applied_seq = it->first;
    }
    it = node.held.erase(it);
  }
}

// --- catch-up + chunked import -----------------------------------------------

void HaCluster::catch_up(Node& node, bool count_retransmits) {
  if (!log_.reaches(node.applied_seq)) {
    // The log was truncated past this node's position: bootstrap from the
    // snapshot, then take the remaining tail from the log. The folded store
    // covers every flushed record, i.e. the log head.
    node.controller->import_snapshot(store_.export_records());
    node.applied_seq = log_.head_seq();
    node.held.clear();
    ++stats_.snapshots_imported;
  }
  // Stream the retained tail in place — no materialized copy.
  log_.visit_since(node.applied_seq, [&](const ReplicationRecord& record) {
    if (!node.controller->apply_replicated(record.body)) ++stats_.decode_failures;
    node.applied_seq = record.seq;
    if (count_retransmits) ++stats_.retransmits;
  });
  node.held.clear();
}

void HaCluster::begin_import(std::size_t node_index) {
  Node& node = nodes_[node_index];
  node.importing = true;
  node.import_records = store_.export_records();
  node.import_pos = 0;
  node.import_through = log_.head_seq();
  node.held.clear();
  node.controller->reset_for_import();
  ++stats_.snapshots_imported;
  import_chunk_tick(node_index);  // first chunk now, the rest across events
}

bool HaCluster::apply_import_chunk(std::size_t node_index) {
  Node& node = nodes_[node_index];
  const std::size_t end = std::min(node.import_pos + config_.snapshot_import_chunk,
                                   node.import_records.size());
  for (; node.import_pos < end; ++node.import_pos) {
    if (!node.controller->apply_replicated(node.import_records[node.import_pos])) {
      ++stats_.decode_failures;
    }
  }
  ++stats_.snapshot_chunks_applied;
  if (node.import_pos < node.import_records.size()) return true;
  finish_import(node);
  return false;
}

void HaCluster::import_chunk_tick(std::size_t node_index) {
  Node& node = nodes_[node_index];
  if (!node.importing || node.role != Role::kStandby) return;
  if (apply_import_chunk(node_index)) {
    sim_->schedule(config_.replication_latency,
                   [this, node_index] { import_chunk_tick(node_index); });
  }
}

void HaCluster::finish_import(Node& node) {
  node.importing = false;
  node.import_records.clear();
  node.import_records.shrink_to_fit();
  node.import_pos = 0;
  node.applied_seq = std::max(node.applied_seq, node.import_through);
  node.held.clear();
}

// --- periodic machinery ------------------------------------------------------

void HaCluster::heartbeat_tick() {
  if (nodes_[active_].role == Role::kActive) {
    last_heartbeat_ = sim_->now();
  } else if (sim_->now() - last_heartbeat_ >=
             static_cast<SimTime>(config_.heartbeat_miss_threshold) *
                 config_.heartbeat_interval) {
    promote_next();
  }
  if (started_) sim_->schedule(config_.heartbeat_interval, [this] { heartbeat_tick(); });
}

void HaCluster::resync_tick() {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = nodes_[i];
    if (node.role != Role::kStandby || node.importing) continue;
    if (node.applied_seq >= log_.head_seq()) continue;
    if (!log_.reaches(node.applied_seq)) {
      begin_import(i);  // bounded chunks, not one synchronous full import
      continue;
    }
    catch_up(node, true);
  }
  // Drop what every live standby has applied (an importing one still needs
  // the tail past its snapshot). Never passing a standby's position, this
  // strands none into an import; only snapshot_tick, the lag cap, does.
  std::uint64_t horizon = log_.head_seq();
  for (const Node& node : nodes_) {
    if (node.role != Role::kStandby) continue;
    horizon = std::min(horizon, node.importing ? node.import_through : node.applied_seq);
  }
  log_.truncate(horizon);
  if (started_) sim_->schedule(config_.resync_interval, [this] { resync_tick(); });
}

void HaCluster::snapshot_tick() {
  if (nodes_[active_].role == Role::kActive) {
    // The folded store IS the snapshot; the tick only applies the lag cap
    // (truncate to the head), never a full-state export.
    snapshot_through_ = log_.head_seq();
    log_.truncate(snapshot_through_);
    ++stats_.snapshots_taken;
  }
  if (started_) sim_->schedule(config_.snapshot_interval, [this] { snapshot_tick(); });
}

// --- failure + recovery ------------------------------------------------------

void HaCluster::crash_active() {
  Node& node = nodes_[active_];
  if (node.role != Role::kActive) return;
  // Ship the pending window with normal fan-out before the process "dies":
  // everything the active committed before the crash instant reaches the
  // log, so promotion sees every record published before the crash.
  flush_replication();
  node.role = Role::kCrashed;
  node.controller->set_replication_sink(nullptr);
  // Process death closes its control connections; switches experience a
  // controller outage (table misses drop) until a standby takes over.
  for (auto& ms : switches_) {
    if (ms.channels[active_]->connected()) ms.channels[active_]->disconnect();
  }
  ++stats_.crashes;
  stats_.last_crash_at = sim_->now();
}

void HaCluster::promote_next() {
  std::size_t next = nodes_.size();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].role == Role::kStandby) {
      next = i;
      break;
    }
  }
  if (next == nodes_.size()) return;  // cluster exhausted

  Node& node = nodes_[next];
  // A half-finished chunked import must land before the node takes writes;
  // promotion is the one place bounded slicing gives way to urgency.
  while (node.importing) apply_import_chunk(next);
  // Apply everything the log knows before taking writes of our own.
  catch_up(node, false);
  node.role = Role::kActive;
  active_ = next;
  node.controller->set_replication_sink(this);
  node.controller->note_promoted();

  // Point every reachable switch at the new active's channel.
  for (auto& ms : switches_) {
    if (ms.partitioned) continue;
    ms.sw->connect_controller(*ms.channels[next]);
  }

  ++stats_.failovers;
  stats_.last_promotion_at = sim_->now();
  last_heartbeat_ = sim_->now();

  // Audit the switches once the re-handshakes have landed.
  sim_->schedule(config_.reconcile_delay,
                 [this] { nodes_[active_].controller->begin_reconciliation(); });
}

void HaCluster::partition_switch(DatapathId dpid) {
  for (auto& ms : switches_) {
    if (ms.dpid != dpid) continue;
    ms.partitioned = true;
    ms.channels[active_]->set_blackhole(true);
    return;
  }
}

void HaCluster::heal_switch(DatapathId dpid) {
  for (auto& ms : switches_) {
    if (ms.dpid != dpid) continue;
    ms.partitioned = false;
    // The active may have changed while partitioned; clear the blackhole
    // everywhere and re-handshake with whoever is active now.
    for (auto* channel : ms.channels) channel->set_blackhole(false);
    of::SecureChannel* channel = ms.channels[active_];
    // Echo liveness likely declared the switch dead during the partition;
    // cycle the channel so both ends agree the connection is fresh.
    if (channel->connected()) channel->disconnect();
    ms.sw->connect_controller(*channel);
    return;
  }
}

// --- observability -----------------------------------------------------------

std::string HaCluster::status_json() const {
  std::ostringstream out;
  out << "{\"active\":" << active_ << ",\"nodes\":[";
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (i > 0) out << ",";
    out << "{\"role\":\"" << role_name(nodes_[i].role)
        << "\",\"applied_seq\":" << nodes_[i].applied_seq
        << ",\"importing\":" << (nodes_[i].importing ? "true" : "false")
        << ",\"epoch\":" << nodes_[i].controller->epoch() << "}";
  }
  out << "],\"log\":{\"head\":" << log_.head_seq() << ",\"base\":" << log_.base_seq()
      << ",\"size\":" << log_.size() << ",\"truncated_through\":" << log_.truncated_through()
      << "}"
      << ",\"snapshot_through\":" << snapshot_through_
      << ",\"records_published\":" << stats_.records_published
      << ",\"records_dropped\":" << stats_.records_dropped
      << ",\"records_delayed\":" << stats_.records_delayed
      << ",\"duplicates_ignored\":" << stats_.duplicates_ignored
      << ",\"retransmits\":" << stats_.retransmits
      << ",\"snapshots_taken\":" << stats_.snapshots_taken
      << ",\"snapshots_imported\":" << stats_.snapshots_imported
      << ",\"crashes\":" << stats_.crashes << ",\"failovers\":" << stats_.failovers
      << ",\"last_crash_at\":" << stats_.last_crash_at
      << ",\"last_promotion_at\":" << stats_.last_promotion_at
      << ",\"frames_published\":" << stats_.frames_published
      << ",\"bytes_published\":" << stats_.bytes_published
      << ",\"records_coalesced\":" << stats_.records_coalesced
      << ",\"deliveries_scheduled\":" << stats_.deliveries_scheduled
      << ",\"decode_failures\":" << stats_.decode_failures
      << ",\"snapshot_chunks_applied\":" << stats_.snapshot_chunks_applied
      << ",\"snapshot_entries\":" << store_.entry_count() << "}";
  return out.str();
}

std::string HaCluster::status_text() const {
  std::ostringstream out;
  out << "HA cluster: active=node" << active_ << "\n";
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    out << "  node" << i << ": " << role_name(nodes_[i].role)
        << " applied_seq=" << nodes_[i].applied_seq
        << (nodes_[i].importing ? " (importing)" : "") << "\n";
  }
  out << "  log: head=" << log_.head_seq() << " base=" << log_.base_seq()
      << " size=" << log_.size() << " truncated_through=" << log_.truncated_through()
      << " snapshot_through=" << snapshot_through_ << "\n"
      << "  records: published=" << stats_.records_published
      << " coalesced=" << stats_.records_coalesced
      << " dropped=" << stats_.records_dropped << " delayed=" << stats_.records_delayed
      << " retransmits=" << stats_.retransmits << "\n"
      << "  frames: published=" << stats_.frames_published
      << " bytes=" << stats_.bytes_published
      << " deliveries=" << stats_.deliveries_scheduled
      << " decode_failures=" << stats_.decode_failures << "\n"
      << "  snapshots: taken=" << stats_.snapshots_taken
      << " imported=" << stats_.snapshots_imported
      << " chunks_applied=" << stats_.snapshot_chunks_applied
      << " entries=" << store_.entry_count() << "\n"
      << "  failovers=" << stats_.failovers << " crashes=" << stats_.crashes << "\n";
  return out.str();
}

}  // namespace livesec::ha
