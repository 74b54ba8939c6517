// The LiveSec controller: centralized security management for the
// Access-Switching layer (paper §III-IV). Developed against the NOX API in
// the paper; here it is a self-contained event-driven C++ class.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_hash.h"
#include "controller/certification.h"
#include "controller/decision_cache.h"
#include "controller/dhcp_pool.h"
#include "controller/discovery.h"
#include "controller/load_balancer.h"
#include "controller/policy.h"
#include "controller/routing_table.h"
#include "controller/service_registry.h"
#include "controller/session_table.h"
#include "ha/replication.h"
#include "monitor/event_pipeline.h"
#include "monitor/monitoring.h"
#include "openflow/channel.h"
#include "services/verdict_cache.h"
#include "topology/topology_graph.h"

namespace livesec::sim {
class Simulator;
}

namespace livesec::ctrl {

/// Central LiveSec controller. One instance manages every AS switch via
/// secure channels and implements:
///  - topology & location discovery (LLDP + ARP packet-ins, §III.C.1-2)
///  - the ARP directory proxy (§III.C.2)
///  - abstract two-hop end-to-end routing (§III.C.3)
///  - interactive policy enforcement incl. SE redirection and event-driven
///    blocking (§IV.A)
///  - the SE registry, certification and load balancing (§III.D.1, §IV.B)
///  - service-aware monitoring, aggregate flow control and the event
///    database feeding the WebUI (§IV.C-D)
class Controller : public of::ControllerEndpoint {
 public:
  struct Config {
    std::uint64_t cert_secret = 0x4C697665536563ull;  // "LiveSec"
    SimTime host_timeout = 120 * kSecond;
    SimTime se_liveness_timeout = 6 * kSecond;
    SimTime housekeeping_interval = 2 * kSecond;
    /// Idle timeout stamped on installed data-path entries; expiry produces
    /// FlowRemoved -> FlowEnd events.
    SimTime flow_idle_timeout = 10 * kSecond;
    PolicyAction default_action = PolicyAction::kAllow;
    LbStrategy lb_strategy = LbStrategy::kMinLoad;
    /// Send LLDP discovery rounds periodically (0 = only on switch join).
    SimTime lldp_interval = 0;
    /// Poll switch statistics every interval (0 = off). Feeds the WebUI's
    /// per-switch load view (paper §IV.D: "load condition of links").
    SimTime stats_interval = 0;
    /// OFPT_ECHO liveness probing of switch channels (0 = off). A channel
    /// that stays "connected" but silently loses traffic — a network
    /// partition as TCP sees it — is only detectable this way. A switch
    /// missing echo replies for three intervals is declared disconnected.
    SimTime switch_echo_interval = 0;
    /// Event-database full-fidelity row bound (0 = unbounded). Campus-scale
    /// runs bound it so churn events cannot grow controller memory without
    /// limit; the monitoring pipeline maps it onto its retention tiers
    /// (full segments -> summaries -> evicted, DESIGN.md §12).
    std::size_t event_store_capacity = 0;
    /// Live event replication: raised events are buffered and shipped to
    /// standbys as one event-batch record per this many rows (the
    /// housekeeping tick flushes partial batches, so a quiet period still
    /// drains promptly). 0 disables it. Sized so the per-record and
    /// per-frame fixed costs amortize out of the hot ingest path; the
    /// standby's replay window only lags by at most this many telemetry
    /// rows between ticks.
    std::size_t event_replication_batch = 256;
  };

  Controller(sim::Simulator& sim, Config config);
  Controller(sim::Simulator& sim);

  // --- wiring ---------------------------------------------------------------
  /// Registers the channel used to reach a switch. Must be called before the
  /// switch connects. `kind` distinguishes OvS from OF Wi-Fi for the UI.
  void attach_channel(DatapathId dpid, of::SecureChannel& channel,
                      topo::NodeKind kind = topo::NodeKind::kAsSwitch);

  /// Administrator override: declare a switch's Legacy-Switching uplink
  /// port. LLDP discovery fills this automatically; explicit registration
  /// lets deployments skip the discovery round.
  void register_ls_port(DatapathId dpid, PortId port);
  std::optional<PortId> ls_port(DatapathId dpid) const { return discovery_.uplink(dpid); }

  // --- of::ControllerEndpoint -------------------------------------------------
  void handle_switch_connected(DatapathId dpid, const of::FeaturesReply& features) override;
  void handle_switch_disconnected(DatapathId dpid) override;
  void handle_switch_message(DatapathId dpid, const of::Message& message) override;

  // --- administration ---------------------------------------------------------
  PolicyTable& policies() { return policies_; }
  const PolicyTable& policies() const { return policies_; }
  mon::AggregateFlowControl& flow_control() { return flow_control_; }
  CertificationAuthority& certification() { return ca_; }
  LoadBalancer& load_balancer() { return lb_; }

  /// Configures a SPAN/mirror port on a switch: every flow entry the
  /// controller installs there gets an extra output to `port`, so a capture
  /// host on that port records the traffic (paper abstract: "historical
  /// traffic replay"). Affects entries installed after the call.
  void set_mirror_port(DatapathId dpid, PortId port) {
    mirror_ports_[dpid] = port;
    decisions_.invalidate();  // cached templates lack the mirror output
  }
  void clear_mirror_port(DatapathId dpid) {
    mirror_ports_.erase(dpid);
    decisions_.invalidate();
  }

  /// Enables the central DHCP service of the directory proxy: clients'
  /// DISCOVER/REQUEST packet-ins are answered from this pool.
  void enable_dhcp(Ipv4Address base, std::uint32_t size,
                   SimTime lease_duration = 3600 * kSecond);
  const DhcpPool* dhcp_pool() const { return dhcp_ ? &*dhcp_ : nullptr; }

  /// Starts periodic housekeeping (host/SE expiry; optional LLDP rounds).
  void start_housekeeping();

  /// Unblocks a previously blocked flow (admin action).
  bool unblock_flow(const pkt::FlowKey& key);

  /// Wires the shared fuzzy-hash verdict store (DESIGN.md §11). The
  /// controller learns SEs' firsthand VERDICTs into it, replicates them to
  /// standbys, and bumps its epoch whenever the security world changes
  /// (policy mutation, SE pool change, failover). Null = no verdict cache.
  void set_verdict_cache(std::shared_ptr<svc::VerdictCache> cache) {
    verdict_cache_ = std::move(cache);
  }
  const std::shared_ptr<svc::VerdictCache>& verdict_cache() const { return verdict_cache_; }

  // --- high availability ------------------------------------------------------
  /// Wires the sink through which every state mutation is replicated to
  /// standby controllers. Pass nullptr to stop replicating (a demoted or
  /// standby instance). The caller owns the sink.
  void set_replication_sink(ha::ReplicationSink* sink) { repl_sink_ = sink; }

  /// Applies one replicated record to this (standby) instance's state
  /// tables. Never touches switches: connectivity is per-controller.
  /// Returns false when the record's payload was rejected: an event blob
  /// that is corrupt or of another codec version.
  bool apply_replicated(const ha::RecordBody& body);

  /// The full state re-expressed as records, in deterministic order.
  /// Applying them onto a fresh controller reproduces the state.
  std::vector<ha::RecordBody> export_state() const;

  /// Resets replicated state ahead of a snapshot import. The chunked import
  /// path calls this once, then applies the snapshot's records in bounded
  /// slices via apply_replicated.
  void reset_for_import();

  /// Resets replicated state and applies a snapshot's records. Used when a
  /// standby lags past the active's log truncation point.
  void import_snapshot(const std::vector<ha::RecordBody>& records);

  /// Called when this standby takes mastership: bumps the epoch so no
  /// cached pre-failover decision (or cookie template) can replay, raises
  /// the failover event and starts housekeeping.
  void note_promoted();
  std::uint64_t epoch() const { return decisions_.epoch(); }

  /// Outcome of one post-failover flow-table audit.
  struct ReconcileReport {
    std::uint64_t switches_audited = 0;
    std::uint64_t entries_audited = 0;
    /// Entries deleted: orphaned drops, policy-denied forwards, flows with
    /// endpoints the replicated state never heard of.
    std::uint64_t stale_removed = 0;
    /// Ingress drops re-installed for replicated blocked flows the switch
    /// no longer carried.
    std::uint64_t drops_reinstalled = 0;
    SimTime completed_at = 0;  // 0 = no reconciliation has completed
  };

  /// Audits every connected switch's flow table against the replicated
  /// state (StatsRequest/StatsReply): stale entries are deleted, missing
  /// security drops re-installed. Runs asynchronously; reconcile_report()
  /// shows its progress.
  void begin_reconciliation();
  const ReconcileReport& reconcile_report() const { return reconcile_report_; }

  /// Channel backpressure, aggregated over every attached channel.
  std::uint64_t channel_outbox_dropped() const;
  std::size_t channel_backlog() const;

  std::size_t blocked_flow_count() const { return blocked_flows_.size(); }
  bool switch_connected(DatapathId dpid) const {
    auto it = switches_.find(dpid);
    return it != switches_.end() && it->second.connected;
  }

  // --- state queries (WebUI & tests) -----------------------------------------
  const RoutingTable& routing() const { return routing_; }
  const ServiceRegistry& services() const { return registry_; }
  const topo::TopologyGraph& topology() const { return topology_; }
  mon::EventPipeline& events() { return events_; }
  const mon::EventPipeline& events() const { return events_; }
  const mon::ServiceAwareMonitor& service_monitor() const { return monitor_; }
  bool flow_blocked(const pkt::FlowKey& key) const { return blocked_flows_.contains(key); }
  std::size_t active_flows() const { return session_table_.size(); }
  /// Bytes of the session slab (live and free slots) and its three indexes.
  std::size_t session_memory_bytes() const { return session_table_.memory_bytes(); }

  /// Rolling per-switch load derived from StatsReply deltas.
  struct SwitchLoad {
    std::uint64_t total_packets = 0;  // cumulative matched packets
    std::uint64_t total_bytes = 0;
    double packets_per_second = 0;    // over the last poll interval
    double bits_per_second = 0;
    std::size_t flow_count = 0;
    SimTime updated_at = 0;
  };

  /// Latest load snapshot for a switch (nullptr before the first poll).
  const SwitchLoad* switch_load(DatapathId dpid) const { return switch_loads_.find(dpid); }

  /// Issues a StatsRequest to every connected switch.
  void poll_stats();

  struct Stats {
    std::uint64_t packet_ins = 0;
    std::uint64_t flows_installed = 0;
    std::uint64_t flows_redirected = 0;
    std::uint64_t flows_denied = 0;
    std::uint64_t flows_blocked_by_event = 0;
    std::uint64_t daemon_messages = 0;
    std::uint64_t cert_rejections = 0;
    std::uint64_t arp_proxied = 0;
    std::uint64_t lldp_links = 0;
    /// Messages ignored because their dpid never attached a channel.
    std::uint64_t unknown_dpid_drops = 0;
    /// Switches declared dead because echo replies stopped arriving.
    std::uint64_t echo_timeouts = 0;
    /// VERDICT daemon messages received from SEs.
    std::uint64_t verdict_messages = 0;
    /// Flows cut through: redirect chain rewritten to the direct path.
    std::uint64_t flows_offloaded = 0;
    /// Flow setups served straight from the offload memo (direct install,
    /// no re-inspection).
    std::uint64_t offload_replays = 0;
    /// Offload memo entries dropped because their stamp went stale (policy
    /// mutation, host move, SE change, failover).
    std::uint64_t offload_invalidations = 0;
    /// VERDICTs SEs served from the shared verdict cache (from_cache flag).
    std::uint64_t cached_verdict_messages = 0;
    /// Firsthand verdicts this controller learned into the verdict cache.
    std::uint64_t verdict_cache_inserts = 0;
    /// Decision-cache and packet-in-suppression observability.
    mon::FastPathCounters fastpath;
  };
  const Stats& stats() const { return stats_; }

  // Fast-path state sizes (WebUI & tests).
  std::size_t decision_cache_size() const { return decisions_.size(); }
  std::size_t pending_setup_count() const { return pending_setups_.size(); }
  /// Hosts with at least one indexed active flow (scale observability).
  std::size_t host_flow_index_size() const { return session_table_.host_count(); }
  std::size_t offloaded_flow_count() const { return decisions_.offloads().size(); }
  bool flow_offloaded(const pkt::FlowKey& key) const { return decisions_.offloads().contains(key); }

  /// Entries currently installed for an active flow (tests assert the
  /// paper's 4-entry redirect shape and its rewrite on offload).
  std::vector<std::pair<DatapathId, of::Match>> flow_entries(const pkt::FlowKey& key) const {
    std::vector<std::pair<DatapathId, of::Match>> entries;
    if (const FlowRecord* record = session_table_.find(key)) {
      for (const PathStep& step : record->installed) {
        entries.emplace_back(step.dpid, SessionTable::entry_match(*record, step));
      }
    }
    return entries;
  }
  /// SE chain an active flow is steered through (empty after offload).
  std::vector<std::uint64_t> flow_se_ids(const pkt::FlowKey& key) const {
    const FlowRecord* record = session_table_.find(key);
    if (record == nullptr) return {};
    return {record->se_ids.begin(), record->se_ids.end()};
  }

 private:
  /// Priority of installed forwarding entries; security drops outrank it.
  static constexpr std::uint16_t kFlowPriority = 100;
  static constexpr std::uint16_t kDropPriority = 200;
  /// Pending-setup (packet-in suppression) table bounds: distinct flows
  /// parked, duplicate packet-ins remembered per flow, and how long a
  /// parked setup may wait before housekeeping drops it.
  static constexpr std::size_t kPendingSetupCapacity = 1024;
  static constexpr std::size_t kPendingWaitersPerFlow = 16;
  static constexpr SimTime kPendingSetupTimeout = 1 * kSecond;

  struct SwitchState {
    of::SecureChannel* channel = nullptr;
    topo::NodeKind kind = topo::NodeKind::kAsSwitch;
    std::uint32_t num_ports = 0;
    std::string name;
    bool connected = false;
    SimTime last_echo = 0;  // last proof of life (echo reply or connect)
  };

  /// One parked flow setup waiting for a missing precondition (host
  /// location, LS uplink). Duplicate packet-ins pile into `waiters` instead
  /// of recomputing; on completion the first waiter re-runs the setup and
  /// the rest are released through the installed ingress actions.
  struct PendingSetup {
    struct Waiter {
      DatapathId dpid = 0;
      PortId in_port = kInvalidPort;
      std::uint32_t buffer_id = 0;
    };
    std::vector<Waiter> waiters;
    pkt::PacketPtr packet;  // first packet, for the retry
    SimTime parked_at = 0;
  };

  /// The stamp of a decision or offload memo taken now.
  DecisionStamp current_stamp() const {
    return decisions_.stamp(policies_.version(), routing_.version(), registry_.version());
  }
  /// Computes the full decision for a class (policy, SE chain, per-switch
  /// templates). nullopt = a precondition is missing (park the setup).
  std::optional<CachedDecision> build_decision(const pkt::FlowKey& cls, const pkt::FlowKey& key);
  /// Replays a decision for one concrete flow: patches the templates,
  /// batches them out, and registers the flow record.
  void apply_decision(CachedDecision& decision, DatapathId dpid, const of::PacketIn& pin,
                      const pkt::FlowKey& key);
  /// Parks a setup whose decision could not be built yet.
  void park_setup(DatapathId dpid, const of::PacketIn& pin, const pkt::FlowKey& key);
  /// Retries the parked setups touching `host` (it may have just
  /// announced), or every one (topology knowledge changed).
  void retry_pending(std::optional<MacAddress> host = std::nullopt);
  /// Releases a packet buffered on a switch through a flow's ingress actions.
  void release_buffered(const PendingSetup::Waiter& waiter, const of::ActionList& actions);
  void expire_pending(SimTime now);

  // Message handlers.
  void on_packet_in(DatapathId dpid, const of::PacketIn& pin);
  void on_flow_removed(DatapathId dpid, const of::FlowRemoved& removed);
  void handle_lldp(DatapathId dpid, PortId in_port, const pkt::Packet& packet);
  void handle_daemon(DatapathId dpid, PortId in_port, const pkt::Packet& packet);
  void handle_daemon_event(const SeRecord& se, const svc::EventMessage& event);
  void handle_daemon_verdict(const SeRecord& se, const svc::VerdictMessage& verdict);
  /// Blocks `original` at its ingress switch (shared by security events and
  /// malicious verdicts); counts and reports a newly blocked session.
  void block_flow_at_ingress(const pkt::FlowKey& original, std::uint64_t se_id,
                             std::uint8_t severity);
  /// Bans `key` (blocked_flows_, replicated) and revokes its benign
  /// cut-through memo. The first time `record`, its live session, is
  /// blocked, this also turns its ingress entry into a drop. Returns
  /// whether it did.
  bool ban_flow(const pkt::FlowKey& key, FlowRecord* record);
  void handle_arp(DatapathId dpid, const of::PacketIn& pin);
  void handle_dhcp(DatapathId dpid, const of::PacketIn& pin);
  void handle_flow_setup(DatapathId dpid, const of::PacketIn& pin);

  /// Uninstalls every entry of one session and ends it. Used when an SE
  /// migrates or a host moves and the installed paths are stale.
  void teardown_session(std::uint32_t slot);
  /// Releases a session's app and load-balancer accounting, raises its
  /// FlowEnd with `detail` and closes it.
  void end_session(std::uint32_t slot, mon::Detail detail);
  /// Tears down the sessions in `slots` (a SessionTable query); returns
  /// how many.
  std::size_t teardown_sessions(const std::vector<std::uint32_t>& slots);
  /// Appends both directions' flow-mod templates for `key` from `src` to
  /// `dst` through `chain` (paper §III.C.3 and §IV.A) to `decision`, grouped
  /// per switch. Nothing is sent — apply_decision() replays the templates
  /// per flow. Returns false if a needed LS port is unknown.
  bool build_session_paths(const pkt::FlowKey& key, const HostLocation& src,
                           const HostLocation& dst, const std::vector<const SeRecord*>& chain,
                           CachedDecision& decision);
  /// One direction of build_session_paths.
  bool build_path(const pkt::FlowKey& key, const HostLocation& src, const HostLocation& dst,
                  const std::vector<const SeRecord*>& chain, CachedDecision& decision,
                  bool reverse);

  // --- verdict-driven flow offload (service-chain fast path) -------------------
  //
  // A steered flow whose SEs all report a benign VERDICT is *cut through*:
  // its 4-entry-per-SE redirect chain is rewritten in place into the direct
  // src->dst path, so the data plane stops paying the SE detour. The
  // decision is memoized per concrete flow with the stamp it was taken
  // under; later setups of the same flow replay the direct path only while
  // the stamp still matches (policy mutation, host move, SE change or a
  // failover all invalidate it, falling back to redirect-and-reinspect).

  /// Direct src->dst decision for one concrete flow (no chain, not cached).
  std::optional<CachedDecision> build_direct_decision(const pkt::FlowKey& key);
  /// Rewrites an installed redirected flow onto the direct path and records
  /// the offload (memo + replication + event).
  void offload_flow(FlowRecord& record, const SeRecord& se, std::uint64_t inspected_bytes);
  /// Drops a flow's offload memo and tells standbys (no-op if absent).
  void forget_offload(const pkt::FlowKey& key);

  /// Sends a drop for `key` entering at (dpid, in_port) that idles out after
  /// three flow idle timeouts: kAdd installs it above forwarding entries,
  /// kModifyStrict rewrites the flow's own forwarding entry in place.
  void install_drop(DatapathId dpid, PortId in_port, const pkt::FlowKey& key,
                    of::FlowModCommand command = of::FlowModCommand::kAdd);

  /// Raises one event. `subject` is a mon::Subject or free text, `detail` a
  /// mon::Detail or free text (NetworkEvent::set_subject/set_detail); the
  /// typed forms format and copy nothing until the event is read.
  template <typename SubjectArg, typename DetailArg>
  void raise(mon::EventType type, const SubjectArg& subject, const DetailArg& detail,
             DatapathId dpid = 0, std::uint64_t se_id = 0, std::uint8_t severity = 0,
             const pkt::FlowKey* flow = nullptr) {
    mon::NetworkEvent event;
    event.type = type;
    event.set_subject(subject);
    event.set_detail(detail);
    event.dpid = dpid;
    event.se_id = se_id;
    event.severity = severity;
    if (flow != nullptr) event.flow = *flow;
    append_event(std::move(event));
  }
  /// Stamps `event` with the current time and appends it.
  void append_event(mon::NetworkEvent&& event);

  void housekeeping_tick();
  void send_lldp_probes(DatapathId dpid);
  void send_flow_mod(DatapathId dpid, of::FlowMod mod);

  // --- high availability ------------------------------------------------------
  /// Publishes one record to the replication sink (no-op on standbys and
  /// while applying replicated records, so applies never echo back).
  void replicate(ha::RecordBody body);
  /// Ships the buffered raised events as one event-batch record (called at
  /// the batch threshold and from the housekeeping tick).
  void flush_event_replication();
  /// (Re-)wires the event pipeline's ingest observer (the replication tap).
  void install_event_observer();
  /// Invalidates the shared verdict cache (lazily, via its epoch) and
  /// replicates the new epoch so standby caches track it.
  void bump_verdict_cache_epoch(const char* reason);
  /// Learns one firsthand SE verdict into the shared cache + replicates it.
  void learn_verdict(const svc::VerdictMessage& verdict);
  /// (Re-)wires the policy-table observer that replicates policy pushes.
  void install_policy_observer();
  /// Satellite of the HA work: a switch that disconnected or reconnected
  /// invalidates every parked waiter holding one of its buffer ids —
  /// releasing them would PacketOut into a dead or restarted connection.
  void drop_pending_for_switch(DatapathId dpid);
  /// One switch's share of the post-failover audit.
  void audit_switch_stats(DatapathId dpid, const of::StatsReply& reply);
  void finish_reconciliation();
  /// Periodic OFPT_ECHO probe + liveness check (switch_echo_interval > 0).
  void echo_tick();

  /// Teaches the legacy fabric where `mac` lives by injecting a gratuitous
  /// ARP out of its switch's Legacy-Switching port. The directory proxy
  /// suppresses host broadcasts (paper §III.C.2), so without priming the
  /// fabric would flood every frame toward hosts that never send through it.
  void prime_fabric_location(const MacAddress& mac, Ipv4Address ip, DatapathId dpid);
  /// Files a host / an SE in the topology view at its attachment point.
  void upsert_host_node(const MacAddress& mac, Ipv4Address ip, DatapathId dpid, PortId port,
                        SimTime at);
  void upsert_se_node(std::uint64_t se_id, svc::ServiceType service, DatapathId dpid, PortId port,
                      SimTime at);

  sim::Simulator* sim_;
  Config config_;

  std::map<DatapathId, SwitchState> switches_;
  /// LLDP-learned (or registered) Legacy-Switching uplinks.
  Discovery discovery_;

  RoutingTable routing_;
  ServiceRegistry registry_;
  topo::TopologyGraph topology_;
  PolicyTable policies_;
  CertificationAuthority ca_;
  LoadBalancer lb_;
  mon::EventPipeline events_;
  mon::ServiceAwareMonitor monitor_;
  mon::AggregateFlowControl flow_control_;

  /// Where a blocked flow enters the network — carried in replication so a
  /// promoted standby can re-install the drop without the flow's next
  /// packet-in.
  struct BlockedFlowInfo {
    DatapathId ingress_dpid = 0;
    PortId ingress_port = kInvalidPort;
  };
  /// Flows banned by security events; re-blocked on any future packet-in.
  /// std::map: snapshot export iterates in deterministic key order.
  std::map<pkt::FlowKey, BlockedFlowInfo> blocked_flows_;
  /// Live flow sessions and their indexes (DESIGN.md §9).
  SessionTable session_table_;

  bool housekeeping_running_ = false;
  SimTime next_lldp_ = 0;

  // --- high-availability state ------------------------------------------------
  ha::ReplicationSink* repl_sink_ = nullptr;
  /// Raised events awaiting batched replication (ids already assigned),
  /// pre-encoded onto the wire as they are raised.
  mon::RowBatchEncoder pending_event_repl_;
  /// True while apply_replicated runs: mutations it causes (e.g. the policy
  /// observer firing) must not be re-replicated.
  bool applying_replicated_ = false;
  bool reconciling_ = false;
  /// Switches whose StatsReply the audit still waits for.
  std::set<DatapathId> reconcile_pending_;
  ReconcileReport reconcile_report_;
  /// Last fabric-priming time per MAC (re-primed after kPrimeInterval).
  std::unordered_map<MacAddress, SimTime> primed_;
  /// Per-switch load partitions, flat-hashed by dpid (thousands of AS
  /// switches at campus scale; no per-entry heap nodes).
  FlatHashMap<std::uint64_t, SwitchLoad> switch_loads_;
  SimTime next_stats_poll_ = 0;
  std::optional<DhcpPool> dhcp_;
  std::map<DatapathId, PortId> mirror_ports_;
  Stats stats_;
  /// Shared fuzzy-hash verdict store; may be shared with every SE and with
  /// standby controllers (then epoch advances are idempotent by design).
  std::shared_ptr<svc::VerdictCache> verdict_cache_;

  // --- fast-path state --------------------------------------------------------
  /// Memoized decisions and benign cut-through memos, and the epoch that
  /// invalidates them (DESIGN.md §6).
  DecisionCache decisions_;
  /// In-flight flow setups, keyed by the concrete forward 9-tuple.
  std::unordered_map<pkt::FlowKey, PendingSetup> pending_setups_;
};

}  // namespace livesec::ctrl
