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
#include <unordered_set>
#include <vector>

#include "common/flat_hash.h"
#include "common/hash.h"
#include "common/small_vector.h"
#include "controller/certification.h"
#include "controller/dhcp_pool.h"
#include "controller/host_index.h"
#include "controller/load_balancer.h"
#include "controller/policy.h"
#include "controller/routing_table.h"
#include "controller/service_registry.h"
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
    std::uint16_t flow_priority = 100;
    std::uint16_t drop_priority = 200;  // security drops outrank forwarding
    PolicyAction default_action = PolicyAction::kAllow;
    LbStrategy lb_strategy = LbStrategy::kMinLoad;
    /// Send LLDP discovery rounds periodically (0 = only on switch join).
    SimTime lldp_interval = 0;
    /// Poll switch statistics every interval (0 = off). Feeds the WebUI's
    /// per-switch load view (paper §IV.D: "load condition of links").
    SimTime stats_interval = 0;
    /// Flow-decision cache bound (entries). 0 disables memoization.
    std::size_t decision_cache_capacity = 8192;
    /// Pending-setup (packet-in suppression) table bounds: distinct flows
    /// parked, duplicate packet-ins remembered per flow, and how long a
    /// parked setup may wait before housekeeping drops it.
    std::size_t pending_setup_capacity = 1024;
    std::size_t pending_waiters_per_flow = 16;
    SimTime pending_setup_timeout = 1 * kSecond;
    /// OFPT_ECHO liveness probing of switch channels (0 = off). A channel
    /// that stays "connected" but silently loses traffic — a network
    /// partition as TCP sees it — is only detectable this way. A switch
    /// missing echo replies for `switch_echo_timeout` (default 3x the
    /// interval) is declared disconnected.
    SimTime switch_echo_interval = 0;
    SimTime switch_echo_timeout = 0;
    /// Verdict-driven cut-through (service-chain fast path): once every SE
    /// of a flow's chain has sent a benign VERDICT, the redirect entries are
    /// rewritten into the direct src->dst path. false = verdicts are
    /// counted but never acted on.
    bool enable_flow_offload = true;
    /// Bound of the offloaded-flow memo (benign verdicts replayed on later
    /// setups of the same flow). Full flush at capacity, like the decision
    /// cache. 0 disables the memo (offload still rewrites live flows).
    std::size_t offload_table_capacity = 8192;
    /// Event-database full-fidelity row bound (0 = unbounded). Campus-scale
    /// runs bound it so churn events cannot grow controller memory without
    /// limit; the monitoring pipeline maps it onto its retention tiers
    /// (full segments -> summaries -> evicted, DESIGN.md §12).
    std::size_t event_store_capacity = 0;
    /// Rollup time-bucket width for the monitoring pipeline's streaming
    /// per-type counts and top-K tables.
    SimTime event_rollup_bucket = kSecond;
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
  std::optional<PortId> ls_port(DatapathId dpid) const;

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
    ++epoch_;  // cached flow-mod templates no longer carry the mirror output
  }
  void clear_mirror_port(DatapathId dpid) {
    mirror_ports_.erase(dpid);
    ++epoch_;
  }

  /// Enables the central DHCP service of the directory proxy: clients'
  /// DISCOVER/REQUEST packet-ins are answered from this pool.
  void enable_dhcp(Ipv4Address base, std::uint32_t size,
                   SimTime lease_duration = 3600 * kSecond);
  const DhcpPool* dhcp_pool() const { return dhcp_ ? &*dhcp_ : nullptr; }

  /// Launches an LLDP probe round over every known switch port.
  void run_discovery();

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
  void set_replication_sink(ha::ReplicationSink* sink);

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
  std::uint64_t epoch() const { return epoch_; }

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
  /// security drops re-installed. Runs asynchronously; progress is visible
  /// through reconciling() and reconcile_report().
  void begin_reconciliation();
  bool reconciling() const { return reconciling_; }
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
  std::size_t active_flows() const { return sessions_.size(); }
  /// Bytes of the session slab (live and free slots) and its three indexes.
  std::size_t session_memory_bytes() const {
    return session_chunks_.size() * kSessionChunk * sizeof(SessionSlot) +
           session_chunks_.capacity() * sizeof(session_chunks_[0]) + sessions_.memory_bytes() +
           steered_.memory_bytes() + icmp_reverse_.memory_bytes();
  }

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
  const SwitchLoad* switch_load(DatapathId dpid) const;

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
  std::size_t decision_cache_size() const { return decision_cache_.size(); }
  std::size_t pending_setup_count() const { return pending_setups_.size(); }
  /// Hosts with at least one indexed active flow (scale observability).
  std::size_t host_flow_index_size() const { return flows_by_host_.host_count(); }
  std::size_t offloaded_flow_count() const { return offloaded_flows_.size(); }
  bool flow_offloaded(const pkt::FlowKey& key) const { return offloaded_flows_.contains(key); }

  /// Entries currently installed for an active flow (tests assert the
  /// paper's 4-entry redirect shape and its rewrite on offload).
  std::vector<std::pair<DatapathId, of::Match>> flow_entries(const pkt::FlowKey& key) const {
    const FlowRecord* record = find_session(key);
    if (record == nullptr) return {};
    std::vector<std::pair<DatapathId, of::Match>> entries;
    for (const PathStep& step : record->installed) {
      entries.emplace_back(step.dpid, entry_match(*record, step));
    }
    return entries;
  }
  /// SE chain an active flow is steered through (empty after offload).
  std::vector<std::uint64_t> flow_se_ids(const pkt::FlowKey& key) const {
    const FlowRecord* record = find_session(key);
    if (record == nullptr) return {};
    return {record->se_ids.begin(), record->se_ids.end()};
  }

 private:
  struct SwitchState {
    of::SecureChannel* channel = nullptr;
    topo::NodeKind kind = topo::NodeKind::kAsSwitch;
    std::uint32_t num_ports = 0;
    std::string name;
    bool connected = false;
  };

  /// One installed entry of a session. It matches Match::exact(in_port, k)
  /// on switch dpid, where k is the session's key (or its session_reverse)
  /// with dl_src and/or dl_dst replaced by a chain SE's MAC (DESIGN.md §9).
  struct PathStep {
    static constexpr std::uint8_t kKeyMac = 0xFF;  // the key's own MAC
    DatapathId dpid = 0;
    PortId in_port = kInvalidPort;
    std::uint8_t reverse = 0;       // 1 = k derives from session_reverse(key)
    std::uint8_t src_se = kKeyMac;  // se_macs index carried as dl_src
    std::uint8_t dst_se = kKeyMac;  // se_macs index carried as dl_dst
  };
  static_assert(sizeof(PathStep) == 16);

  /// Controller-side record of one installed end-to-end session: the
  /// forward flow plus its pre-installed reverse direction. Records live in
  /// the session slab (DESIGN.md §9); their inline capacities follow the
  /// path shapes build_path emits, so a session steered through one SE is
  /// set up and torn down without a heap allocation.
  struct FlowRecord {
    /// Per direction build_path emits one steering entry per SE (plus its
    /// arrival entry when the SE sits on another switch) and one delivery
    /// entry (plus the egress entry when the destination sits on another
    /// switch): at most 2 * (chain length + 1), so 4 for a one-SE chain
    /// (paper §IV.A). Longer chains spill to the heap.
    static constexpr std::size_t kInlineEntries = 8;
    /// Longest SE chain a session is steered through: a PathStep names an
    /// SE by a one-byte index and benign_mask holds one bit per position.
    static constexpr std::size_t kMaxChain = 32;

    pkt::FlowKey key;  // original 9-tuple (forward direction); dl_src is the user
    /// Cookie stamped on the ingress entry: (slot generation << 32) | slot.
    std::uint64_t cookie = 0;
    DatapathId ingress_dpid = 0;
    PortId ingress_port = kInvalidPort;
    svc::l7::AppProtocol app = svc::l7::AppProtocol::kUnknown;
    bool blocked = false;
    /// Chain positions whose SE issued a benign VERDICT for this flow. The
    /// cut-through fires only once every position of se_ids is set.
    std::uint32_t benign_mask = 0;
    SmallVector<std::uint64_t, 1> se_ids;  // traversed chain
    /// MACs of the chain's SEs, in chain order. The steered variants of the
    /// key and of its reverse (dl_dst = SE MAC) are filed in steered_ and
    /// re-derived from these for cleanup; path steps index them.
    SmallVector<MacAddress, 1> se_macs;
    /// Every entry installed for this flow, so that blocking / teardown can
    /// address them (entry_match rebuilds each match). The first is the
    /// ingress entry, which carries the cookie: build_path emits the forward
    /// path first, starting at the ingress switch.
    SmallVector<PathStep, kInlineEntries> installed;
    /// Actions of the ingress entry — used to release packets that raced to
    /// the controller before the entries landed (duplicate packet-ins).
    of::ActionList ingress_actions;
  };

  /// The match of one installed entry of `record`, as apply_decision sent
  /// it: the class templates' zeroed source port is the key's own again.
  static of::Match entry_match(const FlowRecord& record, const PathStep& step);

  // --- flow-session slab (DESIGN.md §9) ---------------------------------------
  //
  // Sessions live in fixed 64-record chunks that never move, addressed by a
  // 32-bit slot; a freed slot goes on an intrusive free list and bumps its
  // generation. The ingress entry's cookie is (generation << 32) | slot, so a
  // FlowRemoved finds its session without a lookup. It acts only when the
  // cookie is the slot's current one and its (dpid, match) is the session's
  // ingress entry: a late removal for a freed or reused slot, or one for an
  // entry another controller installed, changes nothing.

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  /// Small chunks: a controller with a handful of flows holds one ~22 KB
  /// chunk, and growth never copies or reallocates records.
  static constexpr std::uint32_t kSessionChunk = 64;

  struct SessionSlot {
    std::optional<FlowRecord> record;  // engaged while the session is live
    std::uint32_t generation = 1;      // never 0: cookie 0 is "not ours"
    std::uint32_t next_free = kNoSlot;
  };
  // The slot is the per-live-flow cost of the controller; DESIGN.md §9
  // gives its layout. Growing it is a memory regression at campus scale.
  static_assert(sizeof(SessionSlot) <= 352);

  SessionSlot& session_slot(std::uint32_t slot) {
    return session_chunks_[slot / kSessionChunk][slot % kSessionChunk];
  }
  FlowRecord& session_at(std::uint32_t slot) { return *session_slot(slot).record; }
  /// The live session whose forward key is `key`, or nullptr.
  FlowRecord* find_session(const pkt::FlowKey& key);
  const FlowRecord* find_session(const pkt::FlowKey& key) const;
  /// Allocates a slot for a new session of `key`, stamps its cookie and
  /// files it in the forward, ICMP-reverse and per-host indexes.
  std::uint32_t open_session(const pkt::FlowKey& key);
  /// Unfiles a session from every index and frees its slot.
  void close_session(std::uint32_t slot);
  /// Folds a key an SE reported — steered (dl_dst = SE MAC) and/or the
  /// reverse direction — onto its session's forward key, in place, and
  /// returns that session (nullptr when none is live; an unknown key is
  /// left as it is).
  FlowRecord* resolve_reported(pkt::FlowKey& key);

  // --- flow-decision fast path -----------------------------------------------
  //
  // A flow *class* is the FlowKey with tp_src zeroed for TCP/UDP (no policy
  // predicate reads tp_src, and the path is port-agnostic); ICMP and other
  // protocols keep the full key, because their tp_src carries semantics
  // (echo type). All flows of one class share a memoized decision: the
  // policy verdict, the SE chain, and per-switch flow-mod templates built
  // against the class key, replayed per flow with only the transport-port
  // fields, cookie and buffer id patched.

  /// Flow-mod templates of one switch's share of a class's path.
  struct SwitchMods {
    DatapathId dpid = 0;
    std::vector<of::FlowMod> mods;   // class-keyed templates, in order
    std::vector<PathStep> steps;     // parallel: each template's path step
    int ingress_mod = -1;  // patched with cookie + buffer id (forward ingress)
  };

  struct CachedDecision {
    PolicyAction action = PolicyAction::kAllow;
    std::string policy_name;  // deny-event detail
    std::vector<std::uint64_t> se_ids;
    std::vector<MacAddress> se_macs;  // steered-key registration
    std::vector<SwitchMods> switches;
    of::ActionList ingress_actions;
    /// Fabric-priming targets (destination + chain SEs).
    std::vector<std::tuple<MacAddress, Ipv4Address, DatapathId>> prime;
    /// Per-flow-granularity redirects re-balance on every setup and must
    /// not be memoized.
    bool cacheable = true;
  };

  struct DecisionKey {
    pkt::FlowKey cls;
    DatapathId dpid = 0;
    PortId in_port = kInvalidPort;
    bool operator==(const DecisionKey&) const = default;
  };
  struct DecisionKeyHash {
    std::size_t operator()(const DecisionKey& k) const noexcept {
      return static_cast<std::size_t>(
          hash_combine(hash_combine(k.cls.hash(), k.dpid), k.in_port));
    }
  };

  /// Everything a memoized decision depends on. Any component moving means
  /// the whole cache is flushed (invalidation is rare; per-entry stamps are
  /// not worth the bytes).
  struct DecisionStamp {
    std::uint64_t policy = 0;
    std::uint64_t routing = 0;
    std::uint64_t registry = 0;
    std::uint64_t epoch = 0;
    bool operator==(const DecisionStamp&) const = default;
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

  static pkt::FlowKey decision_class(const pkt::FlowKey& key);
  DecisionStamp current_stamp() const;
  /// Flushes the cache when any stamp component moved since the last check.
  void validate_decision_cache();
  /// Computes the full decision for a class (policy, SE chain, per-switch
  /// templates). nullopt = a precondition is missing (park the setup).
  std::optional<CachedDecision> build_decision(const pkt::FlowKey& cls, const pkt::FlowKey& key);
  /// Replays a decision for one concrete flow: patches the templates,
  /// batches them out, and registers the flow record.
  void apply_decision(CachedDecision& decision, DatapathId dpid, const of::PacketIn& pin,
                      const pkt::FlowKey& key);
  /// Parks a setup whose decision could not be built yet.
  void park_setup(DatapathId dpid, const of::PacketIn& pin, const pkt::FlowKey& key);
  /// Retries parked setups touching `mac` (it may have just announced).
  void retry_pending_for_host(const MacAddress& mac);
  /// Retries every parked setup (topology knowledge changed).
  void retry_all_pending();
  void retry_pending(const std::vector<pkt::FlowKey>& keys);
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
  /// malicious verdicts) and revokes any benign cut-through memo it held.
  void block_flow_at_ingress(const pkt::FlowKey& original, std::uint64_t se_id,
                             std::uint8_t severity);
  void handle_arp(DatapathId dpid, const of::PacketIn& pin);
  void handle_dhcp(DatapathId dpid, const of::PacketIn& pin);
  void handle_flow_setup(DatapathId dpid, const of::PacketIn& pin);

  // Path installation (paper §III.C.3 and §IV.A).
  struct PathSpec {
    pkt::FlowKey key;  // flow *class* key (templates are per-class)
    HostLocation src;
    HostLocation dst;
    std::vector<const SeRecord*> chain;
    SimTime idle_timeout = 0;
    bool notify_ingress_removal = false;
  };

  /// Uninstalls every entry of one session and ends it. Used when an SE
  /// migrates or a host moves and the installed paths are stale.
  void teardown_session(std::uint32_t slot);
  /// Releases a session's app and load-balancer accounting, raises its
  /// FlowEnd with `detail` and closes it.
  void end_session(std::uint32_t slot, mon::Detail detail);
  /// Tears down every active flow steered through `se_id`.
  std::size_t teardown_flows_through_se(std::uint64_t se_id);
  /// Tears down every active flow with `mac` as either endpoint.
  std::size_t teardown_flows_of_host(const MacAddress& mac);
  /// Appends one direction's class-keyed flow-mod templates to `decision`,
  /// grouped per switch. Nothing is sent — apply_decision() replays the
  /// templates per flow. Returns false if a needed LS port is unknown.
  bool build_path(const PathSpec& spec, CachedDecision& decision, bool reverse);

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

  /// Installs a high-priority drop for `key` at its ingress switch.
  void install_drop(DatapathId dpid, PortId in_port, const pkt::FlowKey& key);

  /// Session-aware reverse key (ICMP echo request <-> reply, §III.C.3).
  static pkt::FlowKey session_reverse(const pkt::FlowKey& key);

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

  /// Bulk ingest for burst emitters (expiry sweeps, teardown storms): one
  /// EventPipeline::append_batch call for the whole staged batch.
  void raise_batch(std::vector<mon::NetworkEvent>&& batch);

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
  std::map<DatapathId, PortId> ls_ports_;

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
  /// The session slab: chunks of SessionSlot, slots ever allocated, and the
  /// free-list head.
  std::vector<std::unique_ptr<SessionSlot[]>> session_chunks_;
  std::uint32_t session_slots_ = 0;
  std::uint32_t free_session_ = kNoSlot;
  /// Forward 9-tuple -> slot of its live session.
  FlatHashMap<pkt::FlowKey, std::uint32_t> sessions_;
  /// Steered 9-tuple (dl_dst rewritten to an SE MAC, either direction) ->
  /// slot, so SE event reports map back to the user flow.
  FlatHashMap<pkt::FlowKey, std::uint32_t> steered_;
  /// ICMP sessions' reverse key -> slot. Other reverse keys need no entry:
  /// session_reverse is an involution there, so sessions_ finds them. The
  /// ICMP one is not: it drops the code and maps every type but the echo
  /// request onto the request, so several sessions can share a reverse key.
  FlatHashMap<pkt::FlowKey, std::uint32_t> icmp_reverse_;

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
  /// Last proof of life per switch channel (echo reply or connect).
  std::map<DatapathId, SimTime> last_switch_echo_;
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
  std::unordered_map<DecisionKey, CachedDecision, DecisionKeyHash> decision_cache_;
  /// Stamp the cache contents were computed under.
  DecisionStamp cache_stamp_;
  /// Controller-local generation: bumped by anything outside the versioned
  /// tables that cached templates depend on (channel attach, switch
  /// connect/disconnect, LS-port learning, mirror-port changes).
  std::uint64_t epoch_ = 0;
  /// One flow's benign cut-through memo.
  struct OffloadEntry {
    DecisionStamp stamp;                 // world the verdict was taken in
    std::uint64_t inspected_bytes = 0;   // payload cleared before the verdict
    SimTime at = 0;
  };
  /// Flows holding a benign verdict, replayed as direct paths on later
  /// setups while their stamp holds. std::map: snapshot export iterates in
  /// deterministic key order.
  std::map<pkt::FlowKey, OffloadEntry> offloaded_flows_;
  /// In-flight flow setups, keyed by the concrete forward 9-tuple.
  std::unordered_map<pkt::FlowKey, PendingSetup> pending_setups_;
  /// Endpoint MAC -> session slots of active flows touching it.
  HostFlowIndex flows_by_host_;
};

}  // namespace livesec::ctrl
