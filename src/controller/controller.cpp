#include "controller/controller.h"

#include <algorithm>

#include "packet/dhcp.h"
#include "services/service_element.h"
#include "sim/simulator.h"

namespace livesec::ctrl {

Controller::Controller(sim::Simulator& sim) : Controller(sim, Config{}) {}

Controller::Controller(sim::Simulator& sim, Config config)
    : sim_(&sim),
      config_(config),
      routing_(config.host_timeout),
      registry_(config.se_liveness_timeout),
      policies_(config.default_action),
      ca_(config.cert_secret),
      lb_(config.lb_strategy),
      events_(mon::EventPipeline::config_for_capacity(config.event_store_capacity)) {
  install_policy_observer();
  install_event_observer();
}

void Controller::install_event_observer() {
  // Replication tap: every live-ingested event (ids assigned, times
  // clamped) is buffered for batched shipment to standbys, the only way
  // events reach them. Restores do not fire the observer, so applied
  // records never echo back.
  events_.set_ingest_observer([this](const mon::NetworkEvent& event) {
    if (repl_sink_ == nullptr || applying_replicated_ || config_.event_replication_batch == 0) {
      return;
    }
    pending_event_repl_.add(event);
    if (pending_event_repl_.rows() >= config_.event_replication_batch) {
      flush_event_replication();
    }
  });
}

// --- replication -------------------------------------------------------------

void Controller::replicate(ha::RecordBody body) {
  if (repl_sink_ != nullptr && !applying_replicated_) repl_sink_->replicate(std::move(body));
}

void Controller::flush_event_replication() {
  if (pending_event_repl_.empty()) return;
  replicate(ha::EventBatchRecord{pending_event_repl_.take()});
}

void Controller::bump_verdict_cache_epoch(const char* reason) {
  // Skipped while applying replicated records: the active's epoch record
  // reaches the (possibly shared) cache through advance_epoch_to instead, so
  // a shared store is never double-bumped past the active's view.
  if (!verdict_cache_ || applying_replicated_) return;
  const std::uint64_t epoch = verdict_cache_->bump_epoch(reason);
  replicate(ha::VerdictCacheEpochRecord{epoch});
}

void Controller::learn_verdict(const svc::VerdictMessage& verdict) {
  if (!verdict_cache_ || verdict.from_cache || verdict.digest.empty()) return;
  // "keep-inspecting" is by definition undecided — never cached. A benign
  // verdict must have cleared the learning SE's full byte budget.
  if (verdict.verdict == svc::FlowVerdict::kKeepInspecting) return;
  if (verdict.verdict == svc::FlowVerdict::kBenign &&
      (verdict.byte_budget == 0 || verdict.inspected_bytes < verdict.byte_budget)) {
    return;
  }
  const svc::CachedVerdict cached = verdict.verdict == svc::FlowVerdict::kBenign
                                        ? svc::CachedVerdict::kBenign
                                        : svc::CachedVerdict::kMalicious;
  if (!verdict_cache_->insert(verdict.digest, cached, verdict.rule_id, verdict.severity,
                              verdict.inspected_bytes)) {
    return;
  }
  ++stats_.verdict_cache_inserts;
  replicate(ha::VerdictLearnedRecord{verdict.digest, static_cast<std::uint8_t>(cached),
                                     verdict.rule_id, verdict.severity,
                                     verdict.inspected_bytes});
}

void Controller::install_policy_observer() {
  policies_.set_mutation_observer([this](const PolicyTable::PolicyMutation& m) {
    switch (m.kind) {
      case PolicyTable::PolicyMutation::Kind::kAdded:
        replicate(ha::PolicyAddedRecord{*m.policy});
        break;
      case PolicyTable::PolicyMutation::Kind::kRemoved:
        replicate(ha::PolicyRemovedRecord{m.id});
        break;
      case PolicyTable::PolicyMutation::Kind::kDefaultAction:
        replicate(ha::DefaultActionRecord{m.action});
        break;
    }
    // A verdict cached under the old policy set may now be wrong either way
    // (e.g. a block policy added after content was deemed benign).
    bump_verdict_cache_epoch("policy_mutation");
  });
}

void Controller::attach_channel(DatapathId dpid, of::SecureChannel& channel,
                                topo::NodeKind kind) {
  SwitchState& state = switches_[dpid];
  state.channel = &channel;
  state.kind = kind;
  decisions_.invalidate();  // cached decisions may predate this channel
}

void Controller::register_ls_port(DatapathId dpid, PortId port) {
  if (!discovery_.set_uplink(dpid, port)) return;
  decisions_.invalidate();  // cached templates steer through the old uplink
  replicate(ha::LsPortRecord{dpid, port});
}

// --- channel events ----------------------------------------------------------

void Controller::handle_switch_connected(DatapathId dpid, const of::FeaturesReply& features) {
  SwitchState& state = switches_[dpid];
  state.connected = true;
  state.num_ports = features.num_ports;
  state.name = features.name;
  state.last_echo = sim_->now();
  decisions_.invalidate();  // cached decisions were built while this switch was absent
  // A (re)connect restarts the datapath's buffer space: waiters parked
  // against the previous connection hold buffer ids the switch no longer
  // honors, so releasing them later would misfire.
  drop_pending_for_switch(dpid);
  replicate(ha::SwitchUpRecord{dpid, features.num_ports, features.name});

  topology_.add_switch({dpid, features.name, state.kind, sim_->now()});

  raise(mon::EventType::kSwitchJoin, features.name, "dpid=" + std::to_string(dpid), dpid);
  send_lldp_probes(dpid);
}

void Controller::handle_switch_disconnected(DatapathId dpid) {
  auto it = switches_.find(dpid);
  if (it == switches_.end()) return;
  // Idempotent: an echo-timeout declaration and the channel's own close (or
  // two staggered closes around a failover) may both land here.
  if (!it->second.connected) return;
  it->second.connected = false;
  raise(mon::EventType::kSwitchLeave, it->second.name, "dpid=" + std::to_string(dpid), dpid);
  replicate(ha::SwitchDownRecord{dpid});
  topology_.remove_switch(dpid);
  // Tear down every flow with a hop (ingress, egress or SE steering entry)
  // on the dead switch: its FlowRemoved can never arrive, so without this
  // the session and its index entries leak forever, and entries on
  // surviving switches keep forwarding into a black hole. A flow's entries
  // sit only on its endpoints' switches and its chain SEs' switches, so the
  // per-host index plus an SE sweep covers them all without a full scan
  // (hosts that moved off this switch already had their stale flows torn
  // down when the move was learned).
  for (const HostLocation& host : routing_.remove_switch(dpid)) {
    replicate(ha::HostRemovedRecord{host.mac});
    raise(mon::EventType::kHostLeave, mon::Subject::mac(host.mac), "switch disconnected", dpid);
    teardown_sessions(session_table_.slots_of_host(host.mac));
  }
  for (const SeRecord* se : registry_.all()) {
    if (se->dpid == dpid) teardown_sessions(session_table_.slots_through_se(se->se_id));
  }
  drop_pending_for_switch(dpid);
  if (reconciling_ && reconcile_pending_.erase(dpid) > 0 && reconcile_pending_.empty()) {
    finish_reconciliation();
  }
  switch_loads_.erase(dpid);
  discovery_.forget(dpid);
  decisions_.invalidate();  // cached decisions may route through or ingress at this switch
}

void Controller::handle_switch_message(DatapathId dpid, const of::Message& message) {
  if (const auto* pin = std::get_if<of::PacketIn>(&message)) {
    on_packet_in(dpid, *pin);
  } else if (const auto* removed = std::get_if<of::FlowRemoved>(&message)) {
    on_flow_removed(dpid, *removed);
  } else if (const auto* echo = std::get_if<of::EchoRequest>(&message)) {
    auto it = switches_.find(dpid);
    if (it != switches_.end() && it->second.channel != nullptr) {
      it->second.channel->send_to_switch(of::EchoReply{echo->token});
    }
  } else if (std::get_if<of::EchoReply>(&message)) {
    if (auto it = switches_.find(dpid); it != switches_.end()) it->second.last_echo = sim_->now();
  } else if (const auto* reply = std::get_if<of::StatsReply>(&message)) {
    // Post-failover audit: this reply is the switch's answer to the
    // reconciliation StatsRequest.
    if (reconciling_ && reconcile_pending_.erase(dpid) > 0) {
      audit_switch_stats(dpid, *reply);
      if (reconcile_pending_.empty()) finish_reconciliation();
    }
    // Fold the snapshot into the per-switch load view.
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    for (const auto& flow : reply->flows) {
      packets += flow.packet_count;
      bytes += flow.byte_count;
    }
    SwitchLoad& load = switch_loads_[dpid];
    const SimTime now = sim_->now();
    if (load.updated_at > 0 && now > load.updated_at && packets >= load.total_packets) {
      const double dt = to_seconds(now - load.updated_at);
      load.packets_per_second = static_cast<double>(packets - load.total_packets) / dt;
      load.bits_per_second = static_cast<double>(bytes - load.total_bytes) * 8.0 / dt;
    }
    load.total_packets = packets;
    load.total_bytes = bytes;
    load.flow_count = reply->flows.size();
    load.updated_at = now;
  }
}

// --- discovery ----------------------------------------------------------------

void Controller::send_lldp_probes(DatapathId dpid) {
  const SwitchState& state = switches_.at(dpid);
  if (state.channel == nullptr) return;
  for (of::PacketOut& probe : Discovery::probes(dpid, state.num_ports)) {
    state.channel->send_to_switch(std::move(probe));
  }
}

void Controller::handle_lldp(DatapathId dpid, PortId in_port, const pkt::Packet& packet) {
  const std::optional<topo::AsLink> link = Discovery::parse_probe(dpid, in_port, packet);
  if (!link) return;
  // Both ends are uplinks. A switch re-cabled to a different uplink port
  // must overwrite the stale record, or two-hop routing keeps steering into
  // the dead port.
  register_ls_port(link->dst, link->dst_port);
  register_ls_port(link->src, link->src_port);
  // New uplink knowledge may be exactly what parked setups were waiting for.
  retry_pending();

  if (!topology_.links().find(link->src, link->dst)) {
    topology_.links().add(*link);
    ++stats_.lldp_links;
    replicate(ha::LinkRecord{link->src, link->src_port, link->dst, link->dst_port});
    // Canonical low<->high rendering: the event names the link the same way
    // whichever direction's LLDP probe lands first.
    const DatapathId lo = std::min(link->src, link->dst);
    const DatapathId hi = std::max(link->src, link->dst);
    raise(mon::EventType::kLinkDiscovered,
          "dpid" + std::to_string(lo) + "<->dpid" + std::to_string(hi), "", lo);
  }
}

// --- packet-in pipeline ---------------------------------------------------------

void Controller::on_packet_in(DatapathId dpid, const of::PacketIn& pin) {
  ++stats_.packet_ins;
  if (!switches_.contains(dpid)) {
    // Packet-in from a dpid that never attached a channel (misbehaving or
    // half-configured datapath): every downstream handler would either learn
    // an unroutable location or install state it can never clean up.
    ++stats_.unknown_dpid_drops;
    return;
  }
  const pkt::Packet& packet = *pin.packet;

  if (packet.eth.ether_type == static_cast<std::uint16_t>(pkt::EtherType::kLldp)) {
    handle_lldp(dpid, pin.in_port, packet);
    return;
  }
  if (svc::is_daemon_packet(packet)) {
    handle_daemon(dpid, pin.in_port, packet);
    return;  // deliberately no flow entry (paper §III.D.1)
  }
  if (packet.arp) {
    handle_arp(dpid, pin);
    return;
  }
  if (pkt::is_dhcp_packet(packet)) {
    handle_dhcp(dpid, pin);
    return;  // DHCP is proxied; never a data-path flow
  }
  if (packet.ipv4) {
    // Any data-plane packet refreshes the sender's liveness.
    routing_.touch(packet.eth.src, sim_->now());
    handle_flow_setup(dpid, pin);
  }
  // Non-IP, non-ARP unicast: ignored (no policy semantics defined).
}

// --- SE daemon messages ----------------------------------------------------------

void Controller::handle_daemon(DatapathId dpid, PortId in_port, const pkt::Packet& packet) {
  const auto message = svc::DaemonMessage::decode(packet.payload_view());
  if (!message) return;  // wrong identifier/format: not a legitimate message
  ++stats_.daemon_messages;

  if (!ca_.validate(message->se_id, message->cert_token)) {
    ++stats_.cert_rejections;
    raise(mon::EventType::kCertificationRejected, mon::Subject::se(message->se_id),
          "invalid certificate", dpid, message->se_id, 8);
    // Paper §III.D.1: flows generated by an uncertified SE are dropped at
    // the ingress AS switch.
    install_drop(dpid, in_port, pkt::FlowKey::from_packet(packet));
    return;
  }

  if (const auto* online = std::get_if<svc::OnlineMessage>(&message->body)) {
    // Detect VM migration (paper §III.D.1: "dynamic migration for elastic
    // utilization of network service resources") before the record updates.
    const SeRecord* existing = registry_.find(message->se_id);
    const bool migrated =
        existing != nullptr && (existing->dpid != dpid || existing->port != in_port);
    const Ipv4Address se_ip = packet.ipv4 ? packet.ipv4->src : Ipv4Address();

    const bool fresh = registry_.handle_online(message->se_id, packet.eth.src, se_ip, dpid,
                                               in_port, *online, sim_->now());
    if (migrated) {
      // Stale paths still steer to the old attachment point: tear them down
      // (they re-setup through the new location on the next packet), and
      // re-teach the fabric where the SE now lives.
      const std::size_t torn = teardown_sessions(session_table_.slots_through_se(message->se_id));
      primed_.erase(packet.eth.src);
      prime_fabric_location(packet.eth.src, se_ip, dpid);
      upsert_se_node(message->se_id, online->service, dpid, in_port, sim_->now());
      raise(mon::EventType::kSeMigrated, mon::Subject::se(message->se_id),
            "now at dpid=" + std::to_string(dpid) + ", " + std::to_string(torn) +
                " flows re-routed",
            dpid, message->se_id);
      // The migrated VM may have restarted with a different signature set.
      bump_verdict_cache_epoch("se_migrated");
    }
    routing_.learn(packet.eth.src, se_ip, dpid, in_port, sim_->now());
    replicate(ha::SeUpsertRecord{message->se_id, packet.eth.src, se_ip, online->service, dpid,
                                 in_port, sim_->now()});
    replicate(ha::HostLearnedRecord{packet.eth.src, se_ip, dpid, in_port, sim_->now()});
    prime_fabric_location(packet.eth.src, se_ip, dpid);
    retry_pending(packet.eth.src);
    if (fresh) {
      upsert_se_node(message->se_id, online->service, dpid, in_port, sim_->now());
      raise(mon::EventType::kSeOnline, mon::Subject::se(message->se_id),
            svc::service_type_name(online->service), dpid, message->se_id);
      // SE pool change: a new engine generation may judge old content
      // differently, so cached verdicts stop being authoritative.
      bump_verdict_cache_epoch("se_online");
    }
  } else if (const auto* event = std::get_if<svc::EventMessage>(&message->body)) {
    const SeRecord* se = registry_.find(message->se_id);
    if (se != nullptr) handle_daemon_event(*se, *event);
  } else if (const auto* verdict = std::get_if<svc::VerdictMessage>(&message->body)) {
    const SeRecord* se = registry_.find(message->se_id);
    if (se != nullptr) handle_daemon_verdict(*se, *verdict);
  }
}

void Controller::handle_daemon_event(const SeRecord& se, const svc::EventMessage& event) {
  // Map the flow the SE observed (dl_dst rewritten to the SE's MAC) back to
  // the original end-to-end flow, and fold reverse-direction reports onto
  // the forward session key.
  pkt::FlowKey original = event.flow;
  FlowRecord* record = session_table_.resolve_reported(original);

  switch (event.kind) {
    case svc::EventKind::kAttackDetected:
    case svc::EventKind::kVirusFound:
    case svc::EventKind::kContentViolation:
    case svc::EventKind::kFirewallDenied: {
      // The firewall SE already drops the packets it denies; blocking the
      // flow at its ingress additionally stops the denied traffic from
      // consuming fabric and SE capacity (same path as attack handling).
      const mon::EventType type =
          event.kind == svc::EventKind::kAttackDetected ? mon::EventType::kAttackDetected
          : event.kind == svc::EventKind::kVirusFound   ? mon::EventType::kVirusFound
          : event.kind == svc::EventKind::kFirewallDenied
              ? mon::EventType::kPolicyDenied
              : mon::EventType::kContentViolation;
      raise(type, mon::Subject::mac(original.dl_src), event.description, se.dpid, se.se_id,
            event.severity, &original);
      block_flow_at_ingress(original, se.se_id, event.severity);
      break;
    }
    case svc::EventKind::kProtocolIdentified: {
      const auto proto = static_cast<svc::l7::AppProtocol>(event.rule_id);
      raise(mon::EventType::kProtocolIdentified, mon::Subject::mac(original.dl_src),
            svc::l7::app_protocol_name(proto), se.dpid, se.se_id, 0, &original);
      if (record != nullptr && record->app == svc::l7::AppProtocol::kUnknown) {
        const MacAddress user = record->key.dl_src;
        record->app = proto;
        monitor_.record_flow_identified(user, proto);
        // Aggregate flow control (paper §IV.C): too many active flows of
        // this app for this user => block the newest flow at the ingress.
        if (!flow_control_.admits(monitor_, user, proto)) {
          flow_control_.record_rejection();
          ban_flow(record->key, record);
          raise(mon::EventType::kAggregateLimitHit, mon::Subject::mac(user),
                svc::l7::app_protocol_name(proto), record->ingress_dpid, se.se_id, 3,
                &record->key);
        }
      }
      break;
    }
  }
}

void Controller::block_flow_at_ingress(const pkt::FlowKey& original, std::uint64_t se_id,
                                       std::uint8_t severity) {
  FlowRecord* record = session_table_.find(original);
  if (!ban_flow(original, record)) return;
  ++stats_.flows_blocked_by_event;
  raise(mon::EventType::kFlowBlocked, mon::Subject::mac(original.dl_src),
        "blocked at ingress dpid=" + std::to_string(record->ingress_dpid), record->ingress_dpid,
        se_id, severity, &original);
}

bool Controller::ban_flow(const pkt::FlowKey& key, FlowRecord* record) {
  BlockedFlowInfo ingress;
  if (record != nullptr) ingress = BlockedFlowInfo{record->ingress_dpid, record->ingress_port};
  blocked_flows_.insert_or_assign(key, ingress);
  replicate(ha::FlowBlockedRecord{key, ingress.ingress_dpid, ingress.ingress_port});
  // A blocked flow must never replay a benign cut-through.
  forget_offload(key);
  if (record == nullptr || record->blocked) return false;
  record->blocked = true;
  // Paper §IV.A: "modify relevant flow entries with the drop action in the
  // ingress AS switch, to block this flow at the entrance".
  install_drop(record->ingress_dpid, record->ingress_port, record->key,
               of::FlowModCommand::kModifyStrict);
  return true;
}

void Controller::handle_daemon_verdict(const SeRecord& se, const svc::VerdictMessage& verdict) {
  ++stats_.verdict_messages;
  if (verdict.from_cache) {
    ++stats_.cached_verdict_messages;
  } else {
    // Firsthand conclusion: learn it into the shared verdict cache so the
    // next flow carrying this content skips the engine pass entirely.
    learn_verdict(verdict);
  }
  // Same key mapping as event reports: steered variant -> original forward
  // key, reverse direction folded onto the session's forward key.
  pkt::FlowKey original = verdict.flow;
  FlowRecord* record = session_table_.resolve_reported(original);

  switch (verdict.verdict) {
    case svc::FlowVerdict::kMalicious:
      // Same containment as an attack event: drop at the entrance.
      raise(mon::EventType::kAttackDetected, mon::Subject::mac(original.dl_src),
            "malicious verdict rule=" + std::to_string(verdict.rule_id), se.dpid, se.se_id,
            verdict.severity, &original);
      block_flow_at_ingress(original, se.se_id, verdict.severity);
      break;
    case svc::FlowVerdict::kBenign: {
      if (record == nullptr || record->blocked || record->se_ids.empty()) break;
      const std::size_t chain = record->se_ids.size();
      for (std::size_t i = 0; i < chain; ++i) {
        if (record->se_ids[i] == se.se_id) record->benign_mask |= std::uint32_t{1} << i;
      }
      // Cut through only once every SE of the chain has cleared the flow —
      // one engine's benign says nothing about what the next would find.
      const auto all_clear = static_cast<std::uint32_t>((std::uint64_t{1} << chain) - 1);
      if (record->benign_mask == all_clear) offload_flow(*record, se, verdict.inspected_bytes);
      break;
    }
    case svc::FlowVerdict::kKeepInspecting:
      // Progress report: the SE crossed its byte budget without a conclusive
      // verdict (e.g. an undecided classifier). Keep the redirect.
      break;
  }
}

// --- ARP: location discovery + directory proxy -----------------------------------

void Controller::handle_arp(DatapathId dpid, const of::PacketIn& pin) {
  const pkt::Packet& packet = *pin.packet;
  const pkt::ArpHeader& arp = *packet.arp;

  const HostLocation* known = routing_.find(arp.sender_mac);
  const bool moved = known != nullptr && (known->dpid != dpid || known->port != pin.in_port);
  const bool fresh =
      routing_.learn(arp.sender_mac, arp.sender_ip, dpid, pin.in_port, sim_->now()) && !moved;
  replicate(ha::HostLearnedRecord{arp.sender_mac, arp.sender_ip, dpid, pin.in_port, sim_->now()});

  if (moved && registry_.find_by_mac(arp.sender_mac) == nullptr) {
    // Host mobility (paper §III.D: "the mobility of users and VMs can be
    // guaranteed by existing OpenFlow technologies"): stale paths are torn
    // down and the fabric re-primed toward the new attachment point.
    const std::size_t torn = teardown_sessions(session_table_.slots_of_host(arp.sender_mac));
    primed_.erase(arp.sender_mac);
    prime_fabric_location(arp.sender_mac, arp.sender_ip, dpid);
    upsert_host_node(arp.sender_mac, arp.sender_ip, dpid, pin.in_port, sim_->now());
    raise(mon::EventType::kHostMoved, mon::Subject::mac(arp.sender_mac),
          "now at dpid=" + std::to_string(dpid) + ", " + std::to_string(torn) +
              " flows re-routed",
          dpid);
  }
  if (fresh && registry_.find_by_mac(arp.sender_mac) == nullptr) {
    upsert_host_node(arp.sender_mac, arp.sender_ip, dpid, pin.in_port, sim_->now());
    raise(mon::EventType::kHostJoin, mon::Subject::mac(arp.sender_mac), arp.sender_ip.to_string(),
          dpid);
  }
  // The announced host may be the missing endpoint of parked setups.
  retry_pending(arp.sender_mac);

  const SwitchState& state = switches_.at(dpid);  // on_packet_in dropped unknown dpids
  if (state.channel == nullptr) return;

  if (arp.op == pkt::ArpOp::kRequest) {
    if (arp.sender_ip == arp.target_ip) return;  // gratuitous: learn only
    const HostLocation* target = routing_.find_by_ip(arp.target_ip);
    if (target != nullptr) {
      // Directory proxy (paper §III.C.2): answer from global host info, no
      // broadcast into the legacy fabric.
      ++stats_.arp_proxied;
      auto reply = pkt::PacketBuilder()
                       .eth(target->mac, arp.sender_mac)
                       .arp(pkt::ArpOp::kReply, target->mac, arp.target_ip, arp.sender_mac,
                            arp.sender_ip)
                       .finalize();
      of::PacketOut out;
      out.actions = of::output_to(pin.in_port);
      out.packet = std::move(reply);
      state.channel->send_to_switch(std::move(out));
    } else {
      // Unknown target: fall back to flooding on the ingress switch only.
      of::PacketOut out;
      out.buffer_id = pin.buffer_id;
      out.in_port = pin.in_port;
      out.actions = {of::ActionFlood{}};
      state.channel->send_to_switch(std::move(out));
    }
    return;
  }

  // ARP reply punted (e.g. answer to a flooded request): deliver directly to
  // the target host using global location knowledge.
  const HostLocation* dst = routing_.find(packet.eth.dst);
  if (dst != nullptr) {
    auto dst_state_it = switches_.find(dst->dpid);
    if (dst_state_it != switches_.end() && dst_state_it->second.channel != nullptr) {
      of::PacketOut out;
      out.actions = of::output_to(dst->port);
      out.packet = pin.packet;
      dst_state_it->second.channel->send_to_switch(std::move(out));
    }
  }
}

// --- DHCP directory proxy (paper §III.C.2) -----------------------------------------

void Controller::enable_dhcp(Ipv4Address base, std::uint32_t size, SimTime lease_duration) {
  dhcp_.emplace(base, size, lease_duration);
  replicate(ha::DhcpConfigRecord{base, size, lease_duration});
}

void Controller::handle_dhcp(DatapathId dpid, const of::PacketIn& pin) {
  if (!dhcp_) return;  // no DHCP service configured: drop
  const auto request = pkt::DhcpMessage::decode(pin.packet->payload_view());
  // Clients never receive OFFER/ACK via packet-in.
  if (!request || (request->op != pkt::DhcpOp::kDiscover && request->op != pkt::DhcpOp::kRequest)) {
    return;
  }
  const SwitchState& state = switches_.at(dpid);  // on_packet_in dropped unknown dpids
  if (state.channel == nullptr) return;

  pkt::DhcpMessage reply;
  reply.xid = request->xid;
  reply.client_mac = request->client_mac;
  reply.server_ip = svc::controller_service_ip();
  reply.lease_seconds = static_cast<std::uint32_t>(dhcp_->lease_duration() / kSecond);
  const auto leased = dhcp_->allocate(request->client_mac, sim_->now());
  if (!leased) {
    reply.op = pkt::DhcpOp::kNak;
  } else {
    replicate(ha::DhcpLeaseRecord{request->client_mac, *leased,
                                  dhcp_->lease_expiry(request->client_mac)});
    reply.your_ip = *leased;
    reply.op = request->op == pkt::DhcpOp::kDiscover ? pkt::DhcpOp::kOffer : pkt::DhcpOp::kAck;
  }
  if (leased && request->op == pkt::DhcpOp::kRequest) {
    // A committed lease is a host location: record it like an ARP would.
    const bool fresh =
        routing_.learn(request->client_mac, *leased, dpid, pin.in_port, sim_->now());
    replicate(
        ha::HostLearnedRecord{request->client_mac, *leased, dpid, pin.in_port, sim_->now()});
    if (fresh) {
      upsert_host_node(request->client_mac, *leased, dpid, pin.in_port, sim_->now());
      raise(mon::EventType::kHostJoin, mon::Subject::mac(request->client_mac),
            "dhcp " + leased->to_string(), dpid);
    }
    retry_pending(request->client_mac);
  }

  of::PacketOut out;
  out.actions = of::output_to(pin.in_port);
  out.packet =
      pkt::finalize(reply.to_packet(svc::controller_service_mac(), svc::controller_service_ip()));
  state.channel->send_to_switch(std::move(out));
}

// --- flow setup (paper §III.C.3 + §IV.A) ------------------------------------------

void Controller::handle_flow_setup(DatapathId dpid, const of::PacketIn& pin) {
  const pkt::Packet& packet = *pin.packet;
  const pkt::FlowKey key = pkt::FlowKey::from_packet(packet);

  if (!blocked_flows_.empty() && blocked_flows_.contains(key)) {
    install_drop(dpid, pin.in_port, key);
    return;
  }

  // Duplicate packet-in after install: packets of this flow raced to the
  // controller before the entries landed on the switch. Release the parked
  // packet through the already-computed ingress actions.
  if (const FlowRecord* existing = session_table_.find(key)) {
    release_buffered({dpid, pin.in_port, pin.buffer_id}, existing->ingress_actions);
    return;
  }

  // Duplicate packet-in while the first one's setup is still in flight:
  // remember the waiter, compute nothing.
  if (auto pending = pending_setups_.find(key); pending != pending_setups_.end()) {
    ++stats_.fastpath.suppressed_packet_ins;
    if (pending->second.waiters.size() < kPendingWaitersPerFlow) {
      pending->second.waiters.push_back({dpid, pin.in_port, pin.buffer_id});
    }
    return;
  }

  const DecisionStamp stamp = current_stamp();
  if (decisions_.validate(stamp)) ++stats_.fastpath.decision_cache_invalidations;

  // Benign cut-through memo: a flow that earned its verdict re-installs the
  // direct path — skipping the redirect chain and the re-inspection — for as
  // long as the world it was judged in still stands. Any stamp drift
  // (policy mutation, host move, SE change, failover) drops the memo and
  // falls back to redirect-and-reinspect.
  const DecisionCache::Memo memo = decisions_.check_offload(key, stamp);
  if (memo == DecisionCache::Memo::kDropped) {
    ++stats_.offload_invalidations;
    replicate(ha::FlowOnloadedRecord{key});
  } else if (memo == DecisionCache::Memo::kHeld) {
    if (auto direct = build_direct_decision(key)) {
      ++stats_.offload_replays;
      apply_decision(*direct, dpid, pin, key);
      return;
    }
    // An endpoint is momentarily unknown: fall through, the normal path
    // parks the setup.
  }

  const DecisionKey decision_key{DecisionCache::decision_class(key), dpid, pin.in_port};
  if (CachedDecision* cached = decisions_.find(decision_key)) {
    ++stats_.fastpath.decision_cache_hits;
    // The balancer still accounts every flow to its (per-user pinned) SEs.
    for (std::uint64_t se_id : cached->se_ids) lb_.note_cached_assignment(registry_, se_id);
    apply_decision(*cached, dpid, pin, key);
    return;
  }
  ++stats_.fastpath.decision_cache_misses;

  auto decision = build_decision(decision_key.cls, key);
  if (!decision) {
    // An endpoint has not announced itself yet (or an uplink is undiscovered):
    // park the setup until the missing knowledge arrives.
    park_setup(dpid, pin, key);
    return;
  }
  if (decision->cacheable) {
    apply_decision(decisions_.insert(decision_key, std::move(*decision)), dpid, pin, key);
  } else {
    apply_decision(*decision, dpid, pin, key);
  }
}

std::optional<CachedDecision> Controller::build_decision(const pkt::FlowKey& cls,
                                                                     const pkt::FlowKey& key) {
  CachedDecision decision;
  // The class zeroes only tp_src, which no policy predicate reads, so the
  // class verdict is the per-flow verdict.
  const Policy* policy = policies_.lookup(cls);
  decision.action = policy != nullptr ? policy->action : policies_.default_action();
  decision.policy_name = policy != nullptr ? policy->name : "default-deny";
  if (decision.action == PolicyAction::kDeny) return decision;

  const HostLocation* src = routing_.find(cls.dl_src);
  const HostLocation* dst = routing_.find(cls.dl_dst);
  if (src == nullptr || dst == nullptr) return std::nullopt;

  // Select the service chain via load balancing (paper §IV.B).
  std::vector<const SeRecord*> chain;
  if (decision.action == PolicyAction::kRedirect && policy != nullptr) {
    // Per-flow granularity re-balances every flow of the class, so the
    // chain (and its templates) must not be memoized.
    if (policy->granularity == LbGranularity::kPerFlow) decision.cacheable = false;
    for (svc::ServiceType service : policy->service_chain) {
      if (chain.size() == FlowRecord::kMaxChain) break;
      // Balance on the concrete key: per-flow pins and release_flow() are
      // keyed by it.
      const auto se_id = lb_.assign(registry_, service, key, policy->granularity);
      if (!se_id) continue;  // no live SE of this type: fail-open
      const SeRecord* se = registry_.find(*se_id);
      if (se != nullptr) {
        chain.push_back(se);
        decision.se_ids.push_back(*se_id);
        decision.se_macs.push_back(se->mac);
      }
    }
  }

  decision.prime.emplace_back(dst->mac, dst->ip, dst->dpid);
  for (const SeRecord* se : chain) decision.prime.emplace_back(se->mac, se->ip, se->dpid);
  if (!build_session_paths(cls, *src, *dst, chain, decision)) return std::nullopt;
  return decision;
}

bool Controller::build_session_paths(const pkt::FlowKey& key, const HostLocation& src,
                                     const HostLocation& dst,
                                     const std::vector<const SeRecord*>& chain,
                                     CachedDecision& decision) {
  // Build-then-send: a forward path that cannot complete (unknown LS port)
  // aborts before anything reaches a switch — no partially installed flows.
  if (!build_path(key, src, dst, chain, decision, /*reverse=*/false)) return false;
  // Pre-build the reply direction as one session (paper §III.C.3),
  // traversing the same SEs in reverse order so stream inspection sees both
  // directions of the conversation.
  build_path(SessionTable::session_reverse(key), dst, src, {chain.rbegin(), chain.rend()},
             decision, /*reverse=*/true);
  return true;
}

bool Controller::build_path(const pkt::FlowKey& key, const HostLocation& src,
                            const HostLocation& dst, const std::vector<const SeRecord*>& chain,
                            CachedDecision& decision, bool reverse) {
  DatapathId cur = src.dpid;
  PortId cur_in = src.port;
  pkt::FlowKey cur_key = key;
  const MacAddress orig_src = key.dl_src;
  const MacAddress final_mac = key.dl_dst;
  // SE the packet most recently returned from. Frames leaving that SE's
  // switch into the legacy fabric carry the SE's MAC as dl_src (restored at
  // the next hop); otherwise the learning fabric would see the original
  // host's MAC appear on the SE switch's port and re-point it there,
  // blackholing the host's own traffic (middlebox MAC flapping).
  const SeRecord* prev_se = nullptr;
  bool first = !reverse;  // the ingress entry is the first forward entry

  auto switch_mods = [&](DatapathId dpid) -> SwitchMods& {
    for (SwitchMods& sm : decision.switches) {
      if (sm.dpid == dpid) return sm;
    }
    decision.switches.emplace_back();
    decision.switches.back().dpid = dpid;
    return decision.switches.back();
  };

  auto emit = [&](DatapathId dpid, of::FlowEntry entry) -> void {
    entry.priority = kFlowPriority;
    entry.idle_timeout = config_.flow_idle_timeout;
    // SPAN: duplicate the (pre-forwarding) frame onto the mirror port.
    if (auto mirror = mirror_ports_.find(dpid); mirror != mirror_ports_.end()) {
      entry.actions.insert(entry.actions.begin(), of::ActionOutput{mirror->second});
    }
    of::FlowMod mod;
    mod.command = of::FlowModCommand::kAdd;
    SwitchMods& sm = switch_mods(dpid);
    if (first) {
      mod.notify_on_removal = true;
      decision.ingress_actions = entry.actions;
      sm.ingress_mod = static_cast<int>(sm.mods.size());
      first = false;
    }
    // cur_key's MACs are its own or an SE's (a key MAC equal to an SE's
    // rebuilds the same either way).
    const auto se_index = [&macs = decision.se_macs](MacAddress mac) {
      const auto at = std::find(macs.begin(), macs.end(), mac);
      return at == macs.end() ? PathStep::kKeyMac : static_cast<std::uint8_t>(at - macs.begin());
    };
    sm.steps.push_back(PathStep{dpid, entry.match.in_port_value(),
                                static_cast<std::uint8_t>(reverse),
                                se_index(entry.match.dl_src_value()),
                                se_index(entry.match.dl_dst_value())});
    mod.entry = std::move(entry);
    sm.mods.push_back(std::move(mod));
  };

  // Steering hops through the service chain (paper §IV.A steps i-iii).
  for (const SeRecord* se : chain) {
    of::FlowEntry steer;
    steer.match = of::Match::exact(cur_in, cur_key);
    steer.actions.push_back(of::ActionSetDlDst{se->mac});
    if (se->dpid == cur) {
      steer.actions.push_back(of::ActionOutput{se->port});
    } else {
      if (prev_se != nullptr) steer.actions.push_back(of::ActionSetDlSrc{prev_se->mac});
      const auto out = discovery_.uplink(cur);
      if (!out) return false;
      steer.actions.push_back(of::ActionOutput{*out});
    }
    emit(cur, std::move(steer));

    cur_key.dl_dst = se->mac;
    if (se->dpid != cur) {
      if (prev_se != nullptr) cur_key.dl_src = prev_se->mac;
      const auto in = discovery_.uplink(se->dpid);
      if (!in) return false;
      of::FlowEntry arrive;
      arrive.match = of::Match::exact(*in, cur_key);
      // Restore the true source before the SE inspects the flow.
      if (cur_key.dl_src != orig_src) arrive.actions.push_back(of::ActionSetDlSrc{orig_src});
      arrive.actions.push_back(of::ActionOutput{se->port});
      emit(se->dpid, std::move(arrive));
      cur_key.dl_src = orig_src;
    }
    cur = se->dpid;
    cur_in = se->port;
    prev_se = se;
  }

  // Final delivery (paper §IV.A step iii-iv / §III.C.3 two-hop routing).
  of::FlowEntry last;
  last.match = of::Match::exact(cur_in, cur_key);
  if (cur_key.dl_dst != final_mac) last.actions.push_back(of::ActionSetDlDst{final_mac});
  if (dst.dpid == cur) {
    last.actions.push_back(of::ActionOutput{dst.port});
    emit(cur, std::move(last));
  } else {
    if (prev_se != nullptr) last.actions.push_back(of::ActionSetDlSrc{prev_se->mac});
    const auto out = discovery_.uplink(cur);
    if (!out) return false;
    last.actions.push_back(of::ActionOutput{*out});
    emit(cur, std::move(last));

    const auto in = discovery_.uplink(dst.dpid);
    if (!in) return false;
    cur_key.dl_dst = final_mac;
    if (prev_se != nullptr) cur_key.dl_src = prev_se->mac;
    of::FlowEntry egress;
    egress.match = of::Match::exact(*in, cur_key);
    if (cur_key.dl_src != orig_src) egress.actions.push_back(of::ActionSetDlSrc{orig_src});
    egress.actions.push_back(of::ActionOutput{dst.port});
    emit(dst.dpid, std::move(egress));
  }
  return true;
}

// --- verdict-driven flow offload (service-chain fast path) ---------------------------

std::optional<CachedDecision> Controller::build_direct_decision(
    const pkt::FlowKey& key) {
  const HostLocation* src = routing_.find(key.dl_src);
  const HostLocation* dst = routing_.find(key.dl_dst);
  if (src == nullptr || dst == nullptr) return std::nullopt;

  CachedDecision decision;
  decision.action = PolicyAction::kAllow;
  const Policy* policy = policies_.lookup(key);
  decision.policy_name = policy != nullptr ? policy->name : "default";
  // Concrete-key templates for one flow; never memoized in the class cache.
  decision.cacheable = false;
  decision.prime.emplace_back(dst->mac, dst->ip, dst->dpid);
  if (!build_session_paths(key, *src, *dst, {}, decision)) return std::nullopt;
  return decision;
}

void Controller::offload_flow(FlowRecord& record, const SeRecord& se,
                              std::uint64_t inspected_bytes) {
  const pkt::FlowKey& key = record.key;
  auto direct = build_direct_decision(key);
  if (!direct) return;  // an endpoint location evaporated: keep the redirect

  // Whether `steps` hold the entry (dpid, match). The direct path's steps
  // name no SE, so they rebuild against this record like its own.
  const auto holds = [&record](const auto& steps, DatapathId dpid, const of::Match& match) {
    return std::any_of(steps.begin(), steps.end(), [&](const PathStep& step) {
      return step.dpid == dpid && SessionTable::entry_match(record, step) == match;
    });
  };

  // Rewrite in place: entries whose (dpid, match) survive — the ingress and
  // egress pair of the paper's 4-entry chain — are ModifyStrict'ed (keeps
  // the cookie, removal notification and counters), genuinely new hops are
  // added first, and only then the stale steering entries deleted, so no
  // in-flight packet ever hits a gap.
  decltype(record.installed) new_installed;
  for (SwitchMods& sm : direct->switches) {
    for (std::size_t i = 0; i < sm.mods.size(); ++i) {
      of::FlowMod& mod = sm.mods[i];
      mod.command = holds(record.installed, sm.dpid, mod.entry.match)
                        ? of::FlowModCommand::kModifyStrict
                        : of::FlowModCommand::kAdd;
      send_flow_mod(sm.dpid, std::move(mod));
      new_installed.push_back(sm.steps[i]);
    }
  }
  for (const PathStep& old : record.installed) {
    const of::Match match = SessionTable::entry_match(record, old);
    if (holds(new_installed, old.dpid, match)) continue;
    of::FlowMod mod;
    mod.command = of::FlowModCommand::kDeleteStrict;
    mod.entry.match = match;
    mod.entry.priority = kFlowPriority;
    send_flow_mod(old.dpid, mod);
  }

  // The SEs stop seeing this flow: release the chain's load-balancer
  // accounting. The steered-key registrations stay until the record dies —
  // packets already queued inside an SE when the rewrite lands may still
  // produce detections, and their reports must map back to this flow so a
  // late alert can block it and revoke the memo.
  for (std::uint64_t se_id : record.se_ids) {
    const SeRecord* chain_se = registry_.find(se_id);
    if (chain_se != nullptr) lb_.release_flow(key, chain_se->service);
  }
  record.se_ids.clear();
  record.benign_mask = 0;
  record.installed = std::move(new_installed);
  record.ingress_actions = direct->ingress_actions;

  decisions_.remember_offload(key, OffloadEntry{current_stamp(), inspected_bytes});
  replicate(ha::FlowOffloadedRecord{key, inspected_bytes});
  ++stats_.flows_offloaded;
  raise(mon::EventType::kFlowOffloaded, mon::Subject::mac(key.dl_src),
        "cut through after " + std::to_string(inspected_bytes) + " clean bytes",
        record.ingress_dpid, se.se_id, 0, &key);
}

void Controller::forget_offload(const pkt::FlowKey& key) {
  if (decisions_.forget_offload(key)) replicate(ha::FlowOnloadedRecord{key});
}

void Controller::apply_decision(CachedDecision& decision, DatapathId dpid, const of::PacketIn& pin,
                                const pkt::FlowKey& key) {
  if (decision.action == PolicyAction::kDeny) {
    ++stats_.flows_denied;
    install_drop(dpid, pin.in_port, key);
    raise(mon::EventType::kPolicyDenied, mon::Subject::mac(key.dl_src), decision.policy_name, dpid,
          0, 2, &key);
    return;
  }

  // Teach the legacy fabric where the destination and the chain's SEs live,
  // so the two-hop route unicasts instead of flooding.
  for (const auto& [mac, ip, at] : decision.prime) prime_fabric_location(mac, ip, at);

  // Fills a (usually reused) slab slot in place.
  const std::uint32_t slot = session_table_.open(key, decision.se_macs);
  FlowRecord& record = session_table_.at(slot);
  record.ingress_dpid = dpid;
  record.ingress_port = pin.in_port;
  for (std::uint64_t se_id : decision.se_ids) record.se_ids.push_back(se_id);
  record.ingress_actions = decision.ingress_actions;
  const std::uint64_t cookie = record.cookie;

  // The templates match the flow *class*; patch the zeroed source-port field
  // back to this flow's value (forward entries: tp_src, reverse: tp_dst).
  // (decision_class zeroes tp_src exactly for TCP/UDP, so compare in place
  // instead of materializing the class key.)
  const bool patch_ports =
      key.tp_src != 0 && (key.nw_proto == static_cast<std::uint8_t>(pkt::IpProto::kTcp) ||
                          key.nw_proto == static_cast<std::uint8_t>(pkt::IpProto::kUdp));

  for (const SwitchMods& sm : decision.switches) {
    auto sw = switches_.find(sm.dpid);
    of::SecureChannel* channel =
        sw != switches_.end() && sw->second.connected ? sw->second.channel : nullptr;
    of::FlowModBatch batch;
    batch.mods.reserve(sm.mods.size());
    for (std::size_t i = 0; i < sm.mods.size(); ++i) {
      of::FlowMod mod = sm.mods[i];
      if (patch_ports) {
        if (sm.steps[i].reverse != 0) {
          mod.entry.match.tp_dst(key.tp_src);
        } else {
          mod.entry.match.tp_src(key.tp_src);
        }
      }
      if (static_cast<int>(i) == sm.ingress_mod) {
        mod.entry.cookie = cookie;
        mod.buffer_id = pin.buffer_id;
      }
      record.installed.push_back(sm.steps[i]);
      batch.mods.push_back(std::move(mod));
    }
    if (channel != nullptr) {
      if (batch.mods.size() == 1) {
        channel->send_to_switch(of::Message{std::move(batch.mods.front())});
      } else {
        stats_.fastpath.batched_flow_mods += batch.mods.size();
        channel->send_to_switch(of::Message{std::move(batch)});
      }
    }
  }


  ++stats_.flows_installed;
  if (!decision.se_ids.empty()) ++stats_.flows_redirected;
  raise(mon::EventType::kFlowStart, mon::Subject::mac(key.dl_src),
        mon::Detail::flow_path(decision.se_ids.size()), dpid, 0, 0, &key);
}

// --- pending setups (packet-in suppression) ------------------------------------------

void Controller::park_setup(DatapathId dpid, const of::PacketIn& pin, const pkt::FlowKey& key) {
  if (pending_setups_.size() >= kPendingSetupCapacity) {
    // Table full: drop this setup, the sender retries (exactly what happened
    // to every unknown-destination setup before the pending table existed).
    ++stats_.fastpath.pending_setups_expired;
    return;
  }
  PendingSetup& pending = pending_setups_[key];
  pending.packet = pin.packet;
  pending.parked_at = sim_->now();
  pending.waiters.push_back({dpid, pin.in_port, pin.buffer_id});
  ++stats_.fastpath.pending_setups_parked;
}

void Controller::retry_pending(std::optional<MacAddress> host) {
  if (pending_setups_.empty()) return;
  std::vector<pkt::FlowKey> keys;
  for (const auto& [key, pending] : pending_setups_) {
    if (!host || key.dl_src == *host || key.dl_dst == *host) keys.push_back(key);
  }
  for (const pkt::FlowKey& key : keys) {
    auto it = pending_setups_.find(key);
    if (it == pending_setups_.end()) continue;
    PendingSetup pending = std::move(it->second);
    pending_setups_.erase(it);
    if (pending.waiters.empty() || pending.packet == nullptr) continue;

    // Re-run the setup as the first waiter's packet-in.
    of::PacketIn pin;
    pin.buffer_id = pending.waiters.front().buffer_id;
    pin.in_port = pending.waiters.front().in_port;
    pin.reason = of::PacketInReason::kNoMatch;
    pin.packet = pending.packet;
    handle_flow_setup(pending.waiters.front().dpid, pin);

    const FlowRecord* flow = session_table_.find(key);
    if (flow == nullptr) continue;  // denied, or parked again
    ++stats_.fastpath.pending_setups_completed;
    // Release the suppressed duplicates' buffered packets through the
    // now-installed ingress actions.
    for (std::size_t i = 1; i < pending.waiters.size(); ++i) {
      release_buffered(pending.waiters[i], flow->ingress_actions);
    }
  }
}

void Controller::release_buffered(const PendingSetup::Waiter& waiter,
                                  const of::ActionList& actions) {
  auto sw = switches_.find(waiter.dpid);
  if (sw == switches_.end() || sw->second.channel == nullptr) return;
  of::PacketOut out;
  out.buffer_id = waiter.buffer_id;
  out.in_port = waiter.in_port;
  out.actions = actions;
  sw->second.channel->send_to_switch(std::move(out));
}

void Controller::expire_pending(SimTime now) {
  for (auto it = pending_setups_.begin(); it != pending_setups_.end();) {
    if (now - it->second.parked_at >= kPendingSetupTimeout) {
      ++stats_.fastpath.pending_setups_expired;
      it = pending_setups_.erase(it);
    } else {
      ++it;
    }
  }
}

void Controller::install_drop(DatapathId dpid, PortId in_port, const pkt::FlowKey& key,
                              of::FlowModCommand command) {
  of::FlowMod mod;
  mod.command = command;
  mod.entry.match = of::Match::exact(in_port, key);
  mod.entry.actions = of::drop();
  mod.entry.priority = command == of::FlowModCommand::kAdd ? kDropPriority : kFlowPriority;
  // Bounded even as a modify: one that falls back to an insert (the entry
  // expired under the in-flight report) must not leave a permanent drop.
  mod.entry.idle_timeout = config_.flow_idle_timeout * 3;
  send_flow_mod(dpid, mod);
}

bool Controller::unblock_flow(const pkt::FlowKey& key) {
  if (blocked_flows_.erase(key) == 0) return false;
  replicate(ha::FlowUnblockedRecord{key});
  return true;
}

// --- flow teardown -----------------------------------------------------------------

void Controller::end_session(std::uint32_t slot, mon::Detail detail) {
  const FlowRecord& record = session_table_.at(slot);
  const pkt::FlowKey& key = record.key;
  if (record.app != svc::l7::AppProtocol::kUnknown) {
    monitor_.record_flow_ended(key.dl_src, record.app);
  }
  for (std::uint64_t se_id : record.se_ids) {
    const SeRecord* se = registry_.find(se_id);
    if (se != nullptr) lb_.release_flow(key, se->service);
  }
  raise(mon::EventType::kFlowEnd, mon::Subject::mac(key.dl_src), detail, record.ingress_dpid, 0, 0,
        &key);
  session_table_.close(slot);
}

void Controller::teardown_session(std::uint32_t slot) {
  const FlowRecord& record = session_table_.at(slot);
  for (const PathStep& step : record.installed) {
    of::FlowMod mod;
    mod.command = of::FlowModCommand::kDeleteStrict;
    mod.entry.match = SessionTable::entry_match(record, step);
    mod.entry.priority = kFlowPriority;
    send_flow_mod(step.dpid, mod);
  }
  // Ending frees the slot, so the late FlowRemoved from the delete is
  // ignored.
  end_session(slot, mon::Detail::torn_down());
}

std::size_t Controller::teardown_sessions(const std::vector<std::uint32_t>& slots) {
  for (std::uint32_t slot : slots) teardown_session(slot);
  return slots.size();
}

void Controller::on_flow_removed(DatapathId dpid, const of::FlowRemoved& removed) {
  // Only the current ingress entry of a live session ends it.
  const std::uint32_t slot = session_table_.removal_owner(removed.cookie, dpid, removed.match);
  if (slot == SessionTable::kNoSlot) return;
  // Data-path counters from the expired entry feed the per-user traffic
  // distribution view (paper §IV.C).
  monitor_.record_flow_traffic(session_table_.at(slot).key.dl_src, removed.packet_count,
                               removed.byte_count);
  end_session(slot, mon::Detail::flow_counters(removed.packet_count, removed.byte_count));
}

// --- housekeeping ---------------------------------------------------------------------

void Controller::start_housekeeping() {
  if (housekeeping_running_) return;
  housekeeping_running_ = true;
  sim_->schedule(config_.housekeeping_interval, [this]() { housekeeping_tick(); });
  if (config_.switch_echo_interval > 0) {
    sim_->schedule(config_.switch_echo_interval, [this]() { echo_tick(); });
  }
}

void Controller::echo_tick() {
  if (!housekeeping_running_) return;
  const SimTime now = sim_->now();
  const SimTime timeout = 3 * config_.switch_echo_interval;
  std::vector<DatapathId> dead;
  for (auto& [dpid, state] : switches_) {
    if (!state.connected || state.channel == nullptr) continue;
    if (now - state.last_echo > timeout) {
      dead.push_back(dpid);
      continue;
    }
    state.channel->send_to_switch(of::EchoRequest{static_cast<std::uint64_t>(now)});
  }
  for (DatapathId dpid : dead) {
    // The channel still believes it is connected (a partition, not a close):
    // declare the switch gone so state and flows stop depending on it. A
    // later heal re-runs the connect handshake.
    ++stats_.echo_timeouts;
    handle_switch_disconnected(dpid);
  }
  sim_->schedule(config_.switch_echo_interval, [this]() { echo_tick(); });
}

void Controller::housekeeping_tick() {
  if (!housekeeping_running_) return;
  const SimTime now = sim_->now();

  // The expiry sweep is the controller's burst emitter: one campus-scale
  // tick can expire thousands of hosts, so their leave events are staged
  // and ingested with a single bulk append.
  std::vector<mon::NetworkEvent> leave_events;
  for (const HostLocation& host : routing_.expire(now)) {
    replicate(ha::HostRemovedRecord{host.mac});
    // An expired host's flows must die with its location record: the next
    // packet-in for them would otherwise replay stale paths, and at campus
    // scale one batched expiry sweep can remove thousands of hosts — each
    // must be torn down and announced here, exactly once (expire() bumps
    // the routing version once for the whole batch).
    teardown_sessions(session_table_.slots_of_host(host.mac));
    if (registry_.find_by_mac(host.mac) != nullptr) continue;  // SEs expire below
    topology_.remove_node(host.mac.to_string());
    mon::NetworkEvent& leave = leave_events.emplace_back();
    leave.time = now;
    leave.type = mon::EventType::kHostLeave;
    leave.set_subject(mon::Subject::mac(host.mac));
    leave.set_detail("arp timeout");
    leave.dpid = host.dpid;
  }
  if (!leave_events.empty()) events_.append_batch(std::move(leave_events));
  for (const SeRecord& se : registry_.expire(now)) {
    replicate(ha::SeRemovedRecord{se.se_id});
    lb_.purge_se(se.se_id);
    topology_.remove_node("se" + std::to_string(se.se_id));
    // Flows steered through the dead SE would blackhole until their idle
    // timeout; tear them down so their next packet re-routes over the
    // surviving pool (no single point of failure, paper §IV.B).
    const std::size_t torn = teardown_sessions(session_table_.slots_through_se(se.se_id));
    raise(mon::EventType::kSeOffline, mon::Subject::se(se.se_id),
          std::string(svc::service_type_name(se.service)) + ", " + std::to_string(torn) +
              " flows re-routed",
          se.dpid, se.se_id);
    // SE pool shrank: verdicts its engine learned are no longer backed by a
    // live inspector.
    bump_verdict_cache_epoch("se_expired");
  }
  expire_pending(now);
  if (dhcp_) {
    for (const auto& expired : dhcp_->expire(now)) {
      replicate(ha::DhcpReleaseRecord{expired.first});
    }
  }
  // Periodic re-discovery keeps the link table fresh across topology
  // changes; interval 0 limits discovery to switch-join time.
  if (config_.lldp_interval > 0 && now >= next_lldp_) {
    for (const auto& [dpid, state] : switches_) {
      if (state.connected) send_lldp_probes(dpid);
    }
    next_lldp_ = now + config_.lldp_interval;
  }
  if (config_.stats_interval > 0 && now >= next_stats_poll_) {
    poll_stats();
    next_stats_poll_ = now + config_.stats_interval;
  }
  // Partial event-replication batches must not sit unshipped for longer
  // than a housekeeping interval.
  flush_event_replication();
  sim_->schedule(config_.housekeeping_interval, [this]() { housekeeping_tick(); });
}

// --- helpers -----------------------------------------------------------------------

void Controller::upsert_host_node(const MacAddress& mac, Ipv4Address ip, DatapathId dpid,
                                  PortId port, SimTime at) {
  topology_.upsert_node(mac.to_string(),
                        {ip.to_string(), topo::NodeKind::kHost, dpid, port, at});
}

void Controller::upsert_se_node(std::uint64_t se_id, svc::ServiceType service, DatapathId dpid,
                                PortId port, SimTime at) {
  const std::string id = "se" + std::to_string(se_id);
  topology_.upsert_node(id, {id + ":" + svc::service_type_name(service),
                             topo::NodeKind::kServiceElement, dpid, port, at});
}

void Controller::poll_stats() {
  for (const auto& [dpid, state] : switches_) {
    if (state.connected && state.channel != nullptr) {
      state.channel->send_to_switch(of::StatsRequest{});
    }
  }
}

void Controller::prime_fabric_location(const MacAddress& mac, Ipv4Address ip, DatapathId dpid) {
  constexpr SimTime kPrimeInterval = 30 * kSecond;
  const SimTime now = sim_->now();
  auto it = primed_.find(mac);
  if (it != primed_.end() && now - it->second < kPrimeInterval) return;
  const auto ls = discovery_.uplink(dpid);
  auto sw = switches_.find(dpid);
  if (!ls || sw == switches_.end() || sw->second.channel == nullptr) return;
  primed_[mac] = now;

  of::PacketOut out;
  out.actions = of::output_to(*ls);
  out.packet = pkt::PacketBuilder()
                   .eth(mac, MacAddress::broadcast())
                   .arp(pkt::ArpOp::kRequest, mac, ip, MacAddress(), ip)
                   .finalize();
  sw->second.channel->send_to_switch(std::move(out));
}

void Controller::send_flow_mod(DatapathId dpid, of::FlowMod mod) {
  auto it = switches_.find(dpid);
  if (it == switches_.end() || it->second.channel == nullptr || !it->second.connected) return;
  it->second.channel->send_to_switch(std::move(mod));
}

// --- high availability -------------------------------------------------------

void Controller::drop_pending_for_switch(DatapathId dpid) {
  for (auto it = pending_setups_.begin(); it != pending_setups_.end();) {
    std::vector<PendingSetup::Waiter>& waiters = it->second.waiters;
    std::erase_if(waiters,
                  [dpid](const PendingSetup::Waiter& w) { return w.dpid == dpid; });
    if (waiters.empty()) {
      ++stats_.fastpath.pending_setups_expired;
      it = pending_setups_.erase(it);
    } else {
      ++it;
    }
  }
}

bool Controller::apply_replicated(const ha::RecordBody& body) {
  applying_replicated_ = true;
  bool applied = true;
  if (const auto* h = std::get_if<ha::HostLearnedRecord>(&body)) {
    routing_.learn(h->mac, h->ip, h->dpid, h->port, h->seen_at);
    if (registry_.find_by_mac(h->mac) == nullptr) {
      upsert_host_node(h->mac, h->ip, h->dpid, h->port, h->seen_at);
    }
  } else if (const auto* h = std::get_if<ha::HostRemovedRecord>(&body)) {
    routing_.remove(h->mac);
    topology_.remove_node(h->mac.to_string());
  } else if (const auto* r = std::get_if<ha::LsPortRecord>(&body)) {
    discovery_.set_uplink(r->dpid, r->port);
    decisions_.invalidate();
  } else if (const auto* l = std::get_if<ha::LinkRecord>(&body)) {
    topology_.links().add(topo::AsLink{l->src, l->src_port, l->dst, l->dst_port});
  } else if (const auto* p = std::get_if<ha::PolicyAddedRecord>(&body)) {
    policies_.add(p->policy);
  } else if (const auto* p = std::get_if<ha::PolicyRemovedRecord>(&body)) {
    policies_.remove(p->id);
  } else if (const auto* d = std::get_if<ha::DefaultActionRecord>(&body)) {
    policies_.set_default_action(d->action);
  } else if (const auto* s = std::get_if<ha::SeUpsertRecord>(&body)) {
    svc::OnlineMessage report;
    report.service = s->service;
    registry_.handle_online(s->se_id, s->mac, s->ip, s->dpid, s->port, report, s->seen_at);
    upsert_se_node(s->se_id, s->service, s->dpid, s->port, s->seen_at);
  } else if (const auto* s = std::get_if<ha::SeRemovedRecord>(&body)) {
    registry_.remove(s->se_id);
    lb_.purge_se(s->se_id);
    topology_.remove_node("se" + std::to_string(s->se_id));
  } else if (const auto* f = std::get_if<ha::FlowBlockedRecord>(&body)) {
    blocked_flows_.insert_or_assign(f->key,
                                    BlockedFlowInfo{f->ingress_dpid, f->ingress_port});
  } else if (const auto* f = std::get_if<ha::FlowUnblockedRecord>(&body)) {
    blocked_flows_.erase(f->key);
  } else if (const auto* d = std::get_if<ha::DhcpConfigRecord>(&body)) {
    // Re-emplacing wipes leases, so only (re)configure on an actual change.
    if (!dhcp_ || dhcp_->base() != d->base || dhcp_->capacity() != d->size ||
        dhcp_->lease_duration() != d->lease_duration) {
      dhcp_.emplace(d->base, d->size, d->lease_duration);
    }
  } else if (const auto* d = std::get_if<ha::DhcpLeaseRecord>(&body)) {
    if (dhcp_) dhcp_->restore(d->mac, d->ip, d->expires);
  } else if (const auto* d = std::get_if<ha::DhcpReleaseRecord>(&body)) {
    if (dhcp_) dhcp_->release(d->mac);
  } else if (const auto* s = std::get_if<ha::SwitchUpRecord>(&body)) {
    // `connected` stays false: connectivity is a per-controller fact, and
    // this instance's channel to the switch has not handshaken. The
    // topology view mirrors the active's, so a promoted standby can route
    // before every FeaturesReply of its own has landed.
    SwitchState& state = switches_[s->dpid];
    state.num_ports = s->num_ports;
    state.name = s->name;
    topology_.add_switch({s->dpid, s->name, state.kind, 0});
  } else if (const auto* s = std::get_if<ha::SwitchDownRecord>(&body)) {
    switch_loads_.erase(s->dpid);
    topology_.remove_switch(s->dpid);
  } else if (const auto* f = std::get_if<ha::FlowOffloadedRecord>(&body)) {
    // Stamped with *this* instance's current stamp: note_promoted() bumps
    // the epoch, so a pre-failover verdict is never replayed by the new
    // active — the flow redirects and re-earns its cut-through.
    decisions_.remember_offload(f->key, OffloadEntry{current_stamp(), f->inspected_bytes});
  } else if (const auto* f = std::get_if<ha::FlowOnloadedRecord>(&body)) {
    decisions_.forget_offload(f->key);
  } else if (const auto* v = std::get_if<ha::VerdictLearnedRecord>(&body)) {
    if (verdict_cache_) {
      verdict_cache_->insert(v->digest, static_cast<svc::CachedVerdict>(v->verdict), v->rule_id,
                             v->severity, v->inspected_bytes);
    }
  } else if (const auto* e = std::get_if<ha::VerdictCacheEpochRecord>(&body)) {
    // Raise-to-at-least: idempotent when several controllers share one store
    // (the single-process sims), a plain catch-up when each has its own.
    if (verdict_cache_) verdict_cache_->advance_epoch_to(e->epoch);
  } else if (const auto* e = std::get_if<ha::EventBatchRecord>(&body)) {
    // Rows keep their active-assigned ids and seal into the active's
    // segment boundaries; duplicates from snapshot/log overlap are deduped
    // inside the pipeline.
    applied = events_.restore_rows(e->blob);
  }
  applying_replicated_ = false;
  return applied;
}

std::vector<ha::RecordBody> Controller::export_state() const {
  std::vector<ha::RecordBody> out;
  if (dhcp_) {
    out.push_back(ha::DhcpConfigRecord{dhcp_->base(), dhcp_->capacity(),
                                       dhcp_->lease_duration()});
  }
  // Export what the topology view holds, not what this instance's channels
  // have handshaken: a standby that learned switches via replication exports
  // the same records the active does (connectivity is per-controller).
  for (const auto& [dpid, state] : switches_) {
    if (topology_.has_switch(dpid)) {
      out.push_back(ha::SwitchUpRecord{dpid, state.num_ports, state.name});
    }
  }
  for (const auto& [dpid, port] : discovery_.uplinks()) {
    out.push_back(ha::LsPortRecord{dpid, port});
  }
  for (const topo::AsLink& link : topology_.links().all()) {
    out.push_back(ha::LinkRecord{link.src, link.src_port, link.dst, link.dst_port});
  }
  // The hash-keyed tables iterate in arbitrary order; sort so two exports of
  // identical state produce identical snapshots.
  std::vector<HostLocation> hosts = routing_.all();
  std::sort(hosts.begin(), hosts.end(), [](const HostLocation& a, const HostLocation& b) {
    return a.mac.to_uint64() < b.mac.to_uint64();
  });
  for (const HostLocation& host : hosts) {
    out.push_back(ha::HostLearnedRecord{host.mac, host.ip, host.dpid, host.port, host.last_seen});
  }
  for (const SeRecord* se : registry_.all()) {  // map-ordered by se_id
    out.push_back(ha::SeUpsertRecord{se->se_id, se->mac, se->ip, se->service, se->dpid, se->port,
                                     se->last_heartbeat});
  }
  out.push_back(ha::DefaultActionRecord{policies_.default_action()});
  for (const Policy& policy : policies_.policies()) {
    out.push_back(ha::PolicyAddedRecord{policy});
  }
  for (const auto& [key, info] : blocked_flows_) {
    out.push_back(ha::FlowBlockedRecord{key, info.ingress_dpid, info.ingress_port});
  }
  for (const auto& [key, entry] : decisions_.offloads()) {  // map-ordered
    out.push_back(ha::FlowOffloadedRecord{key, entry.inspected_bytes});
  }
  if (dhcp_) {
    std::vector<std::pair<MacAddress, DhcpPool::Lease>> leases(dhcp_->leases().begin(),
                                                               dhcp_->leases().end());
    std::sort(leases.begin(), leases.end(), [](const auto& a, const auto& b) {
      return a.first.to_uint64() < b.first.to_uint64();
    });
    for (const auto& [mac, lease] : leases) {
      out.push_back(ha::DhcpLeaseRecord{mac, lease.ip, lease.expires});
    }
  }
  if (verdict_cache_) {
    // Epoch first, so imported entries land stamped with the right epoch.
    out.push_back(ha::VerdictCacheEpochRecord{verdict_cache_->epoch()});
    for (const svc::VerdictCache::ExportedEntry& entry : verdict_cache_->export_entries()) {
      out.push_back(ha::VerdictLearnedRecord{entry.digest,
                                             static_cast<std::uint8_t>(entry.verdict),
                                             entry.rule_id, entry.severity,
                                             entry.inspected_bytes});
    }
  }
  // Event database: one row batch per sealed full-tier segment, then one
  // for the open tail. An importer re-ingests the rows, rebuilding its
  // rollups and sealing on the same id boundaries (DESIGN.md §12).
  for (std::vector<std::uint8_t>& blob : events_.export_row_batches()) {
    out.push_back(ha::EventBatchRecord{std::move(blob)});
  }
  return out;
}

void Controller::reset_for_import() {
  routing_ = RoutingTable(config_.host_timeout);
  registry_ = ServiceRegistry(config_.se_liveness_timeout);
  policies_ = PolicyTable(config_.default_action);
  install_policy_observer();
  blocked_flows_.clear();
  decisions_.clear_offloads();
  discovery_ = Discovery{};
  dhcp_.reset();
  topology_ = topo::TopologyGraph{};
  // The snapshot's event records repopulate a fresh pipeline (reassignment
  // drops the ingest observer; re-install it).
  events_ =
      mon::EventPipeline(mon::EventPipeline::config_for_capacity(config_.event_store_capacity));
  install_event_observer();
  pending_event_repl_.clear();
  decisions_.invalidate();
}

void Controller::import_snapshot(const std::vector<ha::RecordBody>& records) {
  reset_for_import();
  for (const ha::RecordBody& record : records) apply_replicated(record);
}

void Controller::note_promoted() {
  // No cached decision, cookie template or suppressed packet-in computed
  // before the failover may replay against the post-failover network.
  decisions_.invalidate();
  // Nor may any replicated verdict: promotion means the old active's world
  // view is dead, so the cache restarts at a fresh epoch.
  bump_verdict_cache_epoch("failover");
  raise(mon::EventType::kFailover, "controller", "promoted to active");
  start_housekeeping();
}

void Controller::begin_reconciliation() {
  reconcile_report_ = ReconcileReport{};
  reconcile_pending_.clear();
  for (const auto& [dpid, state] : switches_) {
    if (state.connected && state.channel != nullptr) {
      reconcile_pending_.insert(dpid);
      state.channel->send_to_switch(of::StatsRequest{});
    }
  }
  reconciling_ = true;
  if (reconcile_pending_.empty()) finish_reconciliation();
}

void Controller::finish_reconciliation() {
  reconciling_ = false;
  reconcile_report_.completed_at = sim_->now();
  raise(mon::EventType::kReconciled, "controller",
        std::to_string(reconcile_report_.entries_audited) + " entries audited, " +
            std::to_string(reconcile_report_.stale_removed) + " stale removed, " +
            std::to_string(reconcile_report_.drops_reinstalled) + " drops reinstalled");
}

void Controller::audit_switch_stats(DatapathId dpid, const of::StatsReply& reply) {
  ++reconcile_report_.switches_audited;
  // Exact keys whose drop entry already exists on this switch.
  std::set<pkt::FlowKey> dropped_here;

  const auto remove_entry = [&](const of::FlowStats& fs) {
    of::FlowMod mod;
    mod.command = of::FlowModCommand::kDeleteStrict;
    mod.entry.match = fs.match;
    mod.entry.priority = fs.priority;
    send_flow_mod(dpid, mod);
    ++reconcile_report_.stale_removed;
  };

  for (const of::FlowStats& fs : reply.flows) {
    ++reconcile_report_.entries_audited;
    // Wildcard entries are administrator-installed, not controller flow
    // state; the audit leaves them alone.
    if (!fs.match.is_exact()) continue;
    const pkt::FlowKey key = fs.match.flow_key();
    const bool blocked = blocked_flows_.contains(key);
    const Policy* policy = policies_.lookup(key);
    const bool denied =
        (policy != nullptr ? policy->action : policies_.default_action()) == PolicyAction::kDeny;

    if (fs.drop) {
      // A drop entry is legitimate only while its flow is still blocked or
      // policy-denied; anything else is an orphan from the previous active
      // (e.g. a flow unblocked after the entry was installed).
      if (blocked || denied) {
        dropped_here.insert(key);
      } else {
        remove_entry(fs);
      }
      continue;
    }
    // Forwarding entry. A blocked flow must not forward: overwrite the
    // entry with a bounded drop in place (same match, flow priority).
    if (blocked) {
      install_drop(dpid, fs.match.in_port_value(), key, of::FlowModCommand::kModifyStrict);
      ++reconcile_report_.drops_reinstalled;
      dropped_here.insert(key);
      continue;
    }
    if (denied) {
      // Policy changed to deny after the previous active installed the path.
      remove_entry(fs);
      continue;
    }
    // Entries whose endpoints the replicated state never heard of are
    // orphans (both hosts expired or left before the failover).
    const bool src_known =
        routing_.find(key.dl_src) != nullptr || registry_.find_by_mac(key.dl_src) != nullptr;
    const bool dst_known =
        routing_.find(key.dl_dst) != nullptr || registry_.find_by_mac(key.dl_dst) != nullptr;
    if (!src_known || !dst_known) remove_entry(fs);
  }

  // Re-install drops the switch lost (e.g. it idle-expired while no active
  // was watching, or the crash raced the install).
  for (const auto& [key, info] : blocked_flows_) {
    if (info.ingress_dpid != dpid || info.ingress_port == kInvalidPort) continue;
    if (dropped_here.contains(key)) continue;
    install_drop(dpid, info.ingress_port, key);
    ++reconcile_report_.drops_reinstalled;
  }
}

std::uint64_t Controller::channel_outbox_dropped() const {
  std::uint64_t total = 0;
  for (const auto& [dpid, state] : switches_) {
    if (state.channel != nullptr) total += state.channel->outbox_dropped();
  }
  return total;
}

std::size_t Controller::channel_backlog() const {
  std::size_t total = 0;
  for (const auto& [dpid, state] : switches_) {
    if (state.channel != nullptr) {
      total += state.channel->outbox_depth_to_switch() +
               state.channel->outbox_depth_to_controller();
    }
  }
  return total;
}

void Controller::append_event(mon::NetworkEvent&& event) {
  event.time = sim_->now();
  events_.append(std::move(event));
}

}  // namespace livesec::ctrl
