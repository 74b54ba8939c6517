#include "switching/openflow_switch.h"

#include "common/logging.h"
#include "packet/flow_key.h"
#include "packet/packet_pool.h"
#include "sim/simulator.h"

namespace livesec::sw {

OpenFlowSwitch::OpenFlowSwitch(sim::Simulator& sim, std::string name, DatapathId dpid)
    : OpenFlowSwitch(sim, std::move(name), dpid, Config{}) {}

OpenFlowSwitch::OpenFlowSwitch(sim::Simulator& sim, std::string name, DatapathId dpid,
                               Config config)
    : Node(sim, std::move(name)), dpid_(dpid), config_(config) {
  set_ingress_delay(config_.processing_delay);
  table_.set_removal_callback([this](const of::FlowEntry& entry, of::RemovalReason reason) {
    if (channel_ == nullptr) return;
    of::FlowRemoved removed;
    removed.match = entry.match;
    removed.priority = entry.priority;
    removed.cookie = entry.cookie;
    removed.reason = reason;
    removed.packet_count = entry.packet_count;
    removed.byte_count = entry.byte_count;
    channel_->send_to_controller(removed);
  });
}

sim::Port& OpenFlowSwitch::add_port(PortRole role) {
  sim::Port& p = Node::add_port();
  roles_[p.id()] = role;
  return p;
}

PortRole OpenFlowSwitch::port_role(PortId port) const {
  auto it = roles_.find(port);
  return it == roles_.end() ? PortRole::kNetworkPeriphery : it->second;
}

void OpenFlowSwitch::connect_controller(of::SecureChannel& channel) {
  channel_ = &channel;
  of::FeaturesReply features;
  features.datapath_id = dpid_;
  features.num_ports = static_cast<std::uint32_t>(port_count());
  features.name = name();
  channel.connect(features);
}

void OpenFlowSwitch::handle_packet(PortId in_port, pkt::PacketPtr packet) {
  process(in_port, std::move(packet));
}

void OpenFlowSwitch::process(PortId in_port, pkt::PacketPtr packet) {
  // LLDP probes always reach the controller regardless of port role: they
  // drive the AS-layer link discovery of paper §III.C.1, and they arrive on
  // Legacy-Switching ports by construction.
  if (packet->eth.ether_type == static_cast<std::uint16_t>(pkt::EtherType::kLldp)) {
    punt_to_controller(in_port, std::move(packet));
    return;
  }
  const pkt::FlowKey key = pkt::FlowKey::from_packet(*packet);
  const of::FlowEntry* entry =
      table_.lookup(in_port, key, packet->wire_size(), simulator().now());
  if (entry != nullptr) {
    execute_actions(entry->actions, in_port, std::move(packet));
    return;
  }
  // Table miss. NP-side ports punt to the controller (location discovery and
  // routing are controller-driven, paper §III.C.2-3); LS-side ports drop
  // silently — those packets are legacy-fabric floods not addressed to a
  // flow this switch serves, and punting them would melt the channel.
  if (port_role(in_port) == PortRole::kNetworkPeriphery) {
    punt_to_controller(in_port, std::move(packet));
  } else {
    ++miss_drops_;
    log_debug(name()) << "LS-miss in_port=" << in_port << " " << key.to_string();
  }
}

void OpenFlowSwitch::execute_actions(const of::ActionList& actions, PortId in_port,
                                     pkt::PacketPtr packet) {
  // Header rewrites go through pkt::writable_packet: in place while this hop
  // holds the only reference, copy-on-write once an output or punt has
  // shared the packet. The last action hands its reference on.
  for (const of::Action& action : actions) {
    if (const auto* out = std::get_if<of::ActionOutput>(&action)) {
      ++packets_forwarded_;
      if (&action == &actions.back()) {
        send(out->port, std::move(packet));
      } else {
        send(out->port, packet);
      }
    } else if (std::get_if<of::ActionFlood>(&action)) {
      for (PortId p = 0; p < port_count(); ++p) {
        if (p != in_port) send(p, packet);
      }
      ++packets_forwarded_;
    } else if (std::get_if<of::ActionController>(&action)) {
      punt_to_controller(in_port, packet);
    } else if (const auto* set_dst = std::get_if<of::ActionSetDlDst>(&action)) {
      pkt::writable_packet(packet).eth.dst = set_dst->mac;
    } else if (const auto* set_src = std::get_if<of::ActionSetDlSrc>(&action)) {
      pkt::writable_packet(packet).eth.src = set_src->mac;
    } else if (std::get_if<of::ActionDrop>(&action)) {
      return;
    }
  }
}

void OpenFlowSwitch::punt_to_controller(PortId in_port, pkt::PacketPtr packet) {
  if (channel_ == nullptr || !channel_->connected()) {
    ++miss_drops_;
    return;
  }
  if (buffers_.size() >= config_.buffer_capacity) buffers_.pop_front();
  const std::uint32_t id = next_buffer_id_++;
  buffers_.push_back(Buffered{id, in_port, packet});

  of::PacketIn pin;
  pin.buffer_id = id;
  pin.in_port = in_port;
  pin.reason = of::PacketInReason::kNoMatch;
  pin.packet = std::move(packet);
  ++packet_ins_;
  channel_->send_to_controller(std::move(pin));
}

pkt::PacketPtr OpenFlowSwitch::take_buffered(std::uint32_t buffer_id) {
  for (auto it = buffers_.begin(); it != buffers_.end(); ++it) {
    if (it->id == buffer_id) {
      pkt::PacketPtr p = std::move(it->packet);
      buffers_.erase(it);
      return p;
    }
  }
  return nullptr;
}

void OpenFlowSwitch::apply_flow_mod(const of::FlowMod& fm) {
  switch (fm.command) {
    case of::FlowModCommand::kAdd:
      table_.add(fm.entry, simulator().now());
      break;
    case of::FlowModCommand::kModifyStrict:
      // OF 1.0 MODIFY semantics: no matching entry means insert. Matters to
      // the verdict-driven rewrite — if the entry idle-expired in the gap
      // between the flow's last packet and the verdict, the direct-path
      // rewrite must still land instead of silently no-opping.
      if (table_.modify_strict(fm.entry.match, fm.entry.priority, fm.entry.actions) == 0) {
        table_.add(fm.entry, simulator().now());
      }
      break;
    case of::FlowModCommand::kDeleteStrict:
      table_.remove_strict(fm.entry.match, fm.entry.priority, simulator().now());
      break;
    case of::FlowModCommand::kDelete:
      table_.remove_matching(fm.entry.match, simulator().now());
      break;
  }
}

void OpenFlowSwitch::release_buffered(std::uint32_t buffer_id) {
  if (buffer_id == of::PacketOut::kNoBuffer) return;
  // Release the parked packet through the (possibly new) table.
  for (auto it = buffers_.begin(); it != buffers_.end(); ++it) {
    if (it->id == buffer_id) {
      PortId in_port = it->in_port;
      pkt::PacketPtr p = std::move(it->packet);
      buffers_.erase(it);
      process(in_port, std::move(p));
      break;
    }
  }
}

void OpenFlowSwitch::handle_controller_message(const of::Message& message) {
  if (const auto* fm = std::get_if<of::FlowMod>(&message)) {
    apply_flow_mod(*fm);
    release_buffered(fm->buffer_id);
  } else if (const auto* batch = std::get_if<of::FlowModBatch>(&message)) {
    // Batched install: every mod lands in the table before any buffered
    // packet is released, so a release through the ingress entry already
    // sees the switch's complete share of the path.
    for (const of::FlowMod& mod : batch->mods) apply_flow_mod(mod);
    for (const of::FlowMod& mod : batch->mods) release_buffered(mod.buffer_id);
  } else if (const auto* po = std::get_if<of::PacketOut>(&message)) {
    pkt::PacketPtr packet =
        po->buffer_id == of::PacketOut::kNoBuffer ? po->packet : take_buffered(po->buffer_id);
    if (packet) execute_actions(po->actions, po->in_port, std::move(packet));
  } else if (const auto* echo = std::get_if<of::EchoRequest>(&message)) {
    if (channel_) channel_->send_to_controller(of::EchoReply{echo->token});
  } else if (std::get_if<of::StatsRequest>(&message)) {
    of::StatsReply reply;
    reply.table_lookups = table_.lookups();
    reply.table_hits = table_.hits();
    reply.flows.reserve(table_.size());
    table_.for_each_entry([&reply](const of::FlowEntry& e) {
      // An entry drops when its action list is empty or an explicit drop
      // action precedes any output — how the controller's of::drop() and an
      // action-less FlowMod both look on the datapath.
      bool drops = true;
      for (const of::Action& action : e.actions) {
        if (std::get_if<of::ActionDrop>(&action) != nullptr) break;
        if (std::get_if<of::ActionOutput>(&action) != nullptr ||
            std::get_if<of::ActionFlood>(&action) != nullptr ||
            std::get_if<of::ActionController>(&action) != nullptr) {
          drops = false;
          break;
        }
      }
      reply.flows.push_back(of::FlowStats{e.match, e.priority, e.packet_count, e.byte_count, drops});
    });
    if (channel_) channel_->send_to_controller(std::move(reply));
  }
}

}  // namespace livesec::sw
