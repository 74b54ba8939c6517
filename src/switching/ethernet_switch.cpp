#include "switching/ethernet_switch.h"

#include <cassert>

#include "packet/flow_key.h"
#include "sim/simulator.h"

namespace livesec::sw {

EthernetSwitch::EthernetSwitch(sim::Simulator& sim, std::string name)
    : EthernetSwitch(sim, std::move(name), Config{}) {}

EthernetSwitch::EthernetSwitch(sim::Simulator& sim, std::string name, Config config)
    : Node(sim, std::move(name)), config_(config) {
  set_ingress_delay(config_.forwarding_delay);
}

void EthernetSwitch::set_port_blocked(PortId port, bool blocked) { blocked_[port] = blocked; }

bool EthernetSwitch::port_blocked(PortId port) const {
  auto it = blocked_.find(port);
  return it != blocked_.end() && it->second;
}

PortId EthernetSwitch::create_bond(const std::vector<PortId>& members) {
  assert(!members.empty());
  for ([[maybe_unused]] PortId member : members) {
    assert(!member_to_bond_.contains(member) && "port already bonded");
  }
  const PortId bond = kBondBase + static_cast<PortId>(bonds_.size());
  bonds_.push_back(members);
  for (PortId member : members) member_to_bond_[member] = bond;
  return bond;
}

const std::vector<PortId>& EthernetSwitch::bond_members(PortId bond) const {
  static const std::vector<PortId> kEmpty;
  if (bond < kBondBase || bond - kBondBase >= bonds_.size()) return kEmpty;
  return bonds_[bond - kBondBase];
}

std::uint64_t EthernetSwitch::member_tx_count(PortId physical_port) const {
  auto it = member_tx_.find(physical_port);
  return it == member_tx_.end() ? 0 : it->second;
}

PortId EthernetSwitch::logical_port(PortId physical) const {
  auto it = member_to_bond_.find(physical);
  return it == member_to_bond_.end() ? physical : it->second;
}

PortId EthernetSwitch::resolve_egress(PortId port, const pkt::Packet& packet) const {
  if (port < kBondBase) return port;
  const auto& members = bond_members(port);
  if (members.empty()) return kInvalidPort;
  // Flow-hash member selection: all packets of one flow take one member
  // (in-order delivery), different flows spread across members (ECMP).
  const std::uint64_t h = pkt::FlowKey::from_packet(packet).hash();
  return members[h % members.size()];
}

PortId EthernetSwitch::learned_port(const MacAddress& mac) const {
  auto it = mac_table_.find(mac);
  if (it == mac_table_.end()) return kInvalidPort;
  if (config_.mac_aging > 0 && simulator().now() - it->second.last_seen > config_.mac_aging) {
    return kInvalidPort;
  }
  return it->second.port;
}

void EthernetSwitch::handle_packet(PortId in_port, pkt::PacketPtr packet) {
  if (port_blocked(in_port)) return;
  const PortId in_logical = logical_port(in_port);

  // LLDP is a link protocol, not host traffic: flood it (the controller's
  // discovery probes must cross the fabric) but never learn from it.
  if (packet->eth.ether_type == static_cast<std::uint16_t>(pkt::EtherType::kLldp)) {
    flood(in_port, packet);
    return;
  }

  // Learn the sender's location (bond-aware: the logical port is recorded).
  if (!packet->eth.src.is_multicast() && !packet->eth.src.is_zero()) {
    mac_table_[packet->eth.src] = MacEntry{in_logical, simulator().now()};
  }

  const MacAddress dst = packet->eth.dst;
  if (dst.is_broadcast() || dst.is_multicast()) {
    flood(in_port, packet);
    return;
  }
  const PortId out = learned_port(dst);
  if (out == kInvalidPort) {
    flood(in_port, packet);
  } else if (out != in_logical) {
    forward(out, packet);
  }
  // out == in_logical: destination is back where it came from; drop
  // (standard switch behaviour — the frame already reached that segment).
}

void EthernetSwitch::forward(PortId out, pkt::PacketPtr packet) {
  const PortId egress = resolve_egress(out, *packet);
  if (egress == kInvalidPort) return;
  ++forwarded_;
  if (out >= kBondBase) ++member_tx_[egress];
  send(egress, std::move(packet));
}

void EthernetSwitch::flood(PortId in_port, const pkt::PacketPtr& packet) {
  ++flooded_;
  const PortId in_logical = logical_port(in_port);
  for (PortId p = 0; p < port_count(); ++p) {
    if (p == in_port || port_blocked(p)) continue;
    // Bond members: only the designated (first unblocked) member floods,
    // and never back into the ingress bond.
    auto bond_it = member_to_bond_.find(p);
    if (bond_it != member_to_bond_.end()) {
      if (bond_it->second == in_logical) continue;
      const auto& members = bond_members(bond_it->second);
      PortId designated = kInvalidPort;
      for (PortId member : members) {
        if (!port_blocked(member)) {
          designated = member;
          break;
        }
      }
      if (p != designated) continue;
    }
    send(p, packet);
  }
}

}  // namespace livesec::sw
