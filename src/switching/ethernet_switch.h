// Legacy-Switching layer: a classic learning Ethernet switch.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/mac_address.h"
#include "common/types.h"
#include "sim/node.h"

namespace livesec::sw {

/// A traditional L2 switch of the Legacy-Switching layer (paper §III.B).
///
/// Behaviour: learn source MAC -> ingress port; forward to the learned port
/// for known unicast destinations; flood otherwise (and for broadcast /
/// multicast). Ports can be administratively blocked by the spanning-tree
/// computation to keep redundant topologies loop-free; blocked ports drop
/// all traffic except nothing-at-all (data and floods alike), matching STP's
/// blocking state.
///
/// Link aggregation (802.3ad-style, the paper's §III.B "Equal Cost Multiple
/// Path" building block): several physical ports can be bonded into one
/// logical port. MAC learning records the bond; unicast forwarding spreads
/// flows across members by 9-tuple hash; floods use one designated member.
class EthernetSwitch : public sim::Node {
 public:
  /// Logical port id of a bond (disjoint from physical PortIds).
  static constexpr PortId kBondBase = 0x80000000u;
  struct Config {
    /// Learned entries are forgotten after this idle time (0 = never).
    SimTime mac_aging = 300 * kSecond;
    /// Per-packet forwarding latency (store-and-forward pipeline cost). It
    /// is the node's ingress delay: the link applies it between arrival and
    /// `handle_packet`, so learning and forwarding both happen after it.
    SimTime forwarding_delay = 2 * kMicrosecond;
  };

  EthernetSwitch(sim::Simulator& sim, std::string name);
  EthernetSwitch(sim::Simulator& sim, std::string name, Config config);

  void handle_packet(PortId in_port, pkt::PacketPtr packet) override;

  /// Marks a port blocked/unblocked (driven by SpanningTree).
  void set_port_blocked(PortId port, bool blocked);
  bool port_blocked(PortId port) const;

  /// Aggregates existing physical ports into one logical port; returns its
  /// logical id (>= kBondBase). Members must not already be in a bond.
  PortId create_bond(const std::vector<PortId>& members);
  /// Members of a bond (empty for non-bond ids).
  const std::vector<PortId>& bond_members(PortId bond) const;
  /// Per-member forwarded-packet counts (ECMP balance diagnostics).
  std::uint64_t member_tx_count(PortId physical_port) const;
  /// The bond a physical port belongs to, or the port itself if unbonded.
  PortId bond_of_member(PortId physical) const { return logical_port(physical); }

  /// Current MAC table size (for tests and monitoring).
  std::size_t mac_table_size() const { return mac_table_.size(); }

  /// Returns the learned port for `mac`, or kInvalidPort.
  PortId learned_port(const MacAddress& mac) const;

  std::uint64_t flooded_packets() const { return flooded_; }
  std::uint64_t forwarded_packets() const { return forwarded_; }

 private:
  struct MacEntry {
    PortId port;
    SimTime last_seen;
  };

  void forward(PortId out, pkt::PacketPtr packet);
  void flood(PortId in_port, const pkt::PacketPtr& packet);
  /// Maps a physical ingress port to its learning identity (bond or self).
  PortId logical_port(PortId physical) const;
  /// Resolves a (possibly logical) port to the physical egress for a packet.
  PortId resolve_egress(PortId port, const pkt::Packet& packet) const;

  Config config_;
  std::unordered_map<MacAddress, MacEntry> mac_table_;
  std::unordered_map<PortId, bool> blocked_;
  std::vector<std::vector<PortId>> bonds_;
  std::unordered_map<PortId, PortId> member_to_bond_;
  std::unordered_map<PortId, std::uint64_t> member_tx_;
  std::uint64_t flooded_ = 0;
  std::uint64_t forwarded_ = 0;
};

}  // namespace livesec::sw
