// The Access-Switching layer datapath: an OpenFlow-enabled switch (OvS-like).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>

#include "openflow/channel.h"
#include "openflow/flow_table.h"
#include "openflow/messages.h"
#include "sim/node.h"

namespace livesec::sw {

/// Role of each switch port. The paper distinguishes Network-Periphery
/// interfaces (hosts, service elements, wireless users) from the single
/// Legacy-Switching interface that attaches the AS switch to the legacy
/// fabric (§III.C: "AS switches are responsible for providing legitimate
/// interfaces for Network-Periphery layer").
enum class PortRole {
  kNetworkPeriphery,  // host / SE facing: table miss => PacketIn
  kLegacySwitching,   // legacy fabric facing: table miss => silent drop
};

/// An OpenFlow 1.0-style switch: flow table + controller channel + packet
/// buffering. This models OvS release 1.1.0 as deployed in the paper's
/// testbed and the Pantou AP datapath.
class OpenFlowSwitch : public sim::Node, public of::SwitchEndpoint {
 public:
  struct Config {
    /// Per-packet pipeline cost (flow table lookup + forwarding). The
    /// paper's OvS 1.1.0 userspace datapath on Xeon 5500 costs tens of
    /// microseconds per packet; this is pure pipeline latency (packets
    /// overlap), not a rate limit. It is the node's ingress delay: the link
    /// applies it between arrival and `handle_packet`.
    SimTime processing_delay = 25 * kMicrosecond;
    /// Max packets parked awaiting a controller decision.
    std::size_t buffer_capacity = 1024;
  };

  OpenFlowSwitch(sim::Simulator& sim, std::string name, DatapathId dpid);
  OpenFlowSwitch(sim::Simulator& sim, std::string name, DatapathId dpid, Config config);

  // --- wiring -------------------------------------------------------------
  /// Adds a port with the given role; returns the port.
  sim::Port& add_port(PortRole role);
  PortRole port_role(PortId port) const;

  /// Attaches the controller channel and performs the features handshake.
  void connect_controller(of::SecureChannel& channel);

  // --- sim::Node ----------------------------------------------------------
  void handle_packet(PortId in_port, pkt::PacketPtr packet) override;

  // --- of::SwitchEndpoint ---------------------------------------------------
  DatapathId datapath_id() const override { return dpid_; }
  void handle_controller_message(const of::Message& message) override;

  // --- introspection --------------------------------------------------------
  of::FlowTable& flow_table() { return table_; }
  const of::FlowTable& flow_table() const { return table_; }
  std::uint64_t packet_ins_sent() const { return packet_ins_; }
  std::uint64_t miss_drops() const { return miss_drops_; }
  std::uint64_t packets_forwarded() const { return packets_forwarded_; }

 protected:
  /// Runs `packet` through the flow table now.
  void process(PortId in_port, pkt::PacketPtr packet);

 private:
  /// Applies one flow-mod's table mutation (no buffered-packet release).
  void apply_flow_mod(const of::FlowMod& fm);
  /// Releases a parked packet through the current table, if `buffer_id` set.
  void release_buffered(std::uint32_t buffer_id);
  void execute_actions(const of::ActionList& actions, PortId in_port, pkt::PacketPtr packet);
  void punt_to_controller(PortId in_port, pkt::PacketPtr packet);
  pkt::PacketPtr take_buffered(std::uint32_t buffer_id);

  DatapathId dpid_;
  Config config_;
  of::FlowTable table_;
  of::SecureChannel* channel_ = nullptr;
  std::unordered_map<PortId, PortRole> roles_;

  struct Buffered {
    std::uint32_t id;
    PortId in_port;
    pkt::PacketPtr packet;
  };
  std::deque<Buffered> buffers_;
  std::uint32_t next_buffer_id_ = 1;

  std::uint64_t packet_ins_ = 0;
  std::uint64_t miss_drops_ = 0;
  std::uint64_t packets_forwarded_ = 0;
};

}  // namespace livesec::sw
