// LLDP uplink discovery (paper §III.C.1): the probes the controller sends
// out of every AS switch port, what a probe that crossed the legacy fabric
// says, and the Legacy-Switching uplink port learned for each switch. The
// controller owns what follows from a discovery: replicating it, raising
// the link event and retrying setups that waited for an uplink.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/types.h"
#include "openflow/messages.h"
#include "packet/packet.h"
#include "topology/link_table.h"

namespace livesec::ctrl {

class Discovery {
 public:
  /// Records `port` as `dpid`'s uplink. Returns false when it already was,
  /// so that nothing depending on the uplink needs to change.
  bool set_uplink(DatapathId dpid, PortId port);
  std::optional<PortId> uplink(DatapathId dpid) const {
    auto it = uplinks_.find(dpid);
    if (it == uplinks_.end()) return std::nullopt;
    return it->second;
  }
  void forget(DatapathId dpid) { uplinks_.erase(dpid); }
  /// Every known uplink, in dpid order (snapshot export is deterministic).
  const std::map<DatapathId, PortId>& uplinks() const { return uplinks_; }

  /// One probe per port of switch `dpid`, each sent out of its own port.
  static std::vector<of::PacketOut> probes(DatapathId dpid, std::uint32_t num_ports);
  /// Reads a probe switch `dpid` punted from `in_port`. The probe crossed
  /// the legacy fabric, so `in_port` is this switch's uplink and the port
  /// it was sent from is the peer's: the link {peer, peer port, dpid,
  /// in_port}. nullopt for a frame that is no probe, or one this switch
  /// sent itself.
  static std::optional<topo::AsLink> parse_probe(DatapathId dpid, PortId in_port,
                                                 const pkt::Packet& packet);

 private:
  std::map<DatapathId, PortId> uplinks_;
};

}  // namespace livesec::ctrl
