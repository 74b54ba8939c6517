#include "controller/discovery.h"

#include "topology/lldp.h"

namespace livesec::ctrl {

bool Discovery::set_uplink(DatapathId dpid, PortId port) {
  auto [it, inserted] = uplinks_.try_emplace(dpid, port);
  if (!inserted && it->second == port) return false;
  it->second = port;
  return true;
}

std::vector<of::PacketOut> Discovery::probes(DatapathId dpid, std::uint32_t num_ports) {
  std::vector<of::PacketOut> out(num_ports);
  for (PortId port = 0; port < num_ports; ++port) {
    topo::LldpInfo info;
    info.chassis_id = dpid;
    info.port_id = port;
    out[port].actions = of::output_to(port);
    out[port].packet = pkt::finalize(info.to_packet());
  }
  return out;
}

std::optional<topo::AsLink> Discovery::parse_probe(DatapathId dpid, PortId in_port,
                                                   const pkt::Packet& packet) {
  const auto info = topo::LldpInfo::from_packet(packet);
  if (!info || info->chassis_id == dpid) return std::nullopt;
  return topo::AsLink{info->chassis_id, info->port_id, dpid, in_port};
}

}  // namespace livesec::ctrl
