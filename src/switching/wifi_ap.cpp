#include "switching/wifi_ap.h"

#include "sim/simulator.h"

namespace livesec::sw {

WifiAccessPoint::WifiAccessPoint(sim::Simulator& sim, std::string name, DatapathId dpid)
    : WifiAccessPoint(sim, std::move(name), dpid, WifiConfig{}) {}

WifiAccessPoint::WifiAccessPoint(sim::Simulator& sim, std::string name, DatapathId dpid,
                                 WifiConfig config)
    : OpenFlowSwitch(sim, std::move(name), dpid, config.switch_config), config_(config) {}

sim::Port& WifiAccessPoint::add_station_port() {
  sim::Port& p = add_port(PortRole::kNetworkPeriphery);
  station_ports_.insert(p.id());
  return p;
}

sim::Port& WifiAccessPoint::add_uplink_port() { return add_port(PortRole::kLegacySwitching); }

bool WifiAccessPoint::is_station_port(PortId port) const { return station_ports_.contains(port); }

void WifiAccessPoint::handle_packet(PortId in_port, pkt::PacketPtr packet) {
  if (!is_station_port(in_port)) {
    OpenFlowSwitch::handle_packet(in_port, std::move(packet));
    return;
  }
  // Station frames first contend for the shared radio: serialize at the
  // radio rate behind whatever was already in the air when the frame
  // arrived, then pay the pipeline cost. The link delivered the frame one
  // ingress delay after its arrival, so both are measured from there.
  const SimTime arrived = simulator().now() - ingress_delay();
  const SimTime airtime = static_cast<SimTime>(static_cast<double>(packet->wire_size()) * 8.0 /
                                               config_.radio_bps * kSecond);
  const SimTime start = radio_busy_until_ > arrived ? radio_busy_until_ : arrived;
  radio_busy_until_ = start + airtime;
  simulator().schedule_at(radio_busy_until_ + ingress_delay(),
                          [this, in_port, packet = std::move(packet)]() mutable {
                            process(in_port, std::move(packet));
                          });
}

}  // namespace livesec::sw
