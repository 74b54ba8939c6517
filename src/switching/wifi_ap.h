// OF Wi-Fi access point (Pantou on OpenWrt in the paper's deployment).
#pragma once

#include <unordered_set>

#include "switching/openflow_switch.h"

namespace livesec::sw {

/// An OpenFlow-enabled wireless AP: an OpenFlowSwitch whose station-facing
/// ports share one radio. Paper §V.B.1 measured ~43 Mbps UDP for a single
/// Pantou AP, which is the default radio budget here.
///
/// The shared radio is modeled as an additional serialization stage: every
/// frame to or from any station occupies the radio for bytes*8/radio_rate,
/// so aggregate station throughput is capped at the radio rate regardless of
/// how many stations associate.
class WifiAccessPoint : public OpenFlowSwitch {
 public:
  struct WifiConfig {
    double radio_bps = 43e6;  // Pantou UDP measurement from the paper
    Config switch_config = {
        // OpenWrt-class CPU: noticeably slower pipeline than a Xeon OvS.
        .processing_delay = 30 * kMicrosecond,
        .buffer_capacity = 256,
    };
  };

  WifiAccessPoint(sim::Simulator& sim, std::string name, DatapathId dpid);
  WifiAccessPoint(sim::Simulator& sim, std::string name, DatapathId dpid, WifiConfig config);

  /// Adds a wireless station port (shares the radio).
  sim::Port& add_station_port();
  /// Adds the wired uplink port toward the legacy fabric.
  sim::Port& add_uplink_port();

  void handle_packet(PortId in_port, pkt::PacketPtr packet) override;

  double radio_bps() const { return config_.radio_bps; }

 private:
  bool is_station_port(PortId port) const;

  WifiConfig config_;
  SimTime radio_busy_until_ = 0;
  // Hash set: is_station_port sits on the per-frame radio path.
  std::unordered_set<PortId> station_ports_;
};

}  // namespace livesec::sw
