// Whole-deployment assembly: builds LiveSec networks like the paper's FIT
// building testbed (Figure 6) out of legacy switches, AS switches, OF Wi-Fi
// APs, hosts, service elements and one controller.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "controller/controller.h"
#include "ha/cluster.h"
#include "net/host.h"
#include "services/service_element.h"
#include "sim/simulator.h"
#include "switching/ethernet_switch.h"
#include "switching/openflow_switch.h"
#include "switching/spanning_tree.h"
#include "switching/wifi_ap.h"

namespace livesec::net {

/// Owns a complete simulated LiveSec deployment. Components are created
/// through add_* methods, wired automatically (links, secure channels, LS
/// uplink registration, SE certification), then driven via start()/run_for().
class Network {
 public:
  Network();
  explicit Network(ctrl::Controller::Config controller_config);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  sim::Simulator& sim() { return sim_; }
  ctrl::Controller& controller() { return controller_; }

  /// The deployment-wide fuzzy-hash verdict store (DESIGN.md §11): one
  /// instance shared by the controller, every standby, and every SE added
  /// with `use_verdict_cache` left true.
  const std::shared_ptr<svc::VerdictCache>& verdict_cache() const { return verdict_cache_; }

  /// Runs the controller as an active-standby cluster: `standbys` extra
  /// Controller instances are created (same Config as the primary) and every
  /// subsequently added AS switch / AP is registered with the cluster, which
  /// replicates state to the standbys and handles failover. Must be called
  /// before any AS switch or AP is added. The primary controller
  /// (controller()) is the initial active.
  void enable_ha(std::size_t standbys, ha::HaCluster::Config config = {},
                 ha::FaultPlan plan = {});
  /// Null unless enable_ha was called.
  ha::HaCluster* ha_cluster() { return ha_.get(); }
  /// The controller currently holding mastership (== controller() until a
  /// failover promotes a standby).
  ctrl::Controller& active_controller() {
    return ha_ ? ha_->active_controller() : controller_;
  }

  /// Routes every secure-channel message through the byte-level OpenFlow
  /// wire codec (as a real TCP/TLS control connection would). Applies to
  /// channels created before and after the call.
  void enable_wire_encoding();

  // --- Legacy-Switching layer -------------------------------------------------
  sw::EthernetSwitch& add_legacy_switch(const std::string& name);
  /// Interconnects two legacy switches (default 10 GbE backbone links).
  void connect_legacy(sw::EthernetSwitch& a, sw::EthernetSwitch& b, double bandwidth_bps = 10e9);

  /// Interconnects two legacy switches with `n_links` parallel links
  /// aggregated into a bond on each side — the ECMP building block of paper
  /// §III.B. Flows hash across members; aggregate capacity = n * bandwidth.
  void connect_legacy_bonded(sw::EthernetSwitch& a, sw::EthernetSwitch& b, int n_links,
                             double bandwidth_bps = 10e9);
  /// Computes the spanning tree over legacy links and blocks redundant
  /// ports (must be called when the legacy graph has loops).
  void finalize_legacy();

  // --- Access-Switching layer --------------------------------------------------
  /// Adds an OvS-style AS switch uplinked to `legacy` (default GbE, matching
  /// the paper's Xeon + 4x GbE NIC build).
  sw::OpenFlowSwitch& add_as_switch(const std::string& name, sw::EthernetSwitch& legacy,
                                    double uplink_bps = 1e9);
  /// Adds an OF Wi-Fi AP uplinked to `legacy` (Pantou-class).
  sw::WifiAccessPoint& add_wifi_ap(const std::string& name, sw::EthernetSwitch& legacy,
                                   double uplink_bps = 100e6);

  // --- Network-Periphery layer ---------------------------------------------------
  /// Wired user behind an AS switch (paper: 100 Mbps per user).
  /// `propagation` overrides the access-link propagation delay — use a large
  /// value to model a WAN-distant host (e.g. an Internet server).
  Host& add_host(const std::string& name, sw::OpenFlowSwitch& as_switch,
                 double access_bps = 100e6, SimTime propagation = 5 * kMicrosecond);
  /// Wireless user associated with an AP (rate governed by the shared radio).
  Host& add_wifi_host(const std::string& name, sw::WifiAccessPoint& ap);
  /// Host attached directly to the legacy fabric — the no-LiveSec baseline
  /// of the latency experiment (§V.B.3).
  Host& add_legacy_host(const std::string& name, sw::EthernetSwitch& legacy,
                        double access_bps = 100e6, SimTime propagation = 5 * kMicrosecond);
  /// VM-based service element on an AS switch; certified automatically.
  /// `config` fields left at defaults are auto-filled (id, MAC, IP, token).
  svc::ServiceElement& add_service_element(svc::ServiceType type, sw::OpenFlowSwitch& as_switch,
                                           svc::ServiceElement::Config config = {});

  /// Disconnects / reconnects a host's access link (join/leave scenarios).
  /// Leaving also stops the host's ARP refreshes so the controller ages it out.
  void detach_host(Host& host);

  /// Live-migrates a service element VM to another AS switch: the old
  /// virtual link is destroyed, a new one wired; the SE's next heartbeat
  /// tells the controller about the new location (paper §III.D.1).
  void migrate_service_element(svc::ServiceElement& se, sw::OpenFlowSwitch& new_switch);

  /// Moves a host (e.g. a wireless user roaming) to another AS switch; the
  /// host announces from the new attachment point.
  void move_host(Host& host, sw::OpenFlowSwitch& new_switch, double access_bps = 100e6);

  // --- lifecycle ---------------------------------------------------------------
  /// Starts everything: SE daemons, host announcements (repeated at half
  /// the controller's host timeout), controller housekeeping; then runs the
  /// simulator for `settle` to let discovery, registration and ARP learning
  /// finish.
  void start(SimTime settle = 200 * kMillisecond);

  /// Advances the simulation by `duration`.
  void run_for(SimTime duration);

  // --- component access -----------------------------------------------------------
  const std::vector<std::unique_ptr<Host>>& hosts() const { return hosts_; }
  const std::vector<std::unique_ptr<svc::ServiceElement>>& service_elements() const {
    return service_elements_;
  }
  const std::vector<std::unique_ptr<sw::OpenFlowSwitch>>& as_switches() const {
    return as_switches_;
  }
  const std::vector<std::unique_ptr<sw::WifiAccessPoint>>& wifi_aps() const { return wifi_aps_; }
  const std::vector<std::unique_ptr<sw::EthernetSwitch>>& legacy_switches() const {
    return legacy_;
  }

  /// Next automatically allocated addresses (tests may pre-compute).
  MacAddress next_mac() const;
  Ipv4Address next_ip() const;

 private:
  MacAddress allocate_mac();
  Ipv4Address allocate_ip();
  void wire(sim::Port& a, sim::Port& b, double bandwidth_bps,
            SimTime propagation = 5 * kMicrosecond);

  sim::Simulator sim_;
  ctrl::Controller::Config controller_config_;
  std::shared_ptr<svc::VerdictCache> verdict_cache_;
  ctrl::Controller controller_;
  std::vector<std::unique_ptr<ctrl::Controller>> standby_controllers_;
  std::unique_ptr<ha::HaCluster> ha_;

  std::vector<std::unique_ptr<sw::EthernetSwitch>> legacy_;
  std::vector<std::unique_ptr<sw::OpenFlowSwitch>> as_switches_;
  std::vector<std::unique_ptr<sw::WifiAccessPoint>> wifi_aps_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<svc::ServiceElement>> service_elements_;
  std::vector<std::unique_ptr<of::SecureChannel>> channels_;
  std::vector<std::unique_ptr<sim::Link>> links_;

  sw::SpanningTree legacy_graph_;
  bool wire_encoding_ = false;
  DatapathId next_dpid_ = 1;
  std::uint64_t next_se_id_ = 1;
  std::uint64_t next_node_index_ = 1;
  bool started_ = false;
};

}  // namespace livesec::net
