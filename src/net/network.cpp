#include "net/network.h"

#include <cassert>

namespace livesec::net {

Network::Network() : Network(ctrl::Controller::Config{}) {}

Network::Network(ctrl::Controller::Config controller_config)
    : controller_config_(controller_config),
      verdict_cache_(std::make_shared<svc::VerdictCache>()),
      controller_(sim_, controller_config) {
  controller_.set_verdict_cache(verdict_cache_);
}

void Network::enable_wire_encoding() {
  wire_encoding_ = true;
  for (auto& channel : channels_) channel->set_wire_encoding(true);
  if (ha_) ha_->enable_wire_encoding();
}

void Network::enable_ha(std::size_t standbys, ha::HaCluster::Config config, ha::FaultPlan plan) {
  assert(!ha_ && "enable_ha called twice");
  assert(channels_.empty() && "enable_ha must precede AS switch / AP creation");
  ha_ = std::make_unique<ha::HaCluster>(sim_, config, plan);
  ha_->add_node(controller_);
  for (std::size_t i = 0; i < standbys; ++i) {
    standby_controllers_.push_back(
        std::make_unique<ctrl::Controller>(sim_, controller_config_));
    // Standbys share the deployment's verdict store: replicated epoch
    // advances are raise-to-at-least, so shared application is idempotent.
    standby_controllers_.back()->set_verdict_cache(verdict_cache_);
    ha_->add_node(*standby_controllers_.back());
  }
}

MacAddress Network::allocate_mac() {
  // Locally administered unicast range 02:00:00:xx:xx:xx.
  return MacAddress::from_uint64(0x020000000000ull + next_node_index_++);
}

MacAddress Network::next_mac() const {
  return MacAddress::from_uint64(0x020000000000ull + next_node_index_);
}

Ipv4Address Network::allocate_ip() {
  const std::uint64_t n = next_node_index_;  // already advanced by allocate_mac
  return Ipv4Address(static_cast<std::uint32_t>((10u << 24) | (n & 0xFFFFFF)));
}

Ipv4Address Network::next_ip() const {
  return Ipv4Address(static_cast<std::uint32_t>((10u << 24) | (next_node_index_ & 0xFFFFFF)));
}

void Network::wire(sim::Port& a, sim::Port& b, double bandwidth_bps, SimTime propagation) {
  sim::Link::Config config;
  config.bandwidth_bps = bandwidth_bps;
  config.propagation_delay = propagation;
  links_.push_back(sim::connect(sim_, a, b, config));
}

sw::EthernetSwitch& Network::add_legacy_switch(const std::string& name) {
  legacy_.push_back(std::make_unique<sw::EthernetSwitch>(sim_, name));
  legacy_graph_.add_node(static_cast<std::uint32_t>(legacy_.size() - 1));
  return *legacy_.back();
}

void Network::connect_legacy(sw::EthernetSwitch& a, sw::EthernetSwitch& b,
                             double bandwidth_bps) {
  sim::Port& pa = a.add_port();
  sim::Port& pb = b.add_port();
  wire(pa, pb, bandwidth_bps);

  auto index_of = [this](const sw::EthernetSwitch& s) -> std::uint32_t {
    for (std::size_t i = 0; i < legacy_.size(); ++i) {
      if (legacy_[i].get() == &s) return static_cast<std::uint32_t>(i);
    }
    assert(false && "legacy switch not owned by this network");
    return 0;
  };
  sw::SpanningTree::Edge edge;
  edge.a = {index_of(a), pa.id()};
  edge.b = {index_of(b), pb.id()};
  legacy_graph_.add_edge(edge);
}

void Network::connect_legacy_bonded(sw::EthernetSwitch& a, sw::EthernetSwitch& b, int n_links,
                                    double bandwidth_bps) {
  std::vector<PortId> a_members;
  std::vector<PortId> b_members;
  for (int i = 0; i < n_links; ++i) {
    sim::Port& pa = a.add_port();
    sim::Port& pb = b.add_port();
    wire(pa, pb, bandwidth_bps);
    a_members.push_back(pa.id());
    b_members.push_back(pb.id());
  }
  a.create_bond(a_members);
  b.create_bond(b_members);

  auto index_of = [this](const sw::EthernetSwitch& s) -> std::uint32_t {
    for (std::size_t i = 0; i < legacy_.size(); ++i) {
      if (legacy_[i].get() == &s) return static_cast<std::uint32_t>(i);
    }
    assert(false && "legacy switch not owned by this network");
    return 0;
  };
  // One logical edge in the spanning-tree graph (the bond is one link).
  sw::SpanningTree::Edge edge;
  edge.a = {index_of(a), a_members.front()};
  edge.b = {index_of(b), b_members.front()};
  legacy_graph_.add_edge(edge);
}

void Network::finalize_legacy() {
  for (const auto& edge : legacy_graph_.compute_blocked()) {
    // Blocking one end of a bonded edge must block every member, or the
    // remaining members would still form the loop.
    auto block_all = [](sw::EthernetSwitch& sw, PortId port) {
      const PortId bond = sw.bond_of_member(port);
      if (bond >= sw::EthernetSwitch::kBondBase) {
        for (PortId member : sw.bond_members(bond)) sw.set_port_blocked(member, true);
      } else {
        sw.set_port_blocked(port, true);
      }
    };
    block_all(*legacy_[edge.a.node], edge.a.port);
    block_all(*legacy_[edge.b.node], edge.b.port);
  }
}

sw::OpenFlowSwitch& Network::add_as_switch(const std::string& name, sw::EthernetSwitch& legacy,
                                           double uplink_bps) {
  const DatapathId dpid = next_dpid_++;
  as_switches_.push_back(std::make_unique<sw::OpenFlowSwitch>(sim_, name, dpid));
  sw::OpenFlowSwitch& as_switch = *as_switches_.back();

  sim::Port& uplink = as_switch.add_port(sw::PortRole::kLegacySwitching);
  wire(uplink, legacy.add_port(), uplink_bps);
  controller_.register_ls_port(dpid, uplink.id());

  channels_.push_back(std::make_unique<of::SecureChannel>(sim_, as_switch, controller_));
  channels_.back()->set_wire_encoding(wire_encoding_);
  controller_.attach_channel(dpid, *channels_.back(), topo::NodeKind::kAsSwitch);
  if (ha_) ha_->manage_switch(as_switch, *channels_.back(), topo::NodeKind::kAsSwitch);
  as_switch.connect_controller(*channels_.back());
  return as_switch;
}

sw::WifiAccessPoint& Network::add_wifi_ap(const std::string& name, sw::EthernetSwitch& legacy,
                                          double uplink_bps) {
  const DatapathId dpid = next_dpid_++;
  wifi_aps_.push_back(std::make_unique<sw::WifiAccessPoint>(sim_, name, dpid));
  sw::WifiAccessPoint& ap = *wifi_aps_.back();

  sim::Port& uplink = ap.add_uplink_port();
  wire(uplink, legacy.add_port(), uplink_bps);
  controller_.register_ls_port(dpid, uplink.id());

  channels_.push_back(std::make_unique<of::SecureChannel>(sim_, ap, controller_));
  channels_.back()->set_wire_encoding(wire_encoding_);
  controller_.attach_channel(dpid, *channels_.back(), topo::NodeKind::kWifiAp);
  if (ha_) ha_->manage_switch(ap, *channels_.back(), topo::NodeKind::kWifiAp);
  ap.connect_controller(*channels_.back());
  return ap;
}

Host& Network::add_host(const std::string& name, sw::OpenFlowSwitch& as_switch,
                        double access_bps, SimTime propagation) {
  const MacAddress mac = allocate_mac();
  const Ipv4Address ip = allocate_ip();
  hosts_.push_back(std::make_unique<Host>(sim_, name, mac, ip));
  Host& host = *hosts_.back();
  wire(host.port(0), as_switch.add_port(sw::PortRole::kNetworkPeriphery), access_bps,
       propagation);
  return host;
}

Host& Network::add_wifi_host(const std::string& name, sw::WifiAccessPoint& ap) {
  const MacAddress mac = allocate_mac();
  const Ipv4Address ip = allocate_ip();
  hosts_.push_back(std::make_unique<Host>(sim_, name, mac, ip));
  Host& host = *hosts_.back();
  // The station's own radio link; aggregate airtime is enforced by the AP.
  wire(host.port(0), ap.add_station_port(), ap.radio_bps());
  return host;
}

Host& Network::add_legacy_host(const std::string& name, sw::EthernetSwitch& legacy,
                               double access_bps, SimTime propagation) {
  const MacAddress mac = allocate_mac();
  const Ipv4Address ip = allocate_ip();
  hosts_.push_back(std::make_unique<Host>(sim_, name, mac, ip));
  Host& host = *hosts_.back();
  wire(host.port(0), legacy.add_port(), access_bps, propagation);
  return host;
}

svc::ServiceElement& Network::add_service_element(svc::ServiceType type,
                                                  sw::OpenFlowSwitch& as_switch,
                                                  svc::ServiceElement::Config config) {
  if (config.se_id == 0) config.se_id = next_se_id_++;
  if (config.mac.is_zero()) config.mac = allocate_mac();
  if (config.ip.is_zero()) config.ip = allocate_ip();
  config.service = type;
  if (config.cert_token == 0) {
    config.cert_token = controller_.certification().issue(config.se_id);
  }
  if (config.use_verdict_cache && !config.verdict_cache) {
    config.verdict_cache = verdict_cache_;
  }
  service_elements_.push_back(std::make_unique<svc::ServiceElement>(
      sim_, "se" + std::to_string(config.se_id), config));
  svc::ServiceElement& se = *service_elements_.back();
  // Virtual NIC: virtio-class gigabit into the hosting OvS.
  wire(se.port(0), as_switch.add_port(sw::PortRole::kNetworkPeriphery), 1e9);
  return se;
}

void Network::detach_host(Host& host) {
  // Destroy the link attached to the host's NIC.
  for (auto it = links_.begin(); it != links_.end(); ++it) {
    sim::Link* link = it->get();
    if (host.port(0).link() == link) {
      links_.erase(it);
      return;
    }
  }
}

void Network::migrate_service_element(svc::ServiceElement& se, sw::OpenFlowSwitch& new_switch) {
  for (auto it = links_.begin(); it != links_.end(); ++it) {
    if (se.port(0).link() == it->get()) {
      links_.erase(it);
      break;
    }
  }
  wire(se.port(0), new_switch.add_port(sw::PortRole::kNetworkPeriphery), 1e9);
}

void Network::move_host(Host& host, sw::OpenFlowSwitch& new_switch, double access_bps) {
  detach_host(host);
  wire(host.port(0), new_switch.add_port(sw::PortRole::kNetworkPeriphery), access_bps);
  host.announce();
}

void Network::start(SimTime settle) {
  assert(!started_ && "start() must be called once");
  started_ = true;
  controller_.start_housekeeping();
  if (ha_) ha_->start();
  for (auto& se : service_elements_) se->start();
  // Stagger announcements a little so ARP packet-ins don't all share one
  // timestamp (keeps event ordering realistic; determinism is unaffected).
  // After the first one a host revalidates at half the controller's host
  // timeout, so a host that is up stays in the routing table however long
  // it only receives; a scenario models a host leaving with
  // Host::disable_periodic_announce().
  const SimTime refresh = controller_config_.host_timeout / 2;
  SimTime offset = 0;
  for (auto& host : hosts_) {
    sim_.schedule(offset, [h = host.get(), refresh]() {
      if (refresh > 0) {
        h->enable_periodic_announce(refresh);
      } else {
        h->announce();
      }
    });
    offset += 100 * kMicrosecond;
  }
  run_for(settle);
}

void Network::run_for(SimTime duration) {
  sim_.run_until(sim_.now() + duration);
}

}  // namespace livesec::net
