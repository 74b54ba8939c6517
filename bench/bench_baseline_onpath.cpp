// Baseline comparison — traditional on-path middlebox vs LiveSec off-path
// service elements (paper §I: "Single point of performance bottleneck ...
// the performance can be linearly raised by increasing the number of
// service elements" and §II's pswitch/PLayer discussion).
//
// Both deployments inspect the same UDP workload with appliances of the
// SAME unit capacity (~500 Mbps). The traditional build puts the appliance
// in series on the gateway path: adding more boxes cannot help without
// re-zoning the physical network, so throughput stays flat. LiveSec steers
// flows across n off-path SEs with min-load balancing: throughput rises
// linearly with n.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "net/middlebox.h"
#include "net/network.h"
#include "net/traffic.h"

using namespace livesec;

namespace {

/// Traditional architecture: clients -> legacy switch -> middlebox ->
/// gateway-side switch -> sinks. Every flow serializes through the one box
/// (extra boxes would sit idle without manual VLAN re-zoning — the paper's
/// point — so we only measure one).
double run_traditional(int client_pairs, double offered_per_client_bps) {
  sim::Simulator sim;
  sw::EthernetSwitch inside(sim, "inside");
  sw::EthernetSwitch outside(sim, "outside");
  net::InlineMiddlebox middlebox(sim, "fw");
  std::vector<std::unique_ptr<net::Host>> clients;
  std::vector<std::unique_ptr<net::Host>> sinks;
  // Declared after every node it wires: a Link detaches its ports when it
  // is destroyed, so it must go before them.
  std::vector<std::unique_ptr<sim::Link>> links;
  links.push_back(sim::connect(sim, middlebox.inside(), inside.add_port(),
                               {.bandwidth_bps = 10e9}));
  links.push_back(sim::connect(sim, middlebox.outside(), outside.add_port(),
                               {.bandwidth_bps = 10e9}));

  for (int i = 0; i < client_pairs; ++i) {
    clients.push_back(std::make_unique<net::Host>(
        sim, "c" + std::to_string(i), MacAddress::from_uint64(0x100 + static_cast<unsigned>(i)),
        Ipv4Address(10, 8, 0, static_cast<std::uint8_t>(i + 1))));
    sinks.push_back(std::make_unique<net::Host>(
        sim, "s" + std::to_string(i), MacAddress::from_uint64(0x200 + static_cast<unsigned>(i)),
        Ipv4Address(10, 9, 0, static_cast<std::uint8_t>(i + 1))));
    links.push_back(sim::connect(sim, clients.back()->port(0), inside.add_port(),
                                 {.bandwidth_bps = 10e9}));
    links.push_back(sim::connect(sim, sinks.back()->port(0), outside.add_port(),
                                 {.bandwidth_bps = 10e9}));
  }
  for (auto& host : clients) host->announce();
  for (auto& host : sinks) host->announce();
  sim.run_until(sim.now() + 100 * kMillisecond);

  const SimTime duration = 2 * kSecond;
  std::vector<std::unique_ptr<net::UdpCbrApp>> apps;
  for (int i = 0; i < client_pairs; ++i) {
    for (int f = 0; f < 4; ++f) {
      apps.push_back(std::make_unique<net::UdpCbrApp>(
          *clients[static_cast<std::size_t>(i)],
          net::UdpCbrApp::Config{.dst = sinks[static_cast<std::size_t>(i)]->ip(),
                                 .dst_port = static_cast<std::uint16_t>(9000 + f),
                                 .src_port = static_cast<std::uint16_t>(40000 + f),
                                 .rate_bps = offered_per_client_bps / 4,
                                 .packet_payload = 1400,
                                 .duration = duration}));
    }
  }
  const SimTime start = sim.now();
  for (auto& app : apps) app->start();
  sim.run_until(start + duration);
  std::uint64_t delivered = 0;
  for (auto& sink : sinks) delivered += sink->rx_ip_bytes();
  return static_cast<double>(delivered) * 8.0 / to_seconds(sim.now() - start);
}

/// LiveSec architecture: same unit appliances as off-path SEs on separate
/// hosts, min-load flow-grain balancing.
double run_livesec(int se_count, int client_pairs, double offered_per_client_bps) {
  net::Network network;
  auto& backbone = network.add_legacy_switch("backbone");
  for (int i = 0; i < se_count; ++i) {
    auto& se_sw = network.add_as_switch("se-sw" + std::to_string(i), backbone, 10e9);
    network.add_service_element(svc::ServiceType::kIntrusionDetection, se_sw);
  }
  ctrl::Policy policy;
  policy.nw_proto = static_cast<std::uint8_t>(pkt::IpProto::kUdp);
  policy.action = ctrl::PolicyAction::kRedirect;
  policy.service_chain = {svc::ServiceType::kIntrusionDetection};
  network.controller().policies().add(policy);

  auto& client_sw = network.add_as_switch("clients", backbone, 10e9);
  auto& sink_sw = network.add_as_switch("sinks", backbone, 10e9);
  std::vector<net::Host*> clients, sinks;
  for (int i = 0; i < client_pairs; ++i) {
    clients.push_back(&network.add_host("c" + std::to_string(i), client_sw, 10e9));
    sinks.push_back(&network.add_host("s" + std::to_string(i), sink_sw, 10e9));
  }
  network.start();

  const SimTime duration = 2 * kSecond;
  std::vector<std::unique_ptr<net::UdpCbrApp>> apps;
  for (int i = 0; i < client_pairs; ++i) {
    for (int f = 0; f < 4; ++f) {
      apps.push_back(std::make_unique<net::UdpCbrApp>(
          *clients[static_cast<std::size_t>(i)],
          net::UdpCbrApp::Config{.dst = sinks[static_cast<std::size_t>(i)]->ip(),
                                 .dst_port = static_cast<std::uint16_t>(9000 + f),
                                 .src_port = static_cast<std::uint16_t>(40000 + f),
                                 .rate_bps = offered_per_client_bps / 4,
                                 .packet_payload = 1400,
                                 .duration = duration}));
    }
  }
  const SimTime start = network.sim().now();
  for (auto& app : apps) app->start();
  network.run_for(duration);
  std::uint64_t delivered = 0;
  for (auto* sink : sinks) delivered += sink->rx_ip_bytes();
  return static_cast<double>(delivered) * 8.0 / to_seconds(network.sim().now() - start);
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = benchjson::wants_json(argc, argv);
  benchjson::Emitter out("bench_baseline_onpath");
  if (!json) {
    std::printf("=== Baseline: on-path middlebox vs LiveSec off-path SEs ===\n");
    std::printf("(unit appliance capacity ~500 Mbps; 8 client pairs, 2.4 Gbps offered)\n\n");
  }

  const int pairs = 8;
  const double offered = 300e6;  // per client => 2.4 Gbps total

  const double traditional = run_traditional(pairs, offered);
  if (json) {
    out.metric("traditional_goodput", traditional, "bps");
  } else {
    std::printf("%-34s %-16s\n", "architecture", "goodput");
    std::printf("%-34s %-16s\n", "traditional (1 on-path box)",
                format_rate_bps(traditional).c_str());
  }

  double first = 0;
  bool linear = true;
  for (int n : {1, 2, 4}) {
    const double livesec = run_livesec(n, pairs, offered);
    if (n == 1) first = livesec;
    if (json) {
      out.metric("livesec_" + std::to_string(n) + "se_goodput", livesec, "bps");
    } else {
      std::printf("livesec (%d off-path SE%s)%*s %-16s %.2fx\n", n, n > 1 ? "s" : "",
                  n > 1 ? 8 : 9, "", format_rate_bps(livesec).c_str(), livesec / first);
    }
    if (n == 2 && livesec < 1.7 * first) linear = false;
    if (n == 4 && livesec < 3.2 * first) linear = false;
  }

  const bool ok = traditional < 600e6 && linear;
  if (json) {
    out.flag("shape_ok", ok);
    out.print();
  } else {
    std::printf("\nshape check (on-path flat ~500 Mbps; LiveSec scales ~linearly): %s\n",
                ok ? "PASS" : "FAIL");
  }
  return ok ? 0 : 1;
}
