// Twin-run determinism over a full deployment: the same topology and
// workload, run twice in one process on the serial kernel, must produce
// bit-identical observables — counters, the raw event stream and its
// rollups (DESIGN.md §12).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/network.h"
#include "net/traffic.h"

namespace livesec {
namespace {

/// Everything observable a run produces. Two runs are "bit-identical" iff
/// their RunOutcomes compare equal.
struct RunOutcome {
  std::vector<std::uint64_t> sink_packets;
  std::vector<std::uint64_t> sink_bytes;
  std::uint64_t port_tx = 0, port_rx = 0, port_drops = 0;
  std::uint64_t packet_ins = 0, flows_installed = 0, flows_redirected = 0;
  std::uint64_t verdicts = 0;
  // Event-pipeline fingerprints: the raw stream (ids and order included)
  // and the per-bucket rollups.
  std::uint64_t events_total = 0;
  std::string events_json;
  std::string rollup_json;

  bool operator==(const RunOutcome&) const = default;
};

/// FIT-building-style deployment: two backbone switches, an IDS chain, four
/// AS switches with three hosts each, every host streaming UDP to a distinct
/// sink across the backbone.
RunOutcome run_deployment() {
  net::Network network;
  auto& bb0 = network.add_legacy_switch("bb0");
  auto& bb1 = network.add_legacy_switch("bb1");
  network.connect_legacy(bb0, bb1);

  auto& se_sw = network.add_as_switch("se-sw", bb0, 1e9);
  network.add_service_element(svc::ServiceType::kIntrusionDetection, se_sw);
  ctrl::Policy policy;
  policy.nw_proto = static_cast<std::uint8_t>(pkt::IpProto::kUdp);
  policy.action = ctrl::PolicyAction::kRedirect;
  policy.service_chain = {svc::ServiceType::kIntrusionDetection};
  network.controller().policies().add(policy);

  std::vector<net::Host*> hosts;
  for (int s = 0; s < 4; ++s) {
    auto& as_sw = network.add_as_switch("as" + std::to_string(s), s < 2 ? bb0 : bb1, 1e9);
    for (int h = 0; h < 3; ++h) {
      hosts.push_back(&network.add_host("h" + std::to_string(s) + "_" + std::to_string(h),
                                        as_sw, 100e6));
    }
  }
  network.start();

  const SimTime duration = 150 * kMillisecond;
  std::vector<std::unique_ptr<net::UdpCbrApp>> apps;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const std::size_t sink = (i + 5) % hosts.size();  // crosses the backbone
    apps.push_back(std::make_unique<net::UdpCbrApp>(
        *hosts[i],
        net::UdpCbrApp::Config{.dst = hosts[sink]->ip(),
                               .dst_port = static_cast<std::uint16_t>(9000 + i),
                               .src_port = static_cast<std::uint16_t>(40000 + i),
                               .rate_bps = 4e6,
                               .packet_payload = 600,
                               .duration = duration}));
  }
  for (auto& app : apps) app->start();
  network.run_for(duration + 50 * kMillisecond);

  RunOutcome out;
  for (auto* host : hosts) {
    out.sink_packets.push_back(host->rx_ip_packets());
    out.sink_bytes.push_back(host->rx_ip_bytes());
  }
  auto absorb = [&out](const sim::Node& node) {
    for (std::size_t p = 0; p < node.port_count(); ++p) {
      const sim::Port& port = node.port(static_cast<PortId>(p));
      out.port_tx += port.tx_packets();
      out.port_rx += port.rx_packets();
      out.port_drops += port.dropped();
    }
  };
  for (const auto& sw : network.legacy_switches()) absorb(*sw);
  for (const auto& sw : network.as_switches()) absorb(*sw);
  for (const auto& host : network.hosts()) absorb(*host);
  for (const auto& se : network.service_elements()) absorb(*se);

  const ctrl::Controller::Stats& stats = network.controller().stats();
  out.packet_ins = stats.packet_ins;
  out.flows_installed = stats.flows_installed;
  out.flows_redirected = stats.flows_redirected;
  out.verdicts = stats.verdict_messages;
  const auto& events = network.controller().events();
  out.events_total = events.counters().appended;
  out.events_json = events.to_json(0, network.sim().now() + 1);
  out.rollup_json = events.rollup_json(0, network.sim().now() + 1);
  return out;
}

TEST(Determinism, TwinRunsAreBitIdentical) {
  const RunOutcome first = run_deployment();
  // Sanity: the workload actually moved traffic through the redirect chain.
  std::uint64_t total = 0;
  for (std::uint64_t p : first.sink_packets) total += p;
  ASSERT_GT(total, 100u);
  ASSERT_GT(first.flows_redirected, 0u);
  ASSERT_GT(first.events_total, 0u);

  const RunOutcome second = run_deployment();
  EXPECT_EQ(second.events_json, first.events_json);
  EXPECT_EQ(second.rollup_json, first.rollup_json);
  EXPECT_EQ(second, first);
}

TEST(Determinism, PortCountersAreConserved) {
  // Nothing is received that was never transmitted.
  const RunOutcome out = run_deployment();
  EXPECT_GT(out.port_tx, 0u);
  EXPECT_GE(out.port_tx, out.port_rx);
  EXPECT_GE(out.port_rx, 1000u);
}

}  // namespace
}  // namespace livesec
