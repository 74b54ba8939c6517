// Controller edge cases: unblocking, fail-open on empty SE pools, custom SE
// rulesets, DHCP exhaustion, mirror interplay, policy updates on live nets.
#include <gtest/gtest.h>

#include "net/network.h"
#include "net/trace_sink.h"
#include "net/traffic.h"

namespace livesec {
namespace {

struct EdgeNet {
  net::Network network;
  sw::EthernetSwitch& backbone;
  sw::OpenFlowSwitch& ovs1;
  sw::OpenFlowSwitch& ovs2;
  net::Host& alice;
  net::Host& bob;

  EdgeNet()
      : backbone(network.add_legacy_switch("backbone")),
        ovs1(network.add_as_switch("ovs1", backbone)),
        ovs2(network.add_as_switch("ovs2", backbone)),
        alice(network.add_host("alice", ovs1)),
        bob(network.add_host("bob", ovs2)) {}
};

TEST(ControllerEdge, UnblockFlowRestoresConnectivity) {
  EdgeNet net;
  net.network.add_service_element(svc::ServiceType::kIntrusionDetection, net.ovs2);
  ctrl::Policy policy;
  policy.tp_dst = 80;
  policy.action = ctrl::PolicyAction::kRedirect;
  policy.service_chain = {svc::ServiceType::kIntrusionDetection};
  net.network.controller().policies().add(policy);
  net::HttpServerApp server(net.bob, {.port = 80});
  net.network.start();

  net::AttackApp attacker(net.alice, {.server = net.bob.ip(), .packets = 5});
  attacker.start();
  net.network.run_for(1 * kSecond);
  ASSERT_EQ(net.network.controller().stats().flows_blocked_by_event, 1u);

  // Find the blocked key from the event record and unblock it.
  const auto blocked_events = net.network.controller().events().query_type(
      mon::EventType::kFlowBlocked, 0, INT64_MAX);
  ASSERT_FALSE(blocked_events.empty());
  const pkt::FlowKey key = blocked_events[0].flow;
  EXPECT_TRUE(net.network.controller().flow_blocked(key));
  EXPECT_TRUE(net.network.controller().unblock_flow(key));
  EXPECT_FALSE(net.network.controller().flow_blocked(key));
  EXPECT_FALSE(net.network.controller().unblock_flow(key));  // idempotence

  // After entries idle out, the same flow works again (it still alerts, but
  // admission is no longer pre-denied; the fresh alert re-blocks it, which
  // is the designed loop — here we only check setup was permitted again).
  net.network.run_for(35 * kSecond);
  const auto before = net.network.controller().stats().flows_installed;
  net::AttackApp retry(net.alice, {.server = net.bob.ip(), .packets = 1});
  retry.start();
  net.network.run_for(1 * kSecond);
  EXPECT_EQ(net.network.controller().stats().flows_installed, before + 1);
}

TEST(ControllerEdge, RedirectFailsOpenWithoutSes) {
  EdgeNet net;
  ctrl::Policy policy;
  policy.nw_proto = static_cast<std::uint8_t>(pkt::IpProto::kUdp);
  policy.action = ctrl::PolicyAction::kRedirect;
  policy.service_chain = {svc::ServiceType::kVirusScan};  // pool is empty
  net.network.controller().policies().add(policy);
  net.network.start();

  pkt::Packet p = pkt::PacketBuilder()
                      .ipv4(net.alice.ip(), net.bob.ip(), pkt::IpProto::kUdp)
                      .udp(1, 2)
                      .payload("no scanner available")
                      .build();
  net.alice.send_ip(std::move(p));
  net.network.run_for(300 * kMillisecond);
  // Fail-open: traffic still flows, just uninspected.
  EXPECT_EQ(net.bob.rx_ip_packets(), 1u);
  EXPECT_EQ(net.network.controller().stats().flows_redirected, 0u);
}

TEST(ControllerEdge, CustomSeRulesetDetectsCustomMarker) {
  EdgeNet net;
  std::vector<std::string> errors;
  svc::ServiceElement::Config config;
  config.ids_rules = svc::ids::parse_rules("8800 custom.marker tcp 0 9 ORG-SPECIFIC-IOC\n",
                                           errors);
  net.network.add_service_element(svc::ServiceType::kIntrusionDetection, net.ovs2, config);
  ctrl::Policy policy;
  policy.nw_proto = static_cast<std::uint8_t>(pkt::IpProto::kTcp);
  policy.action = ctrl::PolicyAction::kRedirect;
  policy.service_chain = {svc::ServiceType::kIntrusionDetection};
  net.network.controller().policies().add(policy);
  net.network.start();

  net::AttackApp attacker(net.alice, {.server = net.bob.ip(),
                                      .attack_payload = "data ORG-SPECIFIC-IOC data",
                                      .packets = 3});
  attacker.start();
  net.network.run_for(1 * kSecond);
  const auto attacks = net.network.controller().events().query_type(
      mon::EventType::kAttackDetected, 0, INT64_MAX);
  ASSERT_GE(attacks.size(), 1u);
  EXPECT_EQ(attacks[0].detail_string(), "custom.marker");
}

TEST(ControllerEdge, DhcpNakOnPoolExhaustion) {
  net::Network network;
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs = network.add_as_switch("ovs", backbone);
  network.controller().enable_dhcp(Ipv4Address(10, 2, 0, 10), 1);  // one address
  auto& h1 = network.add_host("h1", ovs);
  auto& h2 = network.add_host("h2", ovs);
  network.start();
  h1.start_dhcp();
  network.run_for(500 * kMillisecond);
  h2.start_dhcp({}, 10 * kSecond);  // single attempt inside the window
  network.run_for(500 * kMillisecond);
  EXPECT_TRUE(h1.dhcp_bound());
  EXPECT_FALSE(h2.dhcp_bound());  // NAK'd: pool exhausted
}

TEST(ControllerEdge, PolicyRemovalChangesNewFlows) {
  EdgeNet net;
  ctrl::Policy policy;
  policy.nw_proto = static_cast<std::uint8_t>(pkt::IpProto::kUdp);
  policy.action = ctrl::PolicyAction::kDeny;
  const std::uint32_t id = net.network.controller().policies().add(policy);
  net.network.start();

  pkt::Packet first = pkt::PacketBuilder()
                          .ipv4(net.alice.ip(), net.bob.ip(), pkt::IpProto::kUdp)
                          .udp(100, 200)
                          .payload("x")
                          .build();
  net.alice.send_ip(std::move(first));
  net.network.run_for(300 * kMillisecond);
  EXPECT_EQ(net.bob.rx_ip_packets(), 0u);

  EXPECT_TRUE(net.network.controller().policies().remove(id));
  pkt::Packet second = pkt::PacketBuilder()
                           .ipv4(net.alice.ip(), net.bob.ip(), pkt::IpProto::kUdp)
                           .udp(101, 200)  // distinct flow: not the denied entry
                           .payload("y")
                           .build();
  net.alice.send_ip(std::move(second));
  net.network.run_for(300 * kMillisecond);
  EXPECT_EQ(net.bob.rx_ip_packets(), 1u);
}

TEST(ControllerEdge, MirrorDoesNotDisturbDelivery) {
  EdgeNet net;
  net::TraceSink sink(net.network.sim(), "capture");
  sim::Port& span = net.ovs1.add_port(sw::PortRole::kNetworkPeriphery);
  auto link = sim::connect(net.network.sim(), sink.port(0), span);
  net.network.controller().set_mirror_port(1, span.id());
  net.network.start();

  for (int i = 0; i < 5; ++i) {
    pkt::Packet p = pkt::PacketBuilder()
                        .ipv4(net.alice.ip(), net.bob.ip(), pkt::IpProto::kUdp)
                        .udp(100, 200)
                        .payload("mirrored payload")
                        .build();
    net.alice.send_ip(std::move(p));
  }
  net.network.run_for(500 * kMillisecond);
  EXPECT_EQ(net.bob.rx_ip_packets(), 5u);     // delivery unaffected
  EXPECT_EQ(sink.trace().size(), 5u);         // every packet mirrored once
  net.network.controller().clear_mirror_port(1);
}

TEST(ControllerEdge, StatsPollingIsHarmlessWithoutTraffic) {
  ctrl::Controller::Config config;
  config.stats_interval = 200 * kMillisecond;
  net::Network network(config);
  auto& backbone = network.add_legacy_switch("backbone");
  network.add_as_switch("ovs", backbone);
  network.start();
  network.run_for(2 * kSecond);
  const auto* load = network.controller().switch_load(1);
  ASSERT_NE(load, nullptr);
  EXPECT_EQ(load->total_packets, 0u);
  EXPECT_EQ(load->bits_per_second, 0.0);
}

}  // namespace
}  // namespace livesec
