// End-to-end integration tests over whole simulated deployments: discovery,
// ARP proxying, two-hop routing, SE redirection, interactive blocking,
// certification enforcement, aging, wireless access, aggregate flow control.
#include <gtest/gtest.h>

#include "monitor/webui.h"
#include "net/network.h"
#include "net/traffic.h"

namespace livesec {
namespace {

using net::Network;

struct TwoSwitchNet {
  Network network;
  sw::EthernetSwitch& backbone;
  sw::OpenFlowSwitch& ovs1;
  sw::OpenFlowSwitch& ovs2;
  net::Host& alice;
  net::Host& bob;

  TwoSwitchNet()
      : backbone(network.add_legacy_switch("backbone")),
        ovs1(network.add_as_switch("ovs1", backbone)),
        ovs2(network.add_as_switch("ovs2", backbone)),
        alice(network.add_host("alice", ovs1)),
        bob(network.add_host("bob", ovs2)) {}
};

TEST(Integration, LldpDiscoversFullMesh) {
  Network network;
  auto& backbone = network.add_legacy_switch("backbone");
  auto& s1 = network.add_as_switch("s1", backbone);
  auto& s2 = network.add_as_switch("s2", backbone);
  auto& s3 = network.add_as_switch("s3", backbone);
  (void)s1;
  (void)s2;
  (void)s3;
  network.start();
  EXPECT_TRUE(network.controller().topology().full_mesh());
  EXPECT_EQ(network.controller().topology().switch_count(), 3u);
  EXPECT_GE(network.controller().stats().lldp_links, 3u);
}

TEST(Integration, HostsAreDiscoveredViaArpAnnounce) {
  TwoSwitchNet net;
  net.network.start();
  const auto* alice_loc = net.network.controller().routing().find(net.alice.mac());
  ASSERT_NE(alice_loc, nullptr);
  EXPECT_EQ(alice_loc->dpid, 1u);
  EXPECT_EQ(alice_loc->ip, net.alice.ip());
  EXPECT_EQ(net.network.controller()
                .events()
                .query_type(mon::EventType::kHostJoin, 0, net.network.sim().now())
                .size(),
            2u);
}

TEST(Integration, ArpIsProxiedNotFlooded) {
  TwoSwitchNet net;
  net.network.start();
  // Alice resolves Bob through the directory proxy.
  pkt::Packet probe = pkt::PacketBuilder()
                          .ipv4(net.alice.ip(), net.bob.ip(), pkt::IpProto::kUdp)
                          .udp(5000, 6000)
                          .payload("hello")
                          .build();
  net.alice.send_ip(std::move(probe));
  net.network.run_for(100 * kMillisecond);
  EXPECT_TRUE(net.alice.arp_cached(net.bob.ip()));
  EXPECT_GE(net.network.controller().stats().arp_proxied, 1u);
}

TEST(Integration, EndToEndDeliveryAcrossSwitches) {
  TwoSwitchNet net;
  net.network.start();
  for (int i = 0; i < 10; ++i) {
    pkt::Packet p = pkt::PacketBuilder()
                        .ipv4(net.alice.ip(), net.bob.ip(), pkt::IpProto::kUdp)
                        .udp(5000, 6000)
                        .payload("data packet payload")
                        .build();
    net.alice.send_ip(std::move(p));
  }
  net.network.run_for(200 * kMillisecond);
  EXPECT_EQ(net.bob.rx_ip_packets(), 10u);
  EXPECT_EQ(net.network.controller().stats().flows_installed, 1u);
  // Follow-up packets used the data path: exactly one IPv4 packet-in for the
  // flow (plus ARP/daemon ones which are not IPv4-flow setups).
  EXPECT_EQ(net.network.controller().active_flows(), 1u);
}

TEST(Integration, ReplyDirectionIsPreinstalled) {
  TwoSwitchNet net;
  net.network.start();
  pkt::Packet p = pkt::PacketBuilder()
                      .ipv4(net.alice.ip(), net.bob.ip(), pkt::IpProto::kUdp)
                      .udp(5000, 6000)
                      .payload("ping-ish")
                      .build();
  net.alice.send_ip(std::move(p));
  net.network.run_for(100 * kMillisecond);
  const auto flows_before = net.network.controller().stats().flows_installed;

  // Bob replies on the reverse 5-tuple: no new flow setup should happen.
  pkt::Packet reply = pkt::PacketBuilder()
                          .ipv4(net.bob.ip(), net.alice.ip(), pkt::IpProto::kUdp)
                          .udp(6000, 5000)
                          .payload("reply")
                          .build();
  net.bob.send_ip(std::move(reply));
  net.network.run_for(100 * kMillisecond);
  EXPECT_EQ(net.alice.rx_ip_packets(), 1u);
  EXPECT_EQ(net.network.controller().stats().flows_installed, flows_before);
}

TEST(Integration, PingWorksThroughLiveSec) {
  TwoSwitchNet net;
  net.network.start();
  bool done = false;
  net.alice.ping(net.bob.ip(), 5, 10 * kMillisecond,
                 [&](const net::Host::PingStats& stats) {
                   done = true;
                   EXPECT_EQ(stats.received, 5u);
                 });
  net.network.run_for(2 * kSecond);
  EXPECT_TRUE(done);
  EXPECT_EQ(net.alice.ping_stats().received, 5u);
  // First ping pays the controller round trip; later pings ride the
  // installed entries and must be faster.
  const auto& results = net.alice.ping_stats().results;
  ASSERT_EQ(results.size(), 5u);
  EXPECT_GT(results[0].rtt, results[4].rtt);
}

TEST(Integration, RedirectPolicySteersThroughIds) {
  TwoSwitchNet net;
  auto& ids = net.network.add_service_element(svc::ServiceType::kIntrusionDetection, net.ovs1);

  ctrl::Policy policy;
  policy.name = "web-via-ids";
  policy.tp_dst = 80;
  policy.nw_proto = 6;
  policy.action = ctrl::PolicyAction::kRedirect;
  policy.service_chain = {svc::ServiceType::kIntrusionDetection};
  net.network.controller().policies().add(policy);

  net::HttpServerApp server(net.bob, {.port = 80, .response_size = 4096});
  net.network.start();

  net::HttpClientApp client(net.alice, {.server = net.bob.ip(), .sessions = 2,
                                        .concurrency = 1, .expected_response = 4096});
  client.start();
  net.network.run_for(2 * kSecond);

  EXPECT_EQ(client.responses_completed(), 2u);
  EXPECT_GT(ids.processed_packets(), 0u);  // traffic really traversed the SE
  EXPECT_EQ(net.network.controller().stats().flows_redirected, 2u);
}

TEST(Integration, AttackIsDetectedAndBlockedAtIngress) {
  TwoSwitchNet net;
  net.network.add_service_element(svc::ServiceType::kIntrusionDetection, net.ovs2);

  ctrl::Policy policy;
  policy.name = "web-via-ids";
  policy.tp_dst = 80;
  policy.action = ctrl::PolicyAction::kRedirect;
  policy.service_chain = {svc::ServiceType::kIntrusionDetection};
  net.network.controller().policies().add(policy);

  net::HttpServerApp server(net.bob, {.port = 80});
  net.network.start();

  net::AttackApp attacker(net.alice, {.server = net.bob.ip(), .packets = 30,
                                      .interval = 20 * kMillisecond});
  attacker.start();
  net.network.run_for(2 * kSecond);

  const auto& events = net.network.controller().events();
  EXPECT_GE(events.query_type(mon::EventType::kAttackDetected, 0, INT64_MAX).size(), 1u);
  EXPECT_GE(events.query_type(mon::EventType::kFlowBlocked, 0, INT64_MAX).size(), 1u);
  EXPECT_EQ(net.network.controller().stats().flows_blocked_by_event, 1u);

  // The server must have stopped receiving attack packets after the block:
  // far fewer than the 30 sent.
  EXPECT_LT(server.requests_served(), 10u);
  EXPECT_EQ(attacker.packets_sent(), 30u);
}

TEST(Integration, BlockedFlowStaysBlockedOnRetry) {
  TwoSwitchNet net;
  net.network.add_service_element(svc::ServiceType::kIntrusionDetection, net.ovs2);
  ctrl::Policy policy;
  policy.tp_dst = 80;
  policy.action = ctrl::PolicyAction::kRedirect;
  policy.service_chain = {svc::ServiceType::kIntrusionDetection};
  net.network.controller().policies().add(policy);
  net::HttpServerApp server(net.bob, {.port = 80});
  net.network.start();

  net::AttackApp first(net.alice, {.server = net.bob.ip(), .packets = 5});
  first.start();
  net.network.run_for(1 * kSecond);
  const std::size_t served = server.requests_served();

  // Flow entries idle out, then the same flow returns: the controller's
  // blocked set must drop it at setup time without re-steering.
  net.network.run_for(35 * kSecond);
  net::AttackApp second(net.alice, {.server = net.bob.ip(), .packets = 5});
  second.start();
  net.network.run_for(1 * kSecond);
  EXPECT_EQ(server.requests_served(), served);
}

TEST(Integration, DenyPolicyDropsAtIngress) {
  TwoSwitchNet net;
  ctrl::Policy policy;
  policy.name = "block-alice";
  policy.src_mac = net.alice.mac();
  policy.action = ctrl::PolicyAction::kDeny;
  net.network.controller().policies().add(policy);
  net.network.start();

  pkt::Packet p = pkt::PacketBuilder()
                      .ipv4(net.alice.ip(), net.bob.ip(), pkt::IpProto::kUdp)
                      .udp(1, 2)
                      .payload("x")
                      .build();
  net.alice.send_ip(std::move(p));
  net.network.run_for(200 * kMillisecond);
  EXPECT_EQ(net.bob.rx_ip_packets(), 0u);
  EXPECT_EQ(net.network.controller().stats().flows_denied, 1u);
  EXPECT_EQ(net.network.controller()
                .events()
                .query_type(mon::EventType::kPolicyDenied, 0, INT64_MAX)
                .size(),
            1u);
}

TEST(Integration, UncertifiedSeIsRejectedAndDropped) {
  TwoSwitchNet net;
  svc::ServiceElement::Config rogue;
  rogue.cert_token = 0xBADBADBADull;  // not issued by the controller
  net.network.add_service_element(svc::ServiceType::kIntrusionDetection, net.ovs1, rogue);
  net.network.start();

  EXPECT_EQ(net.network.controller().services().size(), 0u);  // never registered
  EXPECT_GE(net.network.controller().stats().cert_rejections, 1u);
  EXPECT_GE(net.network.controller()
                .events()
                .query_type(mon::EventType::kCertificationRejected, 0, INT64_MAX)
                .size(),
            1u);
}

TEST(Integration, SilentSeExpiresAndLoadBalancerMovesOn) {
  TwoSwitchNet net;
  auto& se1 = net.network.add_service_element(svc::ServiceType::kIntrusionDetection, net.ovs1);
  auto& se2 = net.network.add_service_element(svc::ServiceType::kIntrusionDetection, net.ovs2);
  (void)se2;
  net.network.start();
  EXPECT_EQ(net.network.controller().services().size(), 2u);

  se1.stop();  // silent: heartbeats cease
  net.network.run_for(10 * kSecond);
  EXPECT_EQ(net.network.controller().services().size(), 1u);
  EXPECT_GE(net.network.controller()
                .events()
                .query_type(mon::EventType::kSeOffline, 0, INT64_MAX)
                .size(),
            1u);
}

TEST(Integration, IdleHostAgesOutAndRaisesLeave) {
  ctrl::Controller::Config config;
  config.host_timeout = 3 * kSecond;
  Network network(config);
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs = network.add_as_switch("ovs", backbone);
  auto& host = network.add_host("h", ovs);
  network.start();
  EXPECT_EQ(network.controller().routing().size(), 1u);

  host.disable_periodic_announce();  // the host goes silent
  network.run_for(10 * kSecond);     // no traffic: ARP timeout fires
  EXPECT_EQ(network.controller().routing().size(), 0u);
  EXPECT_GE(network.controller()
                .events()
                .query_type(mon::EventType::kHostLeave, 0, INT64_MAX)
                .size(),
            1u);
}

// A host that is up but only receives (a CBR sink) keeps its location past
// the host timeout, so flows into it outlive the timeout too.
TEST(Integration, ReceivingHostOutlivesTheHostTimeout) {
  ctrl::Controller::Config config;
  config.host_timeout = 3 * kSecond;
  Network network(config);
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs = network.add_as_switch("ovs", backbone);
  auto& sender = network.add_host("sender", ovs);
  auto& sink = network.add_host("sink", ovs);
  network.start();

  constexpr int kPackets = 40;  // one every 250 ms: 10 s, over three timeouts
  for (int i = 0; i < kPackets; ++i) {
    network.sim().schedule(i * 250 * kMillisecond, [&sender, &sink] {
      sender.send_ip(pkt::PacketBuilder()
                         .ipv4(sender.ip(), sink.ip(), pkt::IpProto::kUdp)
                         .udp(1000, 2000)
                         .payload_size(100)
                         .build());
    });
  }
  network.run_for(11 * kSecond);
  EXPECT_EQ(sink.rx_ip_packets(), static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(network.controller().routing().size(), 2u);
  EXPECT_EQ(network.controller()
                .events()
                .query_type(mon::EventType::kHostLeave, 0, INT64_MAX)
                .size(),
            0u);
}

TEST(Integration, WirelessUserTrafficFlowsThroughAp) {
  Network network;
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs = network.add_as_switch("ovs", backbone);
  auto& ap = network.add_wifi_ap("ap", backbone);
  auto& sta = network.add_wifi_host("sta", ap);
  auto& server = network.add_host("server", ovs);
  network.start();

  for (int i = 0; i < 20; ++i) {
    pkt::Packet p = pkt::PacketBuilder()
                        .ipv4(sta.ip(), server.ip(), pkt::IpProto::kUdp)
                        .udp(1000, 2000)
                        .payload_size(1000)
                        .build();
    sta.send_ip(std::move(p));
  }
  network.run_for(500 * kMillisecond);
  EXPECT_EQ(server.rx_ip_packets(), 20u);
  // The AP appears in the topology as a Wi-Fi node.
  const auto* info = network.controller().topology().switch_info(2);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->kind, topo::NodeKind::kWifiAp);
}

TEST(Integration, ProtocolIdentificationFeedsServiceAwareMonitoring) {
  TwoSwitchNet net;
  net.network.add_service_element(svc::ServiceType::kProtocolIdentification, net.ovs2);
  ctrl::Policy policy;
  policy.nw_proto = 6;
  policy.action = ctrl::PolicyAction::kRedirect;
  policy.service_chain = {svc::ServiceType::kProtocolIdentification};
  net.network.controller().policies().add(policy);
  net::HttpServerApp server(net.bob, {.port = 80, .response_size = 2048});
  net.network.start();

  net::HttpClientApp client(net.alice, {.server = net.bob.ip(), .sessions = 1,
                                        .concurrency = 1, .expected_response = 2048});
  client.start();
  net.network.run_for(1 * kSecond);

  EXPECT_EQ(net.network.controller().service_monitor().dominant_app(net.alice.mac()),
            svc::l7::AppProtocol::kHttp);
  EXPECT_GE(net.network.controller()
                .events()
                .query_type(mon::EventType::kProtocolIdentified, 0, INT64_MAX)
                .size(),
            1u);
}

TEST(Integration, AggregateFlowControlBlocksExcessFlows) {
  TwoSwitchNet net;
  net.network.add_service_element(svc::ServiceType::kProtocolIdentification, net.ovs2);
  ctrl::Policy policy;
  policy.nw_proto = 6;
  policy.action = ctrl::PolicyAction::kRedirect;
  policy.service_chain = {svc::ServiceType::kProtocolIdentification};
  net.network.controller().policies().add(policy);
  net.network.controller().flow_control().set_limit(svc::l7::AppProtocol::kBitTorrent, 2);
  net.network.start();

  // Alice opens BitTorrent flows to several peers; beyond 2 concurrently
  // active ones the controller slams the door.
  net::BitTorrentApp bt(net.alice,
                        {.peers = {net.bob.ip(), net.bob.ip(), net.bob.ip(), net.bob.ip()},
                         .rate_bps = 5e6,
                         .duration = 2 * kSecond});
  // Distinct src ports per peer index make these distinct flows even though
  // the peer IP repeats.
  bt.start();
  net.network.run_for(3 * kSecond);

  EXPECT_GE(net.network.controller()
                .events()
                .query_type(mon::EventType::kAggregateLimitHit, 0, INT64_MAX)
                .size(),
            1u);
}

TEST(Integration, WebUiSnapshotsRenderState) {
  TwoSwitchNet net;
  net.network.add_service_element(svc::ServiceType::kIntrusionDetection, net.ovs1);
  net.network.start();
  mon::WebUi ui(net.network.controller());
  const std::string json = ui.snapshot_json(0, net.network.sim().now());
  EXPECT_NE(json.find("\"switches\""), std::string::npos);
  EXPECT_NE(json.find("\"full_mesh\":true"), std::string::npos);
  EXPECT_NE(json.find("intrusion_detection"), std::string::npos);

  const std::string text = ui.snapshot_text(0, net.network.sim().now());
  EXPECT_NE(text.find("full-mesh AS layer: yes"), std::string::npos);

  const std::string replay = ui.replay_text(0, net.network.sim().now());
  EXPECT_NE(replay.find("switch_join"), std::string::npos);
  EXPECT_NE(replay.find("se_online"), std::string::npos);
}

TEST(Integration, FlowEndEventAfterIdleTimeout) {
  TwoSwitchNet net;
  net.network.start();
  pkt::Packet p = pkt::PacketBuilder()
                      .ipv4(net.alice.ip(), net.bob.ip(), pkt::IpProto::kUdp)
                      .udp(5000, 6000)
                      .payload("one-shot")
                      .build();
  net.alice.send_ip(std::move(p));
  net.network.run_for(100 * kMillisecond);
  EXPECT_EQ(net.network.controller().active_flows(), 1u);

  // Idle past the flow timeout; keep a trickle of other traffic so the
  // switch's lazy expiry runs.
  net.network.run_for(15 * kSecond);
  pkt::Packet other = pkt::PacketBuilder()
                          .ipv4(net.alice.ip(), net.bob.ip(), pkt::IpProto::kUdp)
                          .udp(5001, 6001)
                          .payload("tick")
                          .build();
  net.alice.send_ip(std::move(other));
  net.network.run_for(1 * kSecond);

  EXPECT_GE(net.network.controller()
                .events()
                .query_type(mon::EventType::kFlowEnd, 0, INT64_MAX)
                .size(),
            1u);
}

TEST(Integration, FlowRemovalFeedsPerUserTrafficTotals) {
  TwoSwitchNet net;
  net.network.start();
  net::UdpCbrApp app(net.alice, {.dst = net.bob.ip(), .rate_bps = 5e6,
                                 .duration = 500 * kMillisecond});
  app.start();
  net.network.run_for(1 * kSecond);

  // Let the entry idle out; a later miss triggers the lazy expiry.
  net.network.run_for(15 * kSecond);
  pkt::Packet nudge = pkt::PacketBuilder()
                          .ipv4(net.alice.ip(), net.bob.ip(), pkt::IpProto::kUdp)
                          .udp(777, 888)
                          .payload("nudge")
                          .build();
  net.alice.send_ip(std::move(nudge));
  net.network.run_for(1 * kSecond);

  const auto* totals = net.network.controller().service_monitor().traffic(net.alice.mac());
  ASSERT_NE(totals, nullptr);
  EXPECT_GT(totals->bytes, 100000u);  // the CBR flow's bytes were attributed
  const auto talkers = net.network.controller().service_monitor().top_talkers(5);
  ASSERT_FALSE(talkers.empty());
  EXPECT_EQ(talkers[0].first, net.alice.mac());
}

TEST(Integration, ServiceChainOfTwoServices) {
  TwoSwitchNet net;
  auto& ids = net.network.add_service_element(svc::ServiceType::kIntrusionDetection, net.ovs1);
  auto& l7 = net.network.add_service_element(svc::ServiceType::kProtocolIdentification,
                                             net.ovs2);
  ctrl::Policy policy;
  policy.tp_dst = 80;
  policy.action = ctrl::PolicyAction::kRedirect;
  policy.service_chain = {svc::ServiceType::kIntrusionDetection,
                          svc::ServiceType::kProtocolIdentification};
  net.network.controller().policies().add(policy);
  net::HttpServerApp server(net.bob, {.port = 80, .response_size = 2048});
  net.network.start();

  net::HttpClientApp client(net.alice, {.server = net.bob.ip(), .sessions = 1,
                                        .concurrency = 1, .expected_response = 2048});
  client.start();
  net.network.run_for(2 * kSecond);

  EXPECT_EQ(client.responses_completed(), 1u);
  EXPECT_GT(ids.processed_packets(), 0u);
  EXPECT_GT(l7.processed_packets(), 0u);
}

}  // namespace
}  // namespace livesec
