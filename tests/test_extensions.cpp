// Tests for the extension features: DHCP directory proxy, policy config
// language, IDS rule options, event-store persistence, statistics polling,
// SE migration and host mobility.
#include <gtest/gtest.h>

#include "controller/dhcp_pool.h"
#include "controller/policy_parser.h"
#include "monitor/event_pipeline.h"
#include "net/network.h"
#include "net/traffic.h"
#include "packet/dhcp.h"
#include "services/ids/ids_engine.h"

namespace livesec {
namespace {

// --- DhcpPool ------------------------------------------------------------------

TEST(DhcpPool, AllocatesDistinctStableAddresses) {
  ctrl::DhcpPool pool(Ipv4Address(10, 2, 0, 1), 4);
  const auto a = pool.allocate(MacAddress::from_uint64(1), 0);
  const auto b = pool.allocate(MacAddress::from_uint64(2), 0);
  ASSERT_TRUE(a && b);
  EXPECT_NE(*a, *b);
  // Renewal returns the same address.
  EXPECT_EQ(pool.allocate(MacAddress::from_uint64(1), 100), a);
}

TEST(DhcpPool, ExhaustionReturnsNullopt) {
  ctrl::DhcpPool pool(Ipv4Address(10, 2, 0, 1), 2);
  EXPECT_TRUE(pool.allocate(MacAddress::from_uint64(1), 0).has_value());
  EXPECT_TRUE(pool.allocate(MacAddress::from_uint64(2), 0).has_value());
  EXPECT_FALSE(pool.allocate(MacAddress::from_uint64(3), 0).has_value());
}

TEST(DhcpPool, ExpiredLeasesAreReclaimed) {
  ctrl::DhcpPool pool(Ipv4Address(10, 2, 0, 1), 1, 100);
  const auto a = pool.allocate(MacAddress::from_uint64(1), 0);
  ASSERT_TRUE(a.has_value());
  EXPECT_FALSE(pool.allocate(MacAddress::from_uint64(2), 50).has_value());
  // Past the lease, the address frees up.
  const auto b = pool.allocate(MacAddress::from_uint64(2), 200);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, *b);
  EXPECT_FALSE(pool.lookup(MacAddress::from_uint64(1), 200).has_value());
}

TEST(DhcpPool, ReleaseFreesImmediately) {
  ctrl::DhcpPool pool(Ipv4Address(10, 2, 0, 1), 1);
  pool.allocate(MacAddress::from_uint64(1), 0);
  pool.release(MacAddress::from_uint64(1));
  EXPECT_TRUE(pool.allocate(MacAddress::from_uint64(2), 0).has_value());
}

TEST(DhcpMessage, CodecRoundTrip) {
  pkt::DhcpMessage m;
  m.op = pkt::DhcpOp::kOffer;
  m.xid = 0xABCD1234;
  m.client_mac = MacAddress::from_uint64(0x42);
  m.your_ip = Ipv4Address(10, 2, 0, 7);
  m.server_ip = Ipv4Address(10, 255, 255, 254);
  m.lease_seconds = 3600;
  const auto decoded = pkt::DhcpMessage::decode(m.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->op, pkt::DhcpOp::kOffer);
  EXPECT_EQ(decoded->xid, 0xABCD1234u);
  EXPECT_EQ(decoded->your_ip, m.your_ip);
  EXPECT_EQ(decoded->lease_seconds, 3600u);

  auto bytes = m.encode();
  bytes[0] ^= 0xFF;
  EXPECT_FALSE(pkt::DhcpMessage::decode(bytes).has_value());
}

TEST(Dhcp, EndToEndLeaseThroughController) {
  net::Network network;
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs = network.add_as_switch("ovs", backbone);
  network.controller().enable_dhcp(Ipv4Address(10, 2, 0, 10), 16);
  auto& host = network.add_host("dhcp-client", ovs);
  network.start();

  Ipv4Address bound;
  host.start_dhcp([&](Ipv4Address ip) { bound = ip; });
  network.run_for(1 * kSecond);

  EXPECT_TRUE(host.dhcp_bound());
  EXPECT_EQ(bound, Ipv4Address(10, 2, 0, 10));
  EXPECT_EQ(host.ip(), bound);
  // The lease registered the host's location with the controller.
  const auto* loc = network.controller().routing().find_by_ip(bound);
  ASSERT_NE(loc, nullptr);
  EXPECT_EQ(loc->mac, host.mac());
}

TEST(Dhcp, TwoClientsGetDistinctLeases) {
  net::Network network;
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs = network.add_as_switch("ovs", backbone);
  network.controller().enable_dhcp(Ipv4Address(10, 2, 0, 10), 16);
  auto& h1 = network.add_host("c1", ovs);
  auto& h2 = network.add_host("c2", ovs);
  network.start();
  h1.start_dhcp();
  h2.start_dhcp();
  network.run_for(1 * kSecond);
  ASSERT_TRUE(h1.dhcp_bound());
  ASSERT_TRUE(h2.dhcp_bound());
  EXPECT_NE(h1.ip(), h2.ip());
}

// --- policy parser ------------------------------------------------------------

TEST(PolicyParser, ParsesFullSyntax) {
  std::vector<std::string> errors;
  const auto policies = ctrl::parse_policies(
      "# campus policies\n"
      "web-ids 10 redirect proto=tcp dport=80 chain=l7,ids granularity=user\n"
      "deny-guest 50 deny src_ip=10.9.0.0/16\n"
      "allow-dns 5 allow proto=udp dport=53\n",
      errors);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors[0]);
  ASSERT_EQ(policies.size(), 3u);

  EXPECT_EQ(policies[0].name, "web-ids");
  EXPECT_EQ(policies[0].action, ctrl::PolicyAction::kRedirect);
  ASSERT_EQ(policies[0].service_chain.size(), 2u);
  EXPECT_EQ(policies[0].service_chain[0], svc::ServiceType::kProtocolIdentification);
  EXPECT_EQ(policies[0].service_chain[1], svc::ServiceType::kIntrusionDetection);
  EXPECT_EQ(policies[0].granularity, ctrl::LbGranularity::kPerUser);
  EXPECT_EQ(policies[0].tp_dst, 80);

  EXPECT_EQ(policies[1].action, ctrl::PolicyAction::kDeny);
  EXPECT_EQ(policies[1].nw_src_prefix, 16);
}

TEST(PolicyParser, CollectsErrors) {
  std::vector<std::string> errors;
  const auto policies = ctrl::parse_policies(
      "bad-action 10 explode\n"
      "bad-mac 10 deny src_mac=zz:zz\n"
      "bad-redirect 10 redirect proto=tcp\n"  // no chain
      "ok 10 allow\n",
      errors);
  EXPECT_EQ(policies.size(), 1u);
  EXPECT_EQ(errors.size(), 3u);
}

TEST(PolicyParser, FormatRoundTrips) {
  std::vector<std::string> errors;
  const auto policies = ctrl::parse_policies(
      "web-ids 10 redirect src_mac=02:00:00:00:00:05 dst_ip=10.1.0.0/24 proto=6 dport=80 "
      "chain=ids granularity=flow\n",
      errors);
  ASSERT_EQ(policies.size(), 1u);
  const std::string text = ctrl::format_policy(policies[0]);
  const auto reparsed = ctrl::parse_policies(text + "\n", errors);
  ASSERT_EQ(reparsed.size(), 1u);
  EXPECT_EQ(reparsed[0].name, policies[0].name);
  EXPECT_EQ(reparsed[0].tp_dst, policies[0].tp_dst);
  EXPECT_EQ(reparsed[0].src_mac, policies[0].src_mac);
  EXPECT_EQ(reparsed[0].nw_dst, policies[0].nw_dst);
  EXPECT_EQ(reparsed[0].service_chain, policies[0].service_chain);
}

TEST(PolicyParser, ParsedPolicyEnforces) {
  std::vector<std::string> errors;
  auto policies = ctrl::parse_policies("no-web 10 deny proto=tcp dport=80\n", errors);
  ASSERT_EQ(policies.size(), 1u);

  net::Network network;
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs = network.add_as_switch("ovs", backbone);
  auto& a = network.add_host("a", ovs);
  auto& b = network.add_host("b", ovs);
  network.controller().policies().add(policies[0]);
  network.start();

  pkt::Packet p = pkt::PacketBuilder()
                      .ipv4(a.ip(), b.ip(), pkt::IpProto::kTcp)
                      .tcp(1234, 80)
                      .payload("GET /")
                      .build();
  a.send_ip(std::move(p));
  network.run_for(200 * kMillisecond);
  EXPECT_EQ(b.rx_ip_packets(), 0u);
  EXPECT_EQ(network.controller().stats().flows_denied, 1u);
}

// --- IDS rule options -----------------------------------------------------------

pkt::Packet tcp_payload(std::string_view payload, std::uint16_t src = 50000) {
  return pkt::PacketBuilder()
      .eth(MacAddress::from_uint64(0xE1), MacAddress::from_uint64(0xE2))
      .ipv4(Ipv4Address(10, 3, 0, 1), Ipv4Address(10, 3, 0, 2), pkt::IpProto::kTcp)
      .tcp(src, 80, pkt::TcpFlags::kPsh)
      .payload(payload)
      .build();
}

TEST(IdsRuleOptions, NocaseMatchesAnyCase) {
  std::vector<std::string> errors;
  auto rules = svc::ids::parse_rules("5001 probe tcp 80 4 select\\sfrom nocase\n", errors);
  ASSERT_TRUE(errors.empty());
  svc::ids::IdsEngine engine(std::move(rules));
  EXPECT_EQ(engine.inspect(tcp_payload("SeLeCt FROM users", 50001)).size(), 1u);
  EXPECT_EQ(engine.inspect(tcp_payload("select from t", 50002)).size(), 1u);
}

TEST(IdsRuleOptions, CaseSensitiveByDefault) {
  std::vector<std::string> errors;
  auto rules = svc::ids::parse_rules("5002 probe tcp 80 4 MARKER\n", errors);
  svc::ids::IdsEngine engine(std::move(rules));
  EXPECT_EQ(engine.inspect(tcp_payload("marker here", 50001)).size(), 0u);
  EXPECT_EQ(engine.inspect(tcp_payload("MARKER here", 50002)).size(), 1u);
}

TEST(IdsRuleOptions, OffsetAndDepthConstrainPosition) {
  std::vector<std::string> errors;
  // Pattern must start at byte >= 4 and end within the first 4+12 bytes.
  auto rules = svc::ids::parse_rules("5003 pos tcp 80 4 EVIL offset=4,depth=12\n", errors);
  ASSERT_TRUE(errors.empty());
  svc::ids::IdsEngine engine(std::move(rules));
  EXPECT_EQ(engine.inspect(tcp_payload("EVIL too early", 50001)).size(), 0u);   // starts at 0
  EXPECT_EQ(engine.inspect(tcp_payload("xxxxEVIL okay", 50002)).size(), 1u);    // starts at 4
  EXPECT_EQ(engine.inspect(tcp_payload("xxxxxxxxxxxxxxxxEVIL", 50003)).size(), 0u);  // too deep
}

TEST(IdsRuleOptions, OffsetAppliesAcrossPacketsInStream) {
  std::vector<std::string> errors;
  auto rules = svc::ids::parse_rules("5004 deep tcp 80 4 NEEDLE offset=10\n", errors);
  svc::ids::IdsEngine engine(std::move(rules));
  // 8 bytes in packet 1, NEEDLE begins at stream offset 8+4=12 >= 10.
  EXPECT_EQ(engine.inspect(tcp_payload("12345678", 50001)).size(), 0u);
  EXPECT_EQ(engine.inspect(tcp_payload("xxxxNEEDLE", 50001)).size(), 1u);
}

// --- event store persistence (EventPipeline whole-store codec) -----------------------

TEST(EventStorePersistence, SerializeDeserializeRoundTrip) {
  mon::EventPipeline store;
  for (int i = 0; i < 50; ++i) {
    mon::NetworkEvent e;
    e.time = i * 10;
    e.type = static_cast<mon::EventType>(1 + (i % 12));
    e.set_subject("subject-" + std::to_string(i));
    e.set_detail("detail \"quoted\" #" + std::to_string(i));
    e.dpid = static_cast<DatapathId>(i % 5);
    e.severity = static_cast<std::uint8_t>(i % 10);
    store.append(std::move(e));
  }
  const auto blob = store.serialize();
  const auto restored = mon::EventPipeline::deserialize(blob);
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), 50u);
  const auto original = store.query_range(0, 1000);
  const auto rows = restored->query_range(0, 1000);
  ASSERT_EQ(rows.size(), 50u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(rows[i].id, original[i].id);
    EXPECT_EQ(rows[i].time, original[i].time);
    EXPECT_EQ(rows[i].type, original[i].type);
    EXPECT_EQ(rows[i].subject_string(), original[i].subject_string());
    EXPECT_EQ(rows[i].detail_string(), original[i].detail_string());
  }
  // Appending after restore continues the id sequence.
  mon::EventPipeline writable = *restored;
  mon::NetworkEvent fresh;
  fresh.time = 1000;
  EXPECT_GT(writable.append(std::move(fresh)), original.back().id);
}

TEST(EventStorePersistence, RejectsCorruptBlobs) {
  mon::EventPipeline store;
  mon::NetworkEvent e;
  e.set_subject("x");
  store.append(std::move(e));
  auto blob = store.serialize();

  auto bad_magic = blob;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(mon::EventPipeline::deserialize(bad_magic).has_value());

  auto truncated = blob;
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(mon::EventPipeline::deserialize(truncated).has_value());

  auto trailing = blob;
  trailing.push_back(0);
  EXPECT_FALSE(mon::EventPipeline::deserialize(trailing).has_value());
}

// --- statistics polling -------------------------------------------------------------

TEST(StatsPolling, BuildsPerSwitchLoadView) {
  ctrl::Controller::Config config;
  config.stats_interval = 500 * kMillisecond;
  net::Network network(config);
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs1 = network.add_as_switch("ovs1", backbone);
  auto& ovs2 = network.add_as_switch("ovs2", backbone);
  (void)ovs2;
  auto& a = network.add_host("a", ovs1);
  auto& b = network.add_host("b", ovs1);
  network.start();

  net::UdpCbrApp app(a, {.dst = b.ip(), .rate_bps = 20e6, .duration = 3 * kSecond});
  app.start();
  network.run_for(4 * kSecond);

  const auto* load = network.controller().switch_load(1);
  ASSERT_NE(load, nullptr);
  EXPECT_GT(load->total_packets, 0u);
  EXPECT_GT(load->bits_per_second, 10e6);
  EXPECT_LT(load->bits_per_second, 50e6);
  EXPECT_GE(load->flow_count, 1u);
}

// --- SE migration --------------------------------------------------------------------

TEST(Migration, SeMigratesAndTrafficFollows) {
  net::Network network;
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs1 = network.add_as_switch("ovs1", backbone);
  auto& ovs2 = network.add_as_switch("ovs2", backbone);
  auto& ovs3 = network.add_as_switch("ovs3", backbone);
  auto& ids = network.add_service_element(svc::ServiceType::kIntrusionDetection, ovs2);

  ctrl::Policy policy;
  policy.nw_proto = static_cast<std::uint8_t>(pkt::IpProto::kUdp);
  policy.action = ctrl::PolicyAction::kRedirect;
  policy.service_chain = {svc::ServiceType::kIntrusionDetection};
  network.controller().policies().add(policy);

  auto& a = network.add_host("a", ovs1);
  auto& b = network.add_host("b", ovs3);
  network.start();

  net::UdpCbrApp app(a, {.dst = b.ip(), .rate_bps = 5e6, .duration = 6 * kSecond});
  app.start();
  network.run_for(2 * kSecond);
  const auto rx_before = b.rx_ip_packets();
  EXPECT_GT(rx_before, 0u);
  EXPECT_EQ(network.controller().services().find(ids.se_id())->dpid, 2u);

  // Live-migrate the IDS VM from ovs2 to ovs3 mid-traffic.
  network.migrate_service_element(ids, ovs3);
  network.run_for(3 * kSecond);

  // The controller noticed, re-routed, and traffic kept flowing via the SE.
  EXPECT_EQ(network.controller().services().find(ids.se_id())->dpid, 3u);
  EXPECT_GE(network.controller()
                .events()
                .query_type(mon::EventType::kSeMigrated, 0, INT64_MAX)
                .size(),
            1u);
  EXPECT_GT(b.rx_ip_packets(), rx_before);
}

TEST(Migration, HostMobilityTearsDownAndRecovers) {
  net::Network network;
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs1 = network.add_as_switch("ovs1", backbone);
  auto& ovs2 = network.add_as_switch("ovs2", backbone);
  auto& ovs3 = network.add_as_switch("ovs3", backbone);
  auto& roamer = network.add_host("roamer", ovs1);
  auto& peer = network.add_host("peer", ovs2);
  network.start();

  net::UdpCbrApp app(roamer, {.dst = peer.ip(), .rate_bps = 5e6, .duration = 6 * kSecond});
  app.start();
  network.run_for(2 * kSecond);
  const auto rx_before = peer.rx_ip_packets();
  EXPECT_GT(rx_before, 0u);

  network.move_host(roamer, ovs3);
  network.run_for(3 * kSecond);

  EXPECT_GT(peer.rx_ip_packets(), rx_before);  // traffic resumed from ovs3
  EXPECT_GE(network.controller()
                .events()
                .query_type(mon::EventType::kHostMoved, 0, INT64_MAX)
                .size(),
            1u);
  const auto* loc = network.controller().routing().find(roamer.mac());
  ASSERT_NE(loc, nullptr);
  EXPECT_EQ(loc->dpid, 3u);
}

}  // namespace
}  // namespace livesec
