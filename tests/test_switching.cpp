// Unit tests for the switching layer: legacy learning switch, spanning tree,
// OpenFlow datapath, Wi-Fi AP radio contention.
#include <gtest/gtest.h>

#include <functional>

#include "openflow/channel.h"
#include "sim/simulator.h"
#include "switching/ethernet_switch.h"
#include "switching/openflow_switch.h"
#include "switching/spanning_tree.h"
#include "switching/wifi_ap.h"

namespace livesec::sw {
namespace {

class Endpoint : public sim::Node {
 public:
  Endpoint(sim::Simulator& sim, std::string name) : Node(sim, std::move(name)) { add_port(); }
  void handle_packet(PortId, pkt::PacketPtr packet) override {
    if (on_receive) on_receive(*packet);
    times.push_back(simulator().now());
    received.push_back(packet);
  }
  void emit(pkt::PacketPtr p) { send(0, std::move(p)); }
  std::vector<pkt::PacketPtr> received;
  std::vector<SimTime> times;  // sim time of each handle_packet
  std::function<void(const pkt::Packet&)> on_receive;
};

/// Serialization time of `p` at `bps`, rounded as sim::Link rounds it.
SimTime wire_time(const pkt::PacketPtr& p, double bps) {
  return static_cast<SimTime>(static_cast<double>(p->wire_size()) * 8.0 / bps * kSecond);
}

/// sim::Link's default propagation delay.
constexpr SimTime kPropagation = 5 * kMicrosecond;

pkt::PacketPtr frame(std::uint64_t src, std::uint64_t dst, std::size_t payload = 100) {
  return pkt::PacketBuilder()
      .eth(MacAddress::from_uint64(src), MacAddress::from_uint64(dst))
      .ipv4(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2), pkt::IpProto::kUdp)
      .udp(1, 2)
      .payload_size(payload)
      .finalize();
}

struct LegacyFixture {
  sim::Simulator sim;
  EthernetSwitch sw{sim, "legacy"};
  Endpoint a{sim, "a"}, b{sim, "b"}, c{sim, "c"};
  std::vector<std::unique_ptr<sim::Link>> links;

  LegacyFixture() {
    links.push_back(sim::connect(sim, a.port(0), sw.add_port()));
    links.push_back(sim::connect(sim, b.port(0), sw.add_port()));
    links.push_back(sim::connect(sim, c.port(0), sw.add_port()));
  }
};

TEST(EthernetSwitch, FloodsUnknownUnicastThenLearns) {
  LegacyFixture f;
  f.a.emit(frame(1, 2));  // dst unknown: flood to b and c
  f.sim.run();
  EXPECT_EQ(f.b.received.size(), 1u);
  EXPECT_EQ(f.c.received.size(), 1u);
  EXPECT_EQ(f.sw.flooded_packets(), 1u);

  f.b.emit(frame(2, 1));  // a was learned: unicast only
  f.sim.run();
  EXPECT_EQ(f.a.received.size(), 1u);
  EXPECT_EQ(f.c.received.size(), 1u);  // unchanged
  EXPECT_EQ(f.sw.forwarded_packets(), 1u);

  f.a.emit(frame(1, 2));  // b now learned too
  f.sim.run();
  EXPECT_EQ(f.b.received.size(), 2u);
  EXPECT_EQ(f.c.received.size(), 1u);
}

TEST(EthernetSwitch, BroadcastAlwaysFloods) {
  LegacyFixture f;
  f.a.emit(frame(1, 0xFFFFFFFFFFFF));
  f.sim.run();
  EXPECT_EQ(f.b.received.size(), 1u);
  EXPECT_EQ(f.c.received.size(), 1u);
  EXPECT_EQ(f.a.received.size(), 0u);  // not back out the ingress
}

TEST(EthernetSwitch, BlockedPortDropsBothDirections) {
  LegacyFixture f;
  f.sw.set_port_blocked(2, true);  // c's port
  f.a.emit(frame(1, 0xFFFFFFFFFFFF));
  f.sim.run();
  EXPECT_EQ(f.b.received.size(), 1u);
  EXPECT_EQ(f.c.received.size(), 0u);

  f.c.emit(frame(3, 1));  // ingress on blocked port: dropped
  f.sim.run();
  EXPECT_EQ(f.a.received.size(), 0u);
  EXPECT_EQ(f.sw.learned_port(MacAddress::from_uint64(3)), kInvalidPort);
}

TEST(EthernetSwitch, MacAgingForgetsIdleHosts) {
  sim::Simulator sim;
  EthernetSwitch::Config config;
  config.mac_aging = 1 * kSecond;
  EthernetSwitch sw(sim, "legacy", config);
  Endpoint a(sim, "a"), b(sim, "b");
  auto l1 = sim::connect(sim, a.port(0), sw.add_port());
  auto l2 = sim::connect(sim, b.port(0), sw.add_port());

  a.emit(frame(1, 2));
  sim.run();
  EXPECT_EQ(sw.learned_port(MacAddress::from_uint64(1)), 0u);
  sim.run_until(sim.now() + 2 * kSecond);
  EXPECT_EQ(sw.learned_port(MacAddress::from_uint64(1)), kInvalidPort);
}

TEST(EthernetSwitch, DoesNotLearnMulticastSources) {
  LegacyFixture f;
  f.a.emit(frame(0xFFFFFFFFFFFF, 2));
  f.sim.run();
  EXPECT_EQ(f.sw.learned_port(MacAddress::broadcast()), kInvalidPort);
}

// --- SpanningTree ---------------------------------------------------------------

TEST(SpanningTree, TriangleBlocksExactlyOneEdge) {
  SpanningTree graph;
  graph.add_edge({{0, 0}, {1, 0}, 1});
  graph.add_edge({{1, 1}, {2, 0}, 1});
  graph.add_edge({{2, 1}, {0, 1}, 1});
  EXPECT_TRUE(graph.connected());
  EXPECT_EQ(graph.compute_tree().size(), 2u);
  EXPECT_EQ(graph.compute_blocked().size(), 1u);
}

TEST(SpanningTree, TreeTopologyBlocksNothing) {
  SpanningTree graph;
  graph.add_edge({{0, 0}, {1, 0}, 1});
  graph.add_edge({{1, 1}, {2, 0}, 1});
  graph.add_edge({{1, 2}, {3, 0}, 1});
  EXPECT_TRUE(graph.connected());
  EXPECT_TRUE(graph.compute_blocked().empty());
}

TEST(SpanningTree, DisconnectedGraphDetected) {
  SpanningTree graph;
  graph.add_edge({{0, 0}, {1, 0}, 1});
  graph.add_node(5);
  EXPECT_FALSE(graph.connected());
}

TEST(SpanningTree, PrefersLowerCostEdges) {
  SpanningTree graph;
  graph.add_edge({{0, 0}, {1, 0}, 10});  // expensive
  graph.add_edge({{0, 1}, {2, 0}, 1});
  graph.add_edge({{2, 1}, {1, 1}, 1});
  const auto blocked = graph.compute_blocked();
  ASSERT_EQ(blocked.size(), 1u);
  EXPECT_EQ(blocked[0].cost, 10u);
}

// Property sweep: on K_n (complete graph), exactly n-1 edges survive and the
// blocked count is n(n-1)/2 - (n-1), for a range of n.
class SpanningTreeComplete : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SpanningTreeComplete, KeepsExactlyNMinusOneEdges) {
  const std::uint32_t n = GetParam();
  SpanningTree graph;
  std::uint32_t port_counter = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      graph.add_edge({{i, port_counter++}, {j, port_counter++}, 1});
    }
  }
  EXPECT_TRUE(graph.connected());
  EXPECT_EQ(graph.compute_tree().size(), n - 1);
  EXPECT_EQ(graph.compute_blocked().size(), n * (n - 1) / 2 - (n - 1));
}

INSTANTIATE_TEST_SUITE_P(CompleteGraphs, SpanningTreeComplete, ::testing::Values(2, 3, 5, 8, 12));

// --- OpenFlowSwitch ----------------------------------------------------------------

class RecordingController : public of::ControllerEndpoint {
 public:
  void handle_switch_message(DatapathId dpid, const of::Message& m) override {
    messages.emplace_back(dpid, m);
  }
  void handle_switch_connected(DatapathId dpid, const of::FeaturesReply& f) override {
    connected.emplace_back(dpid, f);
  }
  void handle_switch_disconnected(DatapathId) override {}
  std::vector<std::pair<DatapathId, of::Message>> messages;
  std::vector<std::pair<DatapathId, of::FeaturesReply>> connected;

  const of::PacketIn* last_packet_in() const {
    for (auto it = messages.rbegin(); it != messages.rend(); ++it) {
      if (const auto* pin = std::get_if<of::PacketIn>(&it->second)) return pin;
    }
    return nullptr;
  }
};

struct OfFixture {
  sim::Simulator sim;
  OpenFlowSwitch sw{sim, "ovs", 1};
  RecordingController controller;
  of::SecureChannel channel{sim, sw, controller};
  Endpoint host{sim, "host"}, peer{sim, "peer"};
  std::vector<std::unique_ptr<sim::Link>> links;

  OfFixture() {
    links.push_back(sim::connect(sim, host.port(0), sw.add_port(PortRole::kNetworkPeriphery)));
    links.push_back(sim::connect(sim, peer.port(0), sw.add_port(PortRole::kLegacySwitching)));
    sw.connect_controller(channel);
    sim.run();
  }
};

TEST(OpenFlowSwitch, HandshakeAnnouncesFeatures) {
  OfFixture f;
  ASSERT_EQ(f.controller.connected.size(), 1u);
  EXPECT_EQ(f.controller.connected[0].first, 1u);
  EXPECT_EQ(f.controller.connected[0].second.num_ports, 2u);
}

TEST(OpenFlowSwitch, NpMissPuntsToController) {
  OfFixture f;
  f.host.emit(frame(1, 2));
  f.sim.run();
  const of::PacketIn* pin = f.controller.last_packet_in();
  ASSERT_NE(pin, nullptr);
  EXPECT_EQ(pin->in_port, 0u);
  EXPECT_EQ(f.sw.packet_ins_sent(), 1u);
}

TEST(OpenFlowSwitch, LsMissDropsSilently) {
  OfFixture f;
  f.peer.emit(frame(5, 6));
  f.sim.run();
  EXPECT_EQ(f.sw.packet_ins_sent(), 0u);
  EXPECT_EQ(f.sw.miss_drops(), 1u);
}

TEST(OpenFlowSwitch, LldpFromLsPortStillPunts) {
  OfFixture f;
  pkt::Packet lldp;
  lldp.eth.src = MacAddress::from_uint64(9);
  lldp.eth.dst = MacAddress::from_uint64(0x0180c200000e);
  lldp.eth.ether_type = static_cast<std::uint16_t>(pkt::EtherType::kLldp);
  f.peer.emit(pkt::finalize(std::move(lldp)));
  f.sim.run();
  EXPECT_EQ(f.sw.packet_ins_sent(), 1u);
}

TEST(OpenFlowSwitch, InstalledEntryForwardsWithoutController) {
  OfFixture f;
  auto p = frame(1, 2);
  of::FlowMod mod;
  mod.entry.match = of::Match::exact(0, pkt::FlowKey::from_packet(*p));
  mod.entry.actions = of::output_to(1);
  f.channel.send_to_switch(mod);
  f.sim.run();

  f.host.emit(p);
  f.sim.run();
  EXPECT_EQ(f.peer.received.size(), 1u);
  EXPECT_EQ(f.sw.packet_ins_sent(), 0u);
}

TEST(OpenFlowSwitch, SetDlDstRewritesBeforeOutput) {
  OfFixture f;
  auto p = frame(1, 2);
  const MacAddress se_mac = MacAddress::from_uint64(0x5E);
  of::FlowMod mod;
  mod.entry.match = of::Match::exact(0, pkt::FlowKey::from_packet(*p));
  mod.entry.actions = {of::ActionSetDlDst{se_mac}, of::ActionOutput{1}};
  f.channel.send_to_switch(mod);
  f.sim.run();

  f.host.emit(p);
  f.sim.run();
  ASSERT_EQ(f.peer.received.size(), 1u);
  EXPECT_EQ(f.peer.received[0]->eth.dst, se_mac);
  EXPECT_EQ(p->eth.dst, MacAddress::from_uint64(2));  // original untouched
}

TEST(OpenFlowSwitch, UniquelyHeldPacketIsRewrittenInPlace) {
  OfFixture f;
  auto p = frame(1, 2);
  const MacAddress se_mac = MacAddress::from_uint64(0x5E);
  of::FlowMod mod;
  mod.entry.match = of::Match::exact(0, pkt::FlowKey::from_packet(*p));
  mod.entry.actions = {of::ActionSetDlSrc{se_mac}, of::ActionSetDlDst{se_mac},
                       of::ActionOutput{1}};
  f.channel.send_to_switch(mod);
  f.sim.run();

  // Nothing but the hop holds the packet, so no copy is made.
  const pkt::Packet* sent = p.get();
  f.host.emit(std::move(p));
  f.sim.run();
  ASSERT_EQ(f.peer.received.size(), 1u);
  EXPECT_EQ(f.peer.received[0].get(), sent);
  EXPECT_EQ(f.peer.received[0]->eth.src, se_mac);
  EXPECT_EQ(f.peer.received[0]->eth.dst, se_mac);
}

TEST(OpenFlowSwitch, RewriteAfterOutputLeavesTheSentPacketAlone) {
  sim::Simulator sim;
  OpenFlowSwitch sw(sim, "ovs", 1);
  RecordingController controller;
  of::SecureChannel channel(sim, sw, controller);
  Endpoint host(sim, "host"), one(sim, "one"), two(sim, "two");
  std::vector<std::unique_ptr<sim::Link>> links;
  links.push_back(sim::connect(sim, host.port(0), sw.add_port(PortRole::kNetworkPeriphery)));
  links.push_back(sim::connect(sim, one.port(0), sw.add_port(PortRole::kLegacySwitching)));
  links.push_back(sim::connect(sim, two.port(0), sw.add_port(PortRole::kLegacySwitching)));
  sw.connect_controller(channel);
  sim.run();

  auto p = frame(1, 2);
  const MacAddress a = MacAddress::from_uint64(0xA);
  const MacAddress b = MacAddress::from_uint64(0xB);
  of::FlowMod mod;
  mod.entry.match = of::Match::exact(0, pkt::FlowKey::from_packet(*p));
  mod.entry.actions = {of::ActionSetDlDst{a}, of::ActionOutput{1}, of::ActionSetDlDst{b},
                       of::ActionOutput{2}};
  channel.send_to_switch(mod);
  sim.run();

  host.emit(std::move(p));
  sim.run();
  ASSERT_EQ(one.received.size(), 1u);
  ASSERT_EQ(two.received.size(), 1u);
  EXPECT_EQ(one.received[0]->eth.dst, a);
  EXPECT_EQ(two.received[0]->eth.dst, b);
  EXPECT_NE(one.received[0].get(), two.received[0].get());
}

TEST(OpenFlowSwitch, DropActionDiscards) {
  OfFixture f;
  auto p = frame(1, 2);
  of::FlowMod mod;
  mod.entry.match = of::Match::exact(0, pkt::FlowKey::from_packet(*p));
  mod.entry.actions = of::drop();
  f.channel.send_to_switch(mod);
  f.sim.run();

  f.host.emit(p);
  f.sim.run();
  EXPECT_EQ(f.peer.received.size(), 0u);
  EXPECT_EQ(f.sw.packet_ins_sent(), 0u);
}

TEST(OpenFlowSwitch, FlowModReleasesBufferedPacket) {
  OfFixture f;
  f.host.emit(frame(1, 2));
  f.sim.run();
  const of::PacketIn* pin = f.controller.last_packet_in();
  ASSERT_NE(pin, nullptr);

  of::FlowMod mod;
  mod.entry.match = of::Match::exact(0, pkt::FlowKey::from_packet(*pin->packet));
  mod.entry.actions = of::output_to(1);
  mod.buffer_id = pin->buffer_id;
  f.channel.send_to_switch(mod);
  f.sim.run();
  EXPECT_EQ(f.peer.received.size(), 1u);  // the first packet was not lost
}

TEST(OpenFlowSwitch, PacketOutInjects) {
  OfFixture f;
  of::PacketOut out;
  out.actions = of::output_to(0);
  out.packet = frame(7, 1);
  f.channel.send_to_switch(out);
  f.sim.run();
  EXPECT_EQ(f.host.received.size(), 1u);
}

TEST(OpenFlowSwitch, FlowRemovedNotifiesController) {
  OfFixture f;
  auto p = frame(1, 2);
  of::FlowMod mod;
  mod.entry.match = of::Match::exact(0, pkt::FlowKey::from_packet(*p));
  mod.entry.actions = of::output_to(1);
  mod.entry.idle_timeout = 10 * kMillisecond;
  mod.entry.cookie = 0xC00CE;
  f.channel.send_to_switch(mod);
  f.sim.run();
  f.host.emit(p);
  f.sim.run();

  // Another miss later forces a lookup that lazily expires the idle entry.
  f.sim.run_until(f.sim.now() + 1 * kSecond);
  f.host.emit(frame(1, 3));
  f.sim.run();

  bool saw_removed = false;
  for (const auto& [dpid, m] : f.controller.messages) {
    if (const auto* removed = std::get_if<of::FlowRemoved>(&m)) {
      EXPECT_EQ(removed->cookie, 0xC00CEu);
      EXPECT_EQ(removed->packet_count, 1u);
      saw_removed = true;
    }
  }
  EXPECT_TRUE(saw_removed);
}

TEST(OpenFlowSwitch, StatsReplyReportsTable) {
  OfFixture f;
  auto p = frame(1, 2);
  of::FlowMod mod;
  mod.entry.match = of::Match::exact(0, pkt::FlowKey::from_packet(*p));
  mod.entry.actions = of::output_to(1);
  f.channel.send_to_switch(mod);
  f.sim.run();
  f.host.emit(p);
  f.sim.run();

  f.channel.send_to_switch(of::StatsRequest{});
  f.sim.run();
  bool saw_stats = false;
  for (const auto& [dpid, m] : f.controller.messages) {
    if (const auto* stats = std::get_if<of::StatsReply>(&m)) {
      ASSERT_EQ(stats->flows.size(), 1u);
      EXPECT_EQ(stats->flows[0].packet_count, 1u);
      saw_stats = true;
    }
  }
  EXPECT_TRUE(saw_stats);
}

// --- WifiAccessPoint -----------------------------------------------------------------

TEST(WifiAccessPoint, RadioCapsAggregateStationThroughput) {
  sim::Simulator sim;
  WifiAccessPoint ap(sim, "ap", 10);
  RecordingController controller;
  of::SecureChannel channel(sim, ap, controller);

  Endpoint sta1(sim, "sta1"), sta2(sim, "sta2"), uplink(sim, "uplink");
  std::vector<std::unique_ptr<sim::Link>> links;
  links.push_back(sim::connect(sim, sta1.port(0), ap.add_station_port()));
  links.push_back(sim::connect(sim, sta2.port(0), ap.add_station_port()));
  links.push_back(sim::connect(sim, uplink.port(0), ap.add_uplink_port()));
  ap.connect_controller(channel);
  sim.run();

  // Pre-install forwarding for both stations toward the uplink.
  for (auto src : {1, 2}) {
    auto p = frame(static_cast<std::uint64_t>(src), 99, 1400);
    of::FlowMod mod;
    mod.entry.match = of::Match::exact(static_cast<PortId>(src - 1),
                                       pkt::FlowKey::from_packet(*p));
    mod.entry.actions = of::output_to(2);
    channel.send_to_switch(mod);
  }
  sim.run();

  std::uint64_t offered_bytes = 0;
  for (int i = 0; i < 200; ++i) {
    auto p1 = frame(1, 99, 1400);
    auto p2 = frame(2, 99, 1400);
    offered_bytes += p1->wire_size() + p2->wire_size();
    sta1.emit(std::move(p1));
    sta2.emit(std::move(p2));
  }
  sim.run();
  ASSERT_EQ(uplink.received.size(), 400u);
  const double rate = static_cast<double>(offered_bytes) * 8.0 / to_seconds(sim.now());
  // Aggregate throughput must be pinned near the 43 Mbps radio, not 2x.
  EXPECT_LT(rate, 46e6);
  EXPECT_GT(rate, 38e6);
}

// --- Per-hop pipeline timing ------------------------------------------------------
// A switch's pipeline cost (processing_delay / forwarding_delay) sits between
// a packet's arrival and its table lookup or MAC learn. These tests pin the
// observable timing, not how the kernel schedules it.

TEST(EthernetSwitch, LearnsSourceBeforeForwarding) {
  LegacyFixture f;
  PortId learned_at_delivery = kInvalidPort;
  f.b.on_receive = [&](const pkt::Packet&) {
    learned_at_delivery = f.sw.learned_port(MacAddress::from_uint64(1));
  };
  auto p = frame(1, 2);
  f.a.emit(p);  // unknown destination: flood
  f.sim.run();
  EXPECT_EQ(learned_at_delivery, 0u);
  ASSERT_EQ(f.b.times.size(), 1u);
  const SimTime hop = wire_time(p, 1e9) + kPropagation;
  EXPECT_EQ(f.b.times[0], hop + EthernetSwitch::Config{}.forwarding_delay + hop);

  f.b.emit(frame(2, 1));  // learned: unicast back to a only
  f.sim.run();
  EXPECT_EQ(f.a.received.size(), 1u);
  EXPECT_EQ(f.c.received.size(), 1u);
}

TEST(OpenFlowSwitch, ForwardsAfterProcessingDelay) {
  OfFixture f;
  auto p = frame(1, 2);
  of::FlowMod mod;
  mod.entry.match = of::Match::exact(0, pkt::FlowKey::from_packet(*p));
  mod.entry.actions = of::output_to(1);
  f.channel.send_to_switch(mod);
  f.sim.run();

  const SimTime sent = f.sim.now();
  f.host.emit(p);
  f.sim.run();
  ASSERT_EQ(f.peer.times.size(), 1u);
  const SimTime hop = wire_time(p, 1e9) + kPropagation;
  EXPECT_EQ(f.peer.times[0], sent + hop + OpenFlowSwitch::Config{}.processing_delay + hop);
  EXPECT_EQ(f.sw.port(0).rx_packets(), 1u);
  EXPECT_EQ(f.sw.port(1).tx_packets(), 1u);
}

TEST(OpenFlowSwitch, FlowModInsideProcessingWindowAppliesToPacket) {
  // The packet arrives at A and is looked up at A + processing_delay; a
  // FlowMod landing in between already governs it, one landing after does
  // not.
  const auto run = [](SimTime flow_mod_after_arrival) {
    OfFixture f;
    auto p = frame(1, 2);
    of::FlowMod mod;
    mod.entry.match = of::Match::exact(0, pkt::FlowKey::from_packet(*p));
    mod.entry.actions = of::output_to(1);
    const SimTime lands = f.sim.now() + f.channel.latency();
    const SimTime arrival = lands - flow_mod_after_arrival;
    f.channel.send_to_switch(mod);
    f.sim.schedule_at(arrival - wire_time(p, 1e9) - kPropagation, [&f, p] { f.host.emit(p); });
    f.sim.run();
    return std::pair{f.peer.received.size(), f.sw.packet_ins_sent()};
  };
  const SimTime window = OpenFlowSwitch::Config{}.processing_delay;
  EXPECT_EQ(run(window / 2), std::pair(std::size_t{1}, std::uint64_t{0}));
  EXPECT_EQ(run(window - 1), std::pair(std::size_t{1}, std::uint64_t{0}));
  EXPECT_EQ(run(window + 1), std::pair(std::size_t{0}, std::uint64_t{1}));
}

TEST(OpenFlowSwitch, TailDropMatchesZeroDelaySink) {
  // Same burst into a 25 us switch and into a zero-delay endpoint: a
  // 3.5 KB queue, a back-to-back burst of 8 (tail drops), then one packet
  // every 10 us (no drops: each arrives ~13 us after it is sent). The
  // backlog counts a packet until its arrival, whatever the receiver's
  // pipeline cost.
  struct Outcome {
    std::uint64_t dropped;
    std::vector<std::size_t> backlog;
    bool operator==(const Outcome&) const = default;
  };
  const auto run = [](auto make_sink) {
    sim::Simulator sim;
    Endpoint src(sim, "src");
    auto sink = make_sink(sim);
    sim::Link::Config config;
    config.max_queue_bytes = 3500;
    auto link = sim::connect(sim, src.port(0), sink->port(0), config);
    Outcome out;
    for (int i = 0; i < 8; ++i) src.emit(frame(1, 2, 1000));
    for (int i = 0; i < 40; ++i) {
      const SimTime at = 100 * kMicrosecond + i * 10 * kMicrosecond;
      sim.schedule_at(at, [&src] { src.emit(frame(1, 2, 1000)); });
      sim.schedule_at(at + kMicrosecond, [&] { out.backlog.push_back(link->backlog_bytes(0)); });
    }
    sim.run();
    out.dropped = link->dropped_packets();
    return out;
  };
  const Outcome plain =
      run([](sim::Simulator& sim) { return std::make_unique<Endpoint>(sim, "sink"); });
  const Outcome pipelined = run([](sim::Simulator& sim) {
    auto sw = std::make_unique<OpenFlowSwitch>(sim, "ovs", 1);
    sw->add_port(PortRole::kLegacySwitching);
    return sw;
  });
  EXPECT_EQ(plain.dropped, 5u);  // 3 of the burst fit in 3.5 KB
  ASSERT_EQ(plain.backlog.size(), 40u);
  EXPECT_EQ(plain.backlog.back(), 2 * frame(1, 2, 1000)->wire_size());
  EXPECT_EQ(pipelined, plain);
}

TEST(WifiAccessPoint, StationFrameProcessedAfterRadioThenPipeline) {
  sim::Simulator sim;
  WifiAccessPoint ap(sim, "ap", 10);
  RecordingController controller;
  of::SecureChannel channel(sim, ap, controller);
  Endpoint sta(sim, "sta"), uplink(sim, "uplink");
  std::vector<std::unique_ptr<sim::Link>> links;
  links.push_back(sim::connect(sim, sta.port(0), ap.add_station_port()));
  links.push_back(sim::connect(sim, uplink.port(0), ap.add_uplink_port()));
  ap.connect_controller(channel);
  auto p = frame(1, 99, 1400);
  of::FlowMod mod;
  mod.entry.match = of::Match::exact(0, pkt::FlowKey::from_packet(*p));
  mod.entry.actions = of::output_to(1);
  channel.send_to_switch(mod);
  sim.run();

  // Two back-to-back frames: the second waits for the radio behind the
  // first, then both pay the AP's processing delay.
  const SimTime sent = sim.now();
  sta.emit(p);
  sta.emit(p);
  sim.run();
  ASSERT_EQ(uplink.times.size(), 2u);
  const WifiAccessPoint::WifiConfig wifi;
  const SimTime wire = wire_time(p, 1e9);
  const SimTime air = wire_time(p, wifi.radio_bps);
  const SimTime arrival = sent + wire + kPropagation;
  const SimTime radio_busy_until_1 = arrival + air;
  const SimTime radio_busy_until_2 = radio_busy_until_1 + air;
  const SimTime processing = wifi.switch_config.processing_delay;
  EXPECT_EQ(uplink.times[0], radio_busy_until_1 + processing + wire + kPropagation);
  EXPECT_EQ(uplink.times[1], radio_busy_until_2 + processing + wire + kPropagation);
}

}  // namespace
}  // namespace livesec::sw
