// Control-plane fast-path regressions: the flow-decision cache must never
// replay a decision whose inputs changed (policy mutation, host move, SE
// offline, switch disconnect, mirror-port change), duplicate packet-ins must
// collapse into one computation, and the fast-path counters must surface
// all of it. Also: every ingress drop the controller sends is bounded.
#include <gtest/gtest.h>

#include <optional>

#include "controller/controller.h"
#include "openflow/channel.h"
#include "packet/packet.h"
#include "services/message.h"
#include "services/service_element.h"
#include "sim/simulator.h"
#include "switching/openflow_switch.h"
#include "topology/lldp.h"

namespace livesec {
namespace {

/// Records every FlowMod (batched ones flattened) and PacketOut the
/// controller pushes, so tests can count installs and buffered releases.
class RecordingSwitch : public of::SwitchEndpoint {
 public:
  explicit RecordingSwitch(DatapathId dpid) : dpid_(dpid) {}
  DatapathId datapath_id() const override { return dpid_; }
  void handle_controller_message(const of::Message& m) override {
    if (const auto* fm = std::get_if<of::FlowMod>(&m)) {
      flow_mods.push_back(*fm);
    } else if (const auto* batch = std::get_if<of::FlowModBatch>(&m)) {
      flow_mods.insert(flow_mods.end(), batch->mods.begin(), batch->mods.end());
    } else if (std::get_if<of::PacketOut>(&m) != nullptr) {
      ++packet_outs;
    }
  }

  std::size_t adds() const {
    std::size_t n = 0;
    for (const auto& fm : flow_mods) {
      if (fm.command == of::FlowModCommand::kAdd) ++n;
    }
    return n;
  }

  std::vector<of::FlowMod> flow_mods;
  std::size_t packet_outs = 0;

 private:
  DatapathId dpid_;
};

pkt::PacketPtr gratuitous_arp(MacAddress mac, Ipv4Address ip) {
  return pkt::PacketBuilder()
      .eth(mac, MacAddress::from_uint64(0xFFFFFFFFFFFFull))
      .arp(pkt::ArpOp::kRequest, mac, ip, MacAddress{}, ip)
      .finalize();
}

/// Two AS switches wired straight to a controller through recording
/// channels. Runs the clock in bounded steps so it stays usable after
/// start_housekeeping() makes the event queue self-refilling.
struct FastPathHarness {
  sim::Simulator sim;
  ctrl::Controller controller{sim};
  RecordingSwitch sw1{1};
  RecordingSwitch sw2{2};
  of::SecureChannel ch1{sim, sw1, controller, 10 * kMicrosecond};
  of::SecureChannel ch2{sim, sw2, controller, 10 * kMicrosecond};

  MacAddress alice_mac = MacAddress::from_uint64(0xA11CE);
  MacAddress bob_mac = MacAddress::from_uint64(0xB0B);
  Ipv4Address alice_ip{10, 0, 0, 1};
  Ipv4Address bob_ip{10, 0, 0, 2};

  FastPathHarness() {
    controller.attach_channel(1, ch1);
    controller.attach_channel(2, ch2);
    ch1.connect(of::FeaturesReply{1, 8, "sw1"});
    ch2.connect(of::FeaturesReply{2, 8, "sw2"});
    settle();
  }

  void settle() { sim.run_until(sim.now() + 100 * kMillisecond); }

  void packet_in(of::SecureChannel& ch, PortId in_port, pkt::PacketPtr packet) {
    of::PacketIn pin;
    pin.in_port = in_port;
    pin.packet = std::move(packet);
    ch.send_to_controller(std::move(pin));
    settle();
  }

  void lldp(of::SecureChannel& ch, PortId in_port, DatapathId peer, PortId peer_port) {
    topo::LldpInfo info;
    info.chassis_id = peer;
    info.port_id = peer_port;
    packet_in(ch, in_port, pkt::finalize(info.to_packet()));
  }

  /// Discovers the LS uplinks and announces both hosts.
  void bring_up() {
    lldp(ch1, 3, 2, 4);
    lldp(ch2, 4, 1, 3);
    packet_in(ch1, 0, gratuitous_arp(alice_mac, alice_ip));
    packet_in(ch2, 0, gratuitous_arp(bob_mac, bob_ip));
  }

  pkt::PacketPtr flow_packet(std::uint16_t tp_src) {
    return pkt::PacketBuilder()
        .eth(alice_mac, bob_mac)
        .ipv4(alice_ip, bob_ip, pkt::IpProto::kUdp)
        .udp(tp_src, 80)
        .finalize();
  }

  void start_flow(std::uint16_t tp_src) { packet_in(ch1, 0, flow_packet(tp_src)); }

  /// Certified SE online announcement arriving as a daemon packet-in.
  void se_online(std::uint64_t se_id, of::SecureChannel& ch, PortId port, MacAddress mac,
                 Ipv4Address ip,
                 svc::ServiceType service = svc::ServiceType::kIntrusionDetection) {
    svc::OnlineMessage online;
    online.service = service;
    online.capacity_bps = 1'000'000'000;
    daemon(se_id, ch, port, mac, ip, online);
  }

  /// Certified SE daemon message arriving as a packet-in.
  void daemon(std::uint64_t se_id, of::SecureChannel& ch, PortId port, MacAddress mac,
              Ipv4Address ip, decltype(svc::DaemonMessage::body) body) {
    svc::DaemonMessage message;
    message.se_id = se_id;
    message.cert_token = controller.certification().issue(se_id);
    message.body = std::move(body);
    auto p = pkt::PacketBuilder()
                 .eth(mac, svc::controller_service_mac())
                 .ipv4(ip, svc::controller_service_ip(), pkt::IpProto::kUdp)
                 .udp(svc::kLiveSecPort, svc::kLiveSecPort)
                 .payload(pkt::make_payload(message.encode()))
                 .finalize();
    packet_in(ch, port, std::move(p));
  }

  const mon::FastPathCounters& counters() const { return controller.stats().fastpath; }
};

/// The FlowMods `sw` received that turn an entry into a drop.
std::vector<of::FlowMod> drop_mods(const RecordingSwitch& sw) {
  std::vector<of::FlowMod> out;
  for (const of::FlowMod& fm : sw.flow_mods) {
    if (fm.entry.actions == of::drop()) out.push_back(fm);
  }
  return out;
}

TEST(ControllerFastPath, CountersTrackHitsAndMisses) {
  FastPathHarness net;
  net.bring_up();

  net.start_flow(1000);
  EXPECT_EQ(net.counters().decision_cache_misses, 1u);
  EXPECT_EQ(net.counters().decision_cache_hits, 0u);
  EXPECT_EQ(net.controller.decision_cache_size(), 1u);

  // Same class (only tp_src differs): served from the cache.
  net.start_flow(1001);
  net.start_flow(1002);
  EXPECT_EQ(net.counters().decision_cache_misses, 1u);
  EXPECT_EQ(net.counters().decision_cache_hits, 2u);
  EXPECT_EQ(net.controller.decision_cache_size(), 1u);
  EXPECT_EQ(net.controller.stats().flows_installed, 3u);
}

TEST(ControllerFastPath, PolicyMutationInvalidatesCachedDecision) {
  FastPathHarness net;
  net.bring_up();
  net.start_flow(1000);
  net.start_flow(1001);
  ASSERT_EQ(net.counters().decision_cache_hits, 1u);

  // Adding a deny that matches the class must flush the cached allow: the
  // next flow of the class is denied, not installed from the stale entry.
  ctrl::Policy deny;
  deny.priority = 50;
  deny.tp_dst = 80;
  deny.action = ctrl::PolicyAction::kDeny;
  const std::uint32_t deny_id = net.controller.policies().add(deny);
  net.start_flow(1002);
  EXPECT_EQ(net.counters().decision_cache_invalidations, 1u);
  EXPECT_EQ(net.counters().decision_cache_hits, 1u);  // no replay
  EXPECT_EQ(net.controller.stats().flows_denied, 1u);
  EXPECT_EQ(net.controller.stats().flows_installed, 2u);

  // Removing the deny must flush again: the class is allowed once more.
  ASSERT_TRUE(net.controller.policies().remove(deny_id));
  net.start_flow(1003);
  EXPECT_EQ(net.counters().decision_cache_invalidations, 2u);
  EXPECT_EQ(net.controller.stats().flows_installed, 3u);
}

TEST(ControllerFastPath, HostMoveInvalidatesCachedDecision) {
  FastPathHarness net;
  net.bring_up();
  net.start_flow(1000);
  net.start_flow(1001);
  ASSERT_EQ(net.counters().decision_cache_hits, 1u);

  // Bob re-attaches on sw1 port 6. The cached route (via the LS uplink to
  // sw2) is stale; a replay would strand the flow on the old path.
  net.packet_in(net.ch1, 6, gratuitous_arp(net.bob_mac, net.bob_ip));
  net.sw1.flow_mods.clear();
  net.sw2.flow_mods.clear();
  net.start_flow(1002);
  EXPECT_GE(net.counters().decision_cache_invalidations, 1u);
  EXPECT_EQ(net.counters().decision_cache_hits, 1u);  // recomputed, not replayed
  // Both endpoints now hang off sw1: the new path must not touch sw2.
  EXPECT_GT(net.sw1.adds(), 0u);
  EXPECT_EQ(net.sw2.adds(), 0u);
}

TEST(ControllerFastPath, SeOfflineInvalidatesCachedDecision) {
  FastPathHarness net;
  ctrl::Policy redirect;
  redirect.priority = 50;
  redirect.tp_dst = 80;
  redirect.action = ctrl::PolicyAction::kRedirect;
  redirect.service_chain = {svc::ServiceType::kIntrusionDetection};
  redirect.granularity = ctrl::LbGranularity::kPerUser;  // memoizable chain
  net.controller.policies().add(redirect);
  net.bring_up();
  net.se_online(7, net.ch2, 5, MacAddress::from_uint64(0x5E), Ipv4Address(10, 0, 0, 100));

  net.start_flow(1000);
  net.start_flow(1001);
  ASSERT_EQ(net.counters().decision_cache_hits, 1u);
  ASSERT_EQ(net.controller.stats().flows_redirected, 2u);

  // Let liveness housekeeping expire the silent SE (timeout 6s).
  net.controller.start_housekeeping();
  net.sim.run_until(net.sim.now() + 10 * kSecond);
  ASSERT_FALSE(net.controller.events()
                   .query_type(mon::EventType::kSeOffline, 0, INT64_MAX)
                   .empty());

  // The cached chain through the dead SE must not be replayed: the policy
  // fails open and the flow installs without redirection.
  net.start_flow(1002);
  EXPECT_GE(net.counters().decision_cache_invalidations, 1u);
  EXPECT_EQ(net.counters().decision_cache_hits, 1u);
  EXPECT_EQ(net.controller.stats().flows_redirected, 2u);
  EXPECT_EQ(net.controller.stats().flows_installed, 3u);
}

TEST(ControllerFastPath, SwitchDisconnectInvalidatesCachedDecision) {
  FastPathHarness net;
  net.bring_up();
  net.start_flow(1000);
  net.start_flow(1001);
  ASSERT_EQ(net.counters().decision_cache_hits, 1u);

  // Bob's switch dies. Its hosts are forgotten and the cached path through
  // it is invalid; a replay would install entries toward a dead datapath.
  net.ch2.disconnect();
  net.settle();
  net.sw1.flow_mods.clear();
  net.start_flow(1002);
  EXPECT_EQ(net.counters().decision_cache_hits, 1u);  // no replay
  EXPECT_EQ(net.sw1.adds(), 0u);
  // With the destination unknown again, the setup parks instead.
  EXPECT_EQ(net.controller.pending_setup_count(), 1u);
  EXPECT_EQ(net.controller.stats().flows_installed, 2u);
}

TEST(ControllerFastPath, MirrorPortChangesInvalidateCachedDecisions) {
  FastPathHarness net;
  net.bring_up();
  net.start_flow(1000);
  net.start_flow(1001);
  ASSERT_EQ(net.counters().decision_cache_hits, 1u);

  // A cached template lacks the mirror output: the next flow recomputes
  // and its entries on sw1 copy every frame to port 7 first.
  net.controller.set_mirror_port(1, 7);
  net.sw1.flow_mods.clear();
  net.start_flow(1002);
  EXPECT_EQ(net.counters().decision_cache_invalidations, 1u);
  EXPECT_EQ(net.counters().decision_cache_hits, 1u);
  ASSERT_FALSE(net.sw1.flow_mods.empty());
  for (const of::FlowMod& fm : net.sw1.flow_mods) {
    ASSERT_FALSE(fm.entry.actions.empty());
    EXPECT_EQ(fm.entry.actions.front(), of::Action{of::ActionOutput{7}});
  }

  // Clearing it invalidates again: no entry carries the mirror output.
  net.controller.clear_mirror_port(1);
  net.sw1.flow_mods.clear();
  net.start_flow(1003);
  EXPECT_EQ(net.counters().decision_cache_invalidations, 2u);
  EXPECT_EQ(net.counters().decision_cache_hits, 1u);
  ASSERT_FALSE(net.sw1.flow_mods.empty());
  for (const of::FlowMod& fm : net.sw1.flow_mods) {
    for (const of::Action& action : fm.entry.actions) {
      EXPECT_NE(action, of::Action{of::ActionOutput{7}});
    }
  }
}

TEST(IngressDrop, AggregateLimitDropExpiresWhereTheIngressEntryHadGone) {
  FastPathHarness net;
  net.bring_up();
  constexpr auto kApp = svc::l7::AppProtocol::kBitTorrent;
  net.controller.flow_control().set_limit(kApp, 2);
  const MacAddress se_mac = MacAddress::from_uint64(0x5E);
  const Ipv4Address se_ip(10, 0, 0, 100);
  net.se_online(7, net.ch2, 5, se_mac, se_ip, svc::ServiceType::kProtocolIdentification);

  // Two flows identified as BitTorrent; the second reaches the limit.
  const auto identify = [&](std::uint16_t tp_src) {
    svc::EventMessage event;
    event.kind = svc::EventKind::kProtocolIdentified;
    event.rule_id = static_cast<std::uint32_t>(kApp);
    event.flow = pkt::FlowKey::from_packet(*net.flow_packet(tp_src));
    net.daemon(7, net.ch2, 5, se_mac, se_ip, event);
  };
  net.start_flow(1000);
  net.start_flow(1001);
  net.sw1.flow_mods.clear();
  identify(1000);
  EXPECT_TRUE(drop_mods(net.sw1).empty());
  identify(1001);
  const std::vector<of::FlowMod> drops = drop_mods(net.sw1);
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].command, of::FlowModCommand::kModifyStrict);
  const SimTime bound = ctrl::Controller::Config{}.flow_idle_timeout * 3;
  EXPECT_EQ(drops[0].entry.idle_timeout, bound);

  // On a switch whose ingress entry had already idle-expired, the modify
  // falls back to an insert. That drop must expire in turn.
  sim::Simulator sim;
  sw::OpenFlowSwitch ovs(sim, "ovs1", 1);
  ovs.handle_controller_message(of::Message{drops[0]});
  ASSERT_EQ(ovs.flow_table().size(), 1u);
  ovs.flow_table().expire(bound - kSecond);
  EXPECT_EQ(ovs.flow_table().size(), 1u);
  ovs.flow_table().expire(bound);
  EXPECT_EQ(ovs.flow_table().size(), 0u);
}

TEST(IngressDrop, ReconciliationDropExpiresWhereTheForwardingEntryHadGone) {
  FastPathHarness net;
  net.bring_up();
  net.start_flow(1000);
  // The flow's ingress forwarding entry, as the previous active installed it.
  const pkt::FlowKey key = pkt::FlowKey::from_packet(*net.flow_packet(1000));
  const of::Match ingress = of::Match::exact(0, key);
  std::optional<of::FlowEntry> forwarding;
  for (const of::FlowMod& fm : net.sw1.flow_mods) {
    if (fm.command == of::FlowModCommand::kAdd && fm.entry.match == ingress) forwarding = fm.entry;
  }
  ASSERT_TRUE(forwarding.has_value());

  // After a failover the promoted controller knows the flow as blocked, and
  // the audit finds that entry still forwarding: it rewrites it as a drop.
  ASSERT_TRUE(net.controller.apply_replicated(ha::FlowBlockedRecord{key, 1, 0}));
  net.controller.begin_reconciliation();
  net.settle();
  net.sw1.flow_mods.clear();
  of::StatsReply reply;
  reply.flows.push_back(of::FlowStats{forwarding->match, forwarding->priority, 0, 0, false});
  net.ch1.send_to_controller(reply);
  net.settle();
  EXPECT_EQ(net.controller.reconcile_report().drops_reinstalled, 1u);
  const std::vector<of::FlowMod> drops = drop_mods(net.sw1);
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].command, of::FlowModCommand::kModifyStrict);
  EXPECT_EQ(drops[0].entry.match, forwarding->match);
  EXPECT_EQ(drops[0].entry.priority, forwarding->priority);
  const SimTime bound = ctrl::Controller::Config{}.flow_idle_timeout * 3;
  EXPECT_EQ(drops[0].entry.idle_timeout, bound);

  // If the forwarding entry idle-expired before the modify arrived, the
  // modify falls back to an insert. That drop must expire in turn.
  sim::Simulator sim;
  sw::OpenFlowSwitch ovs(sim, "ovs1", 1);
  ovs.handle_controller_message(of::Message{drops[0]});
  ASSERT_EQ(ovs.flow_table().size(), 1u);
  ovs.flow_table().expire(bound - kSecond);
  EXPECT_EQ(ovs.flow_table().size(), 1u);
  ovs.flow_table().expire(bound);
  EXPECT_EQ(ovs.flow_table().size(), 0u);
}

TEST(ControllerFastPath, DuplicatePacketInsCollapseIntoOneSetup) {
  FastPathHarness net;
  net.lldp(net.ch1, 3, 2, 4);
  net.lldp(net.ch2, 4, 1, 3);
  net.packet_in(net.ch1, 0, gratuitous_arp(net.alice_mac, net.alice_ip));

  // Baseline: a fully-known flow, to learn how many adds one setup emits.
  net.packet_in(net.ch2, 0, gratuitous_arp(net.bob_mac, net.bob_ip));
  net.start_flow(2000);
  const std::size_t adds_per_setup = net.sw1.adds() + net.sw2.adds();
  ASSERT_GT(adds_per_setup, 0u);
  net.sw1.flow_mods.clear();
  net.sw2.flow_mods.clear();
  net.sw1.packet_outs = 0;

  // An unknown destination parks the first packet-in; the two retransmits
  // must be absorbed by the pending entry, not recomputed.
  const MacAddress carol_mac = MacAddress::from_uint64(0xCA01);
  const Ipv4Address carol_ip{10, 0, 0, 3};
  auto to_carol = [&](std::uint16_t tp_src) {
    return pkt::PacketBuilder()
        .eth(net.alice_mac, carol_mac)
        .ipv4(net.alice_ip, carol_ip, pkt::IpProto::kUdp)
        .udp(tp_src, 80)
        .finalize();
  };
  for (int i = 0; i < 3; ++i) net.packet_in(net.ch1, 0, to_carol(3000));
  EXPECT_EQ(net.counters().pending_setups_parked, 1u);
  EXPECT_EQ(net.counters().suppressed_packet_ins, 2u);
  EXPECT_EQ(net.controller.pending_setup_count(), 1u);
  EXPECT_EQ(net.sw1.adds() + net.sw2.adds(), 0u);

  // Carol announces herself: exactly one setup runs and the suppressed
  // duplicates' buffered packets are released through the new entries.
  net.packet_in(net.ch2, 0, gratuitous_arp(carol_mac, carol_ip));
  EXPECT_EQ(net.counters().pending_setups_completed, 1u);
  EXPECT_EQ(net.controller.pending_setup_count(), 0u);
  EXPECT_EQ(net.sw1.adds() + net.sw2.adds(), adds_per_setup);
  EXPECT_EQ(net.sw1.packet_outs, 2u);  // one release per suppressed waiter
}

}  // namespace
}  // namespace livesec
