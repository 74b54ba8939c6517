// Verdict-driven flow offload (service-chain fast path): the paper's 4-entry
// redirect shape (§IV.A), its rewrite into the direct path after a benign
// VERDICT, the offload memo's replay/invalidation semantics, and the
// interaction with SE offline, host moves, policy mutation and HA failover.
#include <gtest/gtest.h>

#include "monitor/webui.h"
#include "net/network.h"
#include "net/traffic.h"

namespace livesec {
namespace {

using net::Network;

constexpr SimTime kForever = std::numeric_limits<SimTime>::max();

/// src@ovs1, dst@ovs2, SE@ovs3: the SE sits on a *third* switch, so one
/// direction of a steered flow needs all four entries of paper §IV.A
/// (ingress steer, SE-switch arrival, SE-switch return, egress).
struct ChainNet {
  Network network;
  sw::EthernetSwitch& backbone;
  sw::OpenFlowSwitch& ovs1;
  sw::OpenFlowSwitch& ovs2;
  sw::OpenFlowSwitch& ovs3;
  net::Host& alice;
  net::Host& bob;

  ChainNet()
      : backbone(network.add_legacy_switch("backbone")),
        ovs1(network.add_as_switch("ovs1", backbone)),
        ovs2(network.add_as_switch("ovs2", backbone)),
        ovs3(network.add_as_switch("ovs3", backbone)),
        alice(network.add_host("alice", ovs1)),
        bob(network.add_host("bob", ovs2)) {}

  svc::ServiceElement& add_ids(std::uint64_t verdict_byte_budget) {
    svc::ServiceElement::Config config;
    config.verdict_byte_budget = verdict_byte_budget;
    return network.add_service_element(svc::ServiceType::kIntrusionDetection, ovs3, config);
  }

  void add_udp_redirect_policy() {
    ctrl::Policy policy;
    policy.name = "udp-via-ids";
    policy.nw_proto = 17;
    policy.tp_dst = 9000;
    policy.action = ctrl::PolicyAction::kRedirect;
    policy.service_chain = {svc::ServiceType::kIntrusionDetection};
    network.controller().policies().add(policy);
  }

  /// Forward key of the UdpCbrApp default flow alice -> bob.
  pkt::FlowKey udp_key() const {
    pkt::FlowKey key;
    key.dl_src = alice.mac();
    key.dl_dst = bob.mac();
    key.dl_type = static_cast<std::uint16_t>(pkt::EtherType::kIpv4);
    key.nw_src = alice.ip();
    key.nw_dst = bob.ip();
    key.nw_proto = static_cast<std::uint8_t>(pkt::IpProto::kUdp);
    key.tp_src = 40000;
    key.tp_dst = 9000;
    return key;
  }
};

// --- the paper's redirect geometry --------------------------------------------------

TEST(Offload, RedirectInstallsPaperFourEntryShape) {
  ChainNet net;
  net.add_ids(0);  // no verdicts: the base always-redirect behavior
  net.add_udp_redirect_policy();
  net.network.start();

  net::UdpCbrApp stream(net.alice, {.dst = net.bob.ip(), .rate_bps = 2e6,
                                    .duration = 500 * kMillisecond});
  stream.start();
  net.network.run_for(1 * kSecond);

  const pkt::FlowKey key = net.udp_key();
  // Paper §IV.A: four flow entries per direction when the SE lives on a
  // third switch — steer at ingress, deliver to the SE, pick up the SE's
  // return traffic, forward at egress. Both directions are preinstalled.
  EXPECT_EQ(net.network.controller().flow_entries(key).size(), 8u);
  EXPECT_EQ(net.network.controller().flow_se_ids(key).size(), 1u);
  EXPECT_GT(net.bob.rx_ip_packets(), 0u);
  EXPECT_FALSE(net.network.controller().flow_offloaded(key));
  EXPECT_EQ(net.network.controller().stats().flows_offloaded, 0u);
}

TEST(Offload, DirectFlowUsesTwoEntriesPerDirection) {
  ChainNet net;  // no policy, no SE: plain two-hop routing
  net.network.start();

  net::UdpCbrApp stream(net.alice, {.dst = net.bob.ip(), .rate_bps = 2e6,
                                    .duration = 300 * kMillisecond});
  stream.start();
  net.network.run_for(500 * kMillisecond);

  EXPECT_EQ(net.network.controller().flow_entries(net.udp_key()).size(), 4u);
}

// --- benign verdict -> cut-through --------------------------------------------------

TEST(Offload, BenignVerdictRewritesChainToDirectPath) {
  ChainNet net;
  svc::ServiceElement& ids = net.add_ids(4096);
  net.add_udp_redirect_policy();
  net.network.start();

  net::UdpCbrApp stream(net.alice, {.dst = net.bob.ip(), .rate_bps = 2e6,
                                    .duration = 2 * kSecond});
  stream.start();
  net.network.run_for(500 * kMillisecond);

  // ~3 clean packets crossed the 4 KiB budget: the SE reported benign and
  // the controller rewrote the chain in place.
  const pkt::FlowKey key = net.udp_key();
  const auto& ctrl = net.network.controller();
  EXPECT_GE(ids.verdicts_sent(), 1u);
  EXPECT_GE(ctrl.stats().verdict_messages, 1u);
  EXPECT_EQ(ctrl.stats().flows_offloaded, 1u);
  EXPECT_TRUE(ctrl.flow_offloaded(key));
  EXPECT_EQ(ctrl.offloaded_flow_count(), 1u);
  EXPECT_EQ(ctrl.flow_entries(key).size(), 4u);  // direct shape, SE legs deleted
  EXPECT_TRUE(ctrl.flow_se_ids(key).empty());
  EXPECT_EQ(ctrl.events().query_type(mon::EventType::kFlowOffloaded, 0, kForever).size(), 1u);

  // After the cut-through the SE stops seeing the flow while goodput
  // continues: that is the entire point of the fast path.
  const std::uint64_t se_after_offload = ids.processed_packets();
  const std::uint64_t rx_after_offload = net.bob.rx_ip_packets();
  net.network.run_for(1 * kSecond);
  EXPECT_LE(ids.processed_packets() - se_after_offload, 3u);  // in-flight tail only
  EXPECT_GT(net.bob.rx_ip_packets(), rx_after_offload + 100);
}

TEST(Offload, MaliciousVerdictBlocksInsteadOfOffloading) {
  ChainNet net;
  net.add_ids(512);
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

  const auto& ctrl = net.network.controller();
  EXPECT_GE(ctrl.stats().verdict_messages, 1u);
  EXPECT_EQ(ctrl.stats().flows_offloaded, 0u);
  EXPECT_EQ(ctrl.offloaded_flow_count(), 0u);
  EXPECT_GE(ctrl.blocked_flow_count(), 1u);
  EXPECT_LT(server.requests_served(), 10u);
}

// --- teardown paths -----------------------------------------------------------------

TEST(Offload, SeOfflineTearsDownSteeredFlow) {
  ChainNet net;
  svc::ServiceElement& ids = net.add_ids(0);
  net.add_udp_redirect_policy();
  net.network.start();

  net::UdpCbrApp stream(net.alice, {.dst = net.bob.ip(), .rate_bps = 2e6,
                                    .duration = 500 * kMillisecond});
  stream.start();
  net.network.run_for(1 * kSecond);
  const pkt::FlowKey key = net.udp_key();
  ASSERT_EQ(net.network.controller().flow_entries(key).size(), 8u);

  ids.stop();  // silent: heartbeats cease, liveness timeout expires the SE
  net.network.run_for(10 * kSecond);
  EXPECT_EQ(net.network.controller().services().size(), 0u);
  EXPECT_TRUE(net.network.controller().flow_entries(key).empty());
}

TEST(Offload, HostMoveTearsDownFlowAndInvalidatesMemo) {
  ChainNet net;
  net.add_ids(4096);
  net.add_udp_redirect_policy();
  net.network.start();

  net::UdpCbrApp stream(net.alice, {.dst = net.bob.ip(), .rate_bps = 2e6,
                                    .duration = 500 * kMillisecond});
  stream.start();
  net.network.run_for(1 * kSecond);
  const pkt::FlowKey key = net.udp_key();
  auto& ctrl = net.network.controller();
  ASSERT_TRUE(ctrl.flow_offloaded(key));

  // Bob roams to the SE's switch: the installed direct path is stale.
  net.network.move_host(net.bob, net.ovs3);
  net.network.run_for(500 * kMillisecond);
  EXPECT_TRUE(ctrl.flow_entries(key).empty());

  // The memoed verdict was taken against the old routing world: the next
  // setup of the flow must invalidate it and steer through the IDS again.
  net::UdpCbrApp again(net.alice, {.dst = net.bob.ip(), .rate_bps = 2e6,
                                   .duration = 500 * kMillisecond});
  again.start();
  net.network.run_for(1 * kSecond);
  EXPECT_GE(ctrl.stats().offload_invalidations, 1u);
  EXPECT_EQ(ctrl.stats().offload_replays, 0u);
  EXPECT_EQ(ctrl.flow_se_ids(key).size(), 1u);  // redirect-and-reinspect
}

// --- the offload memo ---------------------------------------------------------------

TEST(Offload, MemoReplaysDirectPathWithoutReinspection) {
  ChainNet net;
  svc::ServiceElement& ids = net.add_ids(4096);
  net.add_udp_redirect_policy();
  net.network.start();

  net::UdpCbrApp stream(net.alice, {.dst = net.bob.ip(), .rate_bps = 2e6,
                                    .duration = 500 * kMillisecond});
  stream.start();
  net.network.run_for(1 * kSecond);
  const pkt::FlowKey key = net.udp_key();
  auto& ctrl = net.network.controller();
  ASSERT_EQ(ctrl.stats().flows_offloaded, 1u);
  const std::uint64_t se_packets = ids.processed_packets();
  const std::uint64_t redirected = ctrl.stats().flows_redirected;

  // Idle past the flow timeout so the entries expire, then the same flow
  // returns: its benign verdict is replayed as a direct install — no detour,
  // no second inspection.
  net.network.run_for(15 * kSecond);
  net::UdpCbrApp again(net.alice, {.dst = net.bob.ip(), .rate_bps = 2e6,
                                   .duration = 500 * kMillisecond});
  again.start();
  net.network.run_for(1 * kSecond);

  EXPECT_EQ(ctrl.stats().offload_replays, 1u);
  EXPECT_EQ(ctrl.stats().flows_redirected, redirected);
  EXPECT_EQ(ctrl.flow_entries(key).size(), 4u);
  EXPECT_TRUE(ctrl.flow_se_ids(key).empty());
  EXPECT_LE(ids.processed_packets() - se_packets, 3u);
  EXPECT_GT(net.bob.rx_ip_packets(), 100u);
}

TEST(Offload, PolicyMutationInvalidatesMemo) {
  ChainNet net;
  net.add_ids(4096);
  net.add_udp_redirect_policy();
  net.network.start();

  net::UdpCbrApp stream(net.alice, {.dst = net.bob.ip(), .rate_bps = 2e6,
                                    .duration = 500 * kMillisecond});
  stream.start();
  net.network.run_for(1 * kSecond);
  const pkt::FlowKey key = net.udp_key();
  auto& ctrl = net.network.controller();
  ASSERT_TRUE(ctrl.flow_offloaded(key));
  net.network.run_for(15 * kSecond);  // entries idle out

  // Any policy push could change what inspection the flow deserves; the
  // memoed verdict must not survive it, even when the new policy is
  // unrelated to this flow.
  ctrl::Policy deny;
  deny.name = "deny-telnet";
  deny.tp_dst = 23;
  deny.nw_proto = 6;
  deny.action = ctrl::PolicyAction::kDeny;
  ctrl.policies().add(deny);

  net::UdpCbrApp again(net.alice, {.dst = net.bob.ip(), .rate_bps = 2e6,
                                   .duration = 500 * kMillisecond});
  again.start();
  net.network.run_for(1 * kSecond);

  EXPECT_GE(ctrl.stats().offload_invalidations, 1u);
  EXPECT_EQ(ctrl.stats().offload_replays, 0u);
  EXPECT_FALSE(ctrl.flow_offloaded(key));
  EXPECT_EQ(ctrl.flow_se_ids(key).size(), 1u);  // steered through the IDS again
}

TEST(Offload, LateDetectionAfterOffloadBlocksAndForgetsMemo) {
  ChainNet net;
  net.add_ids(1400);  // one clean full-MTU packet crosses the budget
  net.add_udp_redirect_policy();
  net.network.start();

  // Packet 1 crosses the budget clean -> benign verdict -> cut-through.
  // Packet 2 carries an IDS-rule payload (1013: udp "root:root") and is
  // already steered toward the SE when the rewrite lands: its late alert
  // must still map back to the flow, block it and revoke the memo.
  pkt::Packet clean = pkt::PacketBuilder()
                          .ipv4(net.alice.ip(), net.bob.ip(), pkt::IpProto::kUdp)
                          .udp(40000, 9000)
                          .payload_size(1400)
                          .build();
  net.alice.send_ip(std::move(clean));
  pkt::Packet attack = pkt::PacketBuilder()
                           .ipv4(net.alice.ip(), net.bob.ip(), pkt::IpProto::kUdp)
                           .udp(40000, 9000)
                           .payload("USER root:root login attempt")
                           .build();
  net.alice.send_ip(std::move(attack));
  net.network.run_for(1 * kSecond);

  auto& ctrl = net.network.controller();
  const pkt::FlowKey key = net.udp_key();
  EXPECT_EQ(ctrl.stats().flows_offloaded, 1u);  // the benign verdict fired first
  EXPECT_TRUE(ctrl.flow_blocked(key));          // ...then the detection caught up
  EXPECT_FALSE(ctrl.flow_offloaded(key));       // and the memo died with the block
  EXPECT_EQ(ctrl.offloaded_flow_count(), 0u);
  EXPECT_GE(ctrl.stats().flows_blocked_by_event, 1u);
}

TEST(Offload, CutThroughWaitsForEverySeInTheChain) {
  ChainNet net;
  net.add_ids(1400);  // clears the flow after the first clean packet
  // Second chain stage: a virus scanner whose budget is far beyond what the
  // test sends — it never issues a verdict, so the chain never fully clears.
  svc::ServiceElement::Config scan_config;
  scan_config.verdict_byte_budget = 1ull << 40;
  net.network.add_service_element(svc::ServiceType::kVirusScan, net.ovs3, scan_config);

  ctrl::Policy policy;
  policy.name = "udp-via-ids-scan";
  policy.nw_proto = 17;
  policy.tp_dst = 9000;
  policy.action = ctrl::PolicyAction::kRedirect;
  policy.service_chain = {svc::ServiceType::kIntrusionDetection, svc::ServiceType::kVirusScan};
  net.network.controller().policies().add(policy);
  net.network.start();

  net::UdpCbrApp stream(net.alice, {.dst = net.bob.ip(), .rate_bps = 2e6,
                                    .duration = 1 * kSecond});
  stream.start();
  net.network.run_for(2 * kSecond);

  // The IDS said benign, but one engine's word is not the chain's: with the
  // scanner still inspecting, the redirect must stay.
  const auto& ctrl = net.network.controller();
  EXPECT_GE(ctrl.stats().verdict_messages, 1u);
  EXPECT_EQ(ctrl.stats().flows_offloaded, 0u);
  EXPECT_EQ(ctrl.flow_se_ids(net.udp_key()).size(), 2u);
  EXPECT_FALSE(ctrl.flow_offloaded(net.udp_key()));
}

// --- HA interaction -----------------------------------------------------------------

TEST(Offload, ReplicatesToStandbyAndNeverReplaysAfterFailover) {
  Network network;
  network.enable_ha(1);
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs1 = network.add_as_switch("ovs1", backbone);
  auto& ovs2 = network.add_as_switch("ovs2", backbone);
  auto& ovs3 = network.add_as_switch("ovs3", backbone);
  auto& alice = network.add_host("alice", ovs1);
  auto& bob = network.add_host("bob", ovs2);
  svc::ServiceElement::Config se_config;
  se_config.verdict_byte_budget = 4096;
  auto& ids =
      network.add_service_element(svc::ServiceType::kIntrusionDetection, ovs3, se_config);

  ctrl::Policy policy;
  policy.name = "udp-via-ids";
  policy.nw_proto = 17;
  policy.tp_dst = 9000;
  policy.action = ctrl::PolicyAction::kRedirect;
  policy.service_chain = {svc::ServiceType::kIntrusionDetection};
  network.controller().policies().add(policy);
  network.start();

  net::UdpCbrApp stream(alice, {.dst = bob.ip(), .rate_bps = 2e6,
                                .duration = 500 * kMillisecond});
  stream.start();
  network.run_for(1 * kSecond);

  pkt::FlowKey key;
  key.dl_src = alice.mac();
  key.dl_dst = bob.mac();
  key.dl_type = static_cast<std::uint16_t>(pkt::EtherType::kIpv4);
  key.nw_src = alice.ip();
  key.nw_dst = bob.ip();
  key.nw_proto = static_cast<std::uint8_t>(pkt::IpProto::kUdp);
  key.tp_src = 40000;
  key.tp_dst = 9000;

  ha::HaCluster* cluster = network.ha_cluster();
  ASSERT_NE(cluster, nullptr);
  ASSERT_EQ(network.controller().stats().flows_offloaded, 1u);
  // The standby mirrors the offload memo (observability + snapshot safety).
  EXPECT_EQ(cluster->node_controller(1).offloaded_flow_count(), 1u);

  // Crash the active. The promoted standby holds the replicated memo, but
  // stamped with its own pre-promotion world — and promotion bumps the
  // epoch, so the memo can never replay: a pre-failover benign verdict is
  // not trusted by the new regime.
  cluster->crash_active();
  network.run_for(5 * kSecond);
  ASSERT_EQ(cluster->stats().failovers, 1u);
  ctrl::Controller& active = network.active_controller();
  const std::uint64_t se_packets = ids.processed_packets();

  network.run_for(12 * kSecond);  // old entries idle out
  net::UdpCbrApp again(alice, {.dst = bob.ip(), .rate_bps = 2e6,
                               .duration = 500 * kMillisecond});
  again.start();
  network.run_for(1 * kSecond);

  EXPECT_EQ(active.stats().offload_replays, 0u);
  EXPECT_GE(active.stats().offload_invalidations, 1u);
  EXPECT_EQ(active.flow_se_ids(key).size(), 1u);  // redirected and re-inspected
  EXPECT_GT(ids.processed_packets(), se_packets);
}

// --- WebUI surfacing ----------------------------------------------------------------

TEST(Offload, WebUiSurfacesOffloadAndBatchTelemetry) {
  ChainNet net;
  net.add_ids(4096);
  net.add_udp_redirect_policy();
  net.network.start();

  net::UdpCbrApp stream(net.alice, {.dst = net.bob.ip(), .rate_bps = 2e6,
                                    .duration = 1 * kSecond});
  stream.start();
  net.network.run_for(2 * kSecond);

  mon::WebUi ui(net.network.controller());
  const std::string json = ui.snapshot_json(0, net.network.sim().now());
  EXPECT_NE(json.find("\"verdict_messages\":"), std::string::npos);
  EXPECT_NE(json.find("\"flows_offloaded\":1"), std::string::npos);
  EXPECT_NE(json.find("\"offloaded_now\":1"), std::string::npos);
  EXPECT_NE(json.find("\"flow_contexts\":"), std::string::npos);
  EXPECT_NE(json.find("\"batch_size_hist\":["), std::string::npos);

  const std::string text = ui.snapshot_text(0, net.network.sim().now());
  EXPECT_NE(text.find("flow offload: 1 cut through"), std::string::npos);
  EXPECT_NE(text.find("contexts="), std::string::npos);
}

}  // namespace
}  // namespace livesec
