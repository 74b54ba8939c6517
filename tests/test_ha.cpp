// Controller high-availability subsystem: replication codec/log units,
// cluster state mirroring under lossy replication, deterministic failover
// with post-failover reconciliation, DHCP/ARP continuity across failover,
// control-plane partition detection via OFPT_ECHO, and the channel
// backpressure / pending-setup regressions that ride along.
#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "controller/controller.h"
#include "ha/cluster.h"
#include "ha/fault_plan.h"
#include "ha/replication.h"
#include "monitor/webui.h"
#include "net/network.h"
#include "net/traffic.h"
#include "openflow/channel.h"
#include "packet/packet.h"
#include "scenario/campus.h"
#include "sim/simulator.h"
#include "topology/lldp.h"

namespace livesec {
namespace {

using net::Network;

// --- replication codec / log units -------------------------------------------------

TEST(Replication, RecordCodecRoundTripsEveryType) {
  const MacAddress mac = MacAddress::from_uint64(0xA11CE);
  const Ipv4Address ip(10, 0, 0, 1);
  pkt::FlowKey key;
  key.nw_src = ip;
  key.nw_dst = Ipv4Address(10, 0, 0, 2);
  key.nw_proto = 17;
  key.tp_src = 1000;
  key.tp_dst = 2000;

  ctrl::Policy policy;
  policy.id = 7;
  policy.name = "web-via-ids";
  policy.priority = 10;
  policy.tp_dst = 80;
  policy.nw_src = ip;
  policy.nw_src_prefix = 24;
  policy.action = ctrl::PolicyAction::kRedirect;
  policy.service_chain = {svc::ServiceType::kIntrusionDetection};

  const std::vector<std::uint8_t> viral_bytes(512, 0xEE);
  const FuzzyDigest digest = FuzzyDigest::of(viral_bytes);

  const std::vector<ha::RecordBody> bodies = {
      ha::HostLearnedRecord{mac, ip, 3, 2, 42},
      ha::HostRemovedRecord{mac},
      ha::LsPortRecord{4, 9},
      ha::LinkRecord{1, 2, 3, 4},
      ha::PolicyAddedRecord{policy},
      ha::PolicyRemovedRecord{7},
      ha::DefaultActionRecord{ctrl::PolicyAction::kDeny},
      ha::SeUpsertRecord{5, mac, ip, svc::ServiceType::kProtocolIdentification, 2, 6, 99},
      ha::SeRemovedRecord{5},
      ha::FlowBlockedRecord{key, 1, 3},
      ha::FlowUnblockedRecord{key},
      ha::DhcpConfigRecord{Ipv4Address(10, 2, 0, 10), 16, 3600 * kSecond},
      ha::DhcpLeaseRecord{mac, Ipv4Address(10, 2, 0, 11), 7200 * kSecond},
      ha::DhcpReleaseRecord{mac},
      ha::SwitchUpRecord{6, 12, "ovs-floor-3"},
      ha::SwitchDownRecord{6},
      ha::FlowOffloadedRecord{key, 65536},
      ha::FlowOnloadedRecord{key},
      ha::VerdictLearnedRecord{digest, 2, 101, 9, 262144},
      ha::VerdictCacheEpochRecord{12},
      ha::EventBatchRecord{{0xDE, 0xAD, 0xBE, 0xEF}},
  };
  ASSERT_EQ(bodies.size(), std::variant_size_v<ha::RecordBody>);

  // Each record alone in a frame: the frame's base seq is the record's seq.
  const auto round_trip = [](std::uint64_t seq,
                              const ha::RecordBody& body) -> std::optional<ha::RecordBody> {
    auto decoded = ha::decode_frame(ha::encode_frame({seq, {body}}));
    if (!decoded || decoded->records.size() != 1) return std::nullopt;
    EXPECT_EQ(decoded->base_seq, seq);
    EXPECT_EQ(decoded->records[0].index(), body.index()) << ha::record_name(body);
    return std::move(decoded->records[0]);
  };
  std::uint64_t seq = 0;
  for (const auto& body : bodies) {
    EXPECT_TRUE(round_trip(++seq, body).has_value()) << ha::record_name(body);
  }

  // Spot-check deep fields survive the trip.
  const auto policy_rt = round_trip(1, ha::PolicyAddedRecord{policy});
  ASSERT_TRUE(policy_rt.has_value());
  const auto& p = std::get<ha::PolicyAddedRecord>(*policy_rt).policy;
  EXPECT_EQ(p.id, 7u);
  EXPECT_EQ(p.name, "web-via-ids");
  ASSERT_TRUE(p.tp_dst.has_value());
  EXPECT_EQ(*p.tp_dst, 80);
  ASSERT_TRUE(p.nw_src_prefix.has_value());
  EXPECT_EQ(*p.nw_src_prefix, 24);
  ASSERT_EQ(p.service_chain.size(), 1u);
  EXPECT_EQ(p.service_chain[0], svc::ServiceType::kIntrusionDetection);

  const std::vector<std::uint8_t> blob = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x7F};
  const auto batch_rt = round_trip(9, ha::EventBatchRecord{blob});
  ASSERT_TRUE(batch_rt.has_value());
  EXPECT_EQ(std::get<ha::EventBatchRecord>(*batch_rt).blob, blob);

  const auto sw_rt = round_trip(2, ha::SwitchUpRecord{6, 12, "ovs-floor-3"});
  ASSERT_TRUE(sw_rt.has_value());
  EXPECT_EQ(std::get<ha::SwitchUpRecord>(*sw_rt).name, "ovs-floor-3");

  const auto learn_rt = round_trip(3, ha::VerdictLearnedRecord{digest, 2, 101, 9, 262144});
  ASSERT_TRUE(learn_rt.has_value());
  const auto& learned = std::get<ha::VerdictLearnedRecord>(*learn_rt);
  EXPECT_EQ(learned.digest.exact, digest.exact);
  EXPECT_EQ(learned.digest.bytes, digest.bytes);
  EXPECT_EQ(learned.digest.sketch, digest.sketch);
  EXPECT_EQ(learned.verdict, 2);
  EXPECT_EQ(learned.rule_id, 101u);
  EXPECT_EQ(learned.severity, 9);
  EXPECT_EQ(learned.inspected_bytes, 262144u);

  const auto epoch_rt = round_trip(4, ha::VerdictCacheEpochRecord{12});
  ASSERT_TRUE(epoch_rt.has_value());
  EXPECT_EQ(std::get<ha::VerdictCacheEpochRecord>(*epoch_rt).epoch, 12u);
}

TEST(Replication, CodecRejectsVersionMismatchAndTruncation) {
  auto bytes = ha::encode_frame({9, {ha::HostRemovedRecord{MacAddress::from_uint64(1)}}});
  ASSERT_FALSE(bytes.empty());
  ASSERT_TRUE(ha::decode_frame(bytes).has_value());

  auto wrong_version = bytes;
  wrong_version[0] ^= 0xFF;  // format version lives up front
  EXPECT_FALSE(ha::decode_frame(wrong_version).has_value());

  auto truncated = bytes;
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(ha::decode_frame(truncated).has_value());

  EXPECT_FALSE(ha::decode_frame(std::vector<std::uint8_t>{}).has_value());
}

TEST(Replication, LogAssignsSequencesServesTailAndTruncates) {
  ha::ReplicationLog log;
  EXPECT_EQ(log.head_seq(), 0u);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    EXPECT_EQ(log.append(ha::SeRemovedRecord{i}), i);
  }
  EXPECT_EQ(log.head_seq(), 5u);
  EXPECT_EQ(log.base_seq(), 1u);

  auto tail = log.since(3);
  ASSERT_TRUE(tail.has_value());
  ASSERT_EQ(tail->size(), 2u);
  EXPECT_EQ((*tail)[0].seq, 4u);
  EXPECT_EQ((*tail)[1].seq, 5u);

  log.truncate(3);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.base_seq(), 4u);
  // A reader still at or before the truncation point must snapshot instead.
  EXPECT_FALSE(log.since(2).has_value());
  ASSERT_TRUE(log.since(3).has_value());
  ASSERT_TRUE(log.since(5).has_value());
  EXPECT_TRUE(log.since(5)->empty());
}

TEST(Replication, SnapshotRecordsRoundTrip) {
  std::vector<ha::RecordBody> records = {
      ha::LsPortRecord{1, 4},
      ha::HostLearnedRecord{MacAddress::from_uint64(2), Ipv4Address(10, 0, 0, 2), 1, 1, 5},
      ha::DefaultActionRecord{ctrl::PolicyAction::kDeny},
  };
  const auto bytes = ha::encode_snapshot_records(records);
  const auto decoded = ha::decode_snapshot_records(bytes);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ((*decoded)[i].index(), records[i].index());
  }

  auto corrupt = bytes;
  corrupt.resize(corrupt.size() - 1);
  EXPECT_FALSE(ha::decode_snapshot_records(corrupt).has_value());
}

// --- snapshot export / import fidelity ---------------------------------------------

TEST(Replication, ExportedStateImportsIntoFreshController) {
  Network network;
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs1 = network.add_as_switch("ovs1", backbone);
  auto& ovs2 = network.add_as_switch("ovs2", backbone);
  auto& alice = network.add_host("alice", ovs1);
  auto& bob = network.add_host("bob", ovs2);
  network.add_service_element(svc::ServiceType::kIntrusionDetection, ovs2);

  ctrl::Policy policy;
  policy.name = "deny-telnet";
  policy.tp_dst = 23;
  policy.action = ctrl::PolicyAction::kDeny;
  network.controller().policies().add(policy);
  network.start();

  const auto records = network.controller().export_state();
  ASSERT_FALSE(records.empty());

  sim::Simulator standby_sim;
  ctrl::Controller standby(standby_sim);
  standby.import_snapshot(records);

  // Hosts, SEs, policies and topology all arrive.
  const auto* a = standby.routing().find(alice.mac());
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->dpid, 1u);
  EXPECT_EQ(a->ip, alice.ip());
  ASSERT_NE(standby.routing().find(bob.mac()), nullptr);
  EXPECT_EQ(standby.services().all().size(), 1u);
  EXPECT_EQ(standby.policies().size(), network.controller().policies().size());
  EXPECT_EQ(standby.topology().switch_count(), 2u);
}

// The sharded record layout must survive a snapshot round-trip after DHCP
// lease churn: losers of an IP re-lease export with a cleared address, so a
// standby importing the snapshot rebuilds exactly the same mac and ip maps
// (bug 1's stale index would otherwise resurrect on the standby).
TEST(Replication, IpChurnedStateRoundTripsThroughSnapshot) {
  sim::Simulator sim;
  ctrl::Controller active(sim);

  scenario::CampusConfig campus_config;
  campus_config.hosts = 500;
  scenario::CampusGenerator campus(campus_config);
  for (std::uint32_t i = 0; i < campus_config.hosts; ++i) {
    const scenario::CampusHost h = campus.host(i);
    active.apply_replicated(ha::HostLearnedRecord{h.mac, h.ip, h.dpid, h.port, 0});
  }
  // Re-lease a band of addresses to the next host over: host i loses its
  // address to host i+1, which in turn loses its own to i+2, and so on.
  for (std::uint32_t i = 0; i < 100; ++i) {
    const scenario::CampusHost loser = campus.host(i);
    const scenario::CampusHost winner = campus.host(i + 1);
    active.apply_replicated(
        ha::HostLearnedRecord{winner.mac, loser.ip, winner.dpid, winner.port, kSecond});
  }

  const auto records = active.export_state();
  sim::Simulator standby_sim;
  ctrl::Controller standby(standby_sim);
  standby.import_snapshot(records);

  ASSERT_EQ(standby.routing().size(), active.routing().size());
  for (std::uint32_t i = 0; i < campus_config.hosts; ++i) {
    const scenario::CampusHost h = campus.host(i);
    const auto* on_active = active.routing().find(h.mac);
    const auto* on_standby = standby.routing().find(h.mac);
    ASSERT_NE(on_active, nullptr);
    ASSERT_NE(on_standby, nullptr);
    EXPECT_EQ(on_standby->ip, on_active->ip) << "host " << i;
    EXPECT_EQ(on_standby->dpid, on_active->dpid);
    EXPECT_EQ(on_standby->port, on_active->port);
  }
  // The contested addresses resolve to the same winner on both sides.
  for (std::uint32_t i = 0; i < 100; ++i) {
    const scenario::CampusHost h = campus.host(i);
    const auto* on_active = active.routing().find_by_ip(h.ip);
    const auto* on_standby = standby.routing().find_by_ip(h.ip);
    ASSERT_NE(on_active, nullptr) << "address " << i << " lost on the active";
    ASSERT_NE(on_standby, nullptr) << "address " << i << " lost on the standby";
    EXPECT_EQ(on_standby->mac, on_active->mac);
    EXPECT_EQ(on_active->mac, campus.host(i + 1).mac);
  }
}

// --- cluster replication -----------------------------------------------------------

TEST(HaCluster, StandbyMirrorsActiveState) {
  Network network;
  network.enable_ha(1);
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs1 = network.add_as_switch("ovs1", backbone);
  auto& ovs2 = network.add_as_switch("ovs2", backbone);
  auto& alice = network.add_host("alice", ovs1);
  auto& bob = network.add_host("bob", ovs2);
  network.add_service_element(svc::ServiceType::kIntrusionDetection, ovs2);
  network.start();

  ctrl::Policy policy;
  policy.name = "deny-telnet";
  policy.tp_dst = 23;
  policy.action = ctrl::PolicyAction::kDeny;
  network.controller().policies().add(policy);
  network.run_for(1 * kSecond);

  ha::HaCluster* cluster = network.ha_cluster();
  ASSERT_NE(cluster, nullptr);
  ASSERT_EQ(cluster->node_count(), 2u);
  EXPECT_EQ(cluster->role(0), ha::HaCluster::Role::kActive);
  EXPECT_EQ(cluster->role(1), ha::HaCluster::Role::kStandby);
  EXPECT_GT(cluster->stats().records_published, 0u);
  // The standby applied everything the active published.
  EXPECT_EQ(cluster->applied_seq(1), cluster->log().head_seq());

  ctrl::Controller& standby = cluster->node_controller(1);
  const auto* a = standby.routing().find(alice.mac());
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->ip, alice.ip());
  ASSERT_NE(standby.routing().find(bob.mac()), nullptr);
  EXPECT_EQ(standby.services().all().size(), 1u);
  EXPECT_EQ(standby.policies().size(), network.controller().policies().size());
  EXPECT_EQ(standby.topology().switch_count(), 2u);
  // Standby channels exist but stay down until promotion.
  EXPECT_FALSE(standby.switch_connected(1));
  EXPECT_FALSE(standby.switch_connected(2));
}

// The event database replicates live (batched EventBatchRecords flushed at
// housekeeping ticks) and a promoted standby serves the same history replay
// window the dead active would have (ISSUE: time-travel debugging survives
// failover).
TEST(HaCluster, EventDatabaseReplicatesAndSurvivesFailover) {
  ctrl::Controller::Config config;
  config.housekeeping_interval = 500 * kMillisecond;
  ha::FaultPlan plan;
  plan.crash_active_at = 3 * kSecond;

  Network network{config};
  network.enable_ha(1, {}, plan);
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs1 = network.add_as_switch("ovs1", backbone);
  auto& ovs2 = network.add_as_switch("ovs2", backbone);
  auto& alice = network.add_host("alice", ovs1);
  auto& bob = network.add_host("bob", ovs2);
  network.add_service_element(svc::ServiceType::kIntrusionDetection, ovs2);
  network.start();

  net::UdpCbrApp stream(alice, {.dst = bob.ip(), .rate_bps = 2e6, .duration = 2 * kSecond});
  stream.start();
  network.run_for(5 * kSecond);

  ha::HaCluster* cluster = network.ha_cluster();
  ASSERT_NE(cluster, nullptr);
  ASSERT_EQ(cluster->stats().failovers, 1u);
  ASSERT_EQ(cluster->active_index(), 1u);
  ctrl::Controller& old_active = cluster->node_controller(0);
  ctrl::Controller& promoted = cluster->active_controller();

  // The standby received rows through the restore path, never by raising
  // its own (ids are the active's).
  EXPECT_GT(promoted.events().counters().restored_rows, 0u);

  // Every event flushed before the crash is replayable on the promoted
  // node: the replay window well before the crash is byte-identical.
  const SimTime window_end = 2 * kSecond;
  EXPECT_GT(promoted.events().query_range(0, window_end).size(), 0u);
  EXPECT_EQ(promoted.events().to_json(0, window_end),
            old_active.events().to_json(0, window_end));
  EXPECT_GE(promoted.events().query_type(mon::EventType::kHostJoin, 0, window_end).size(), 2u);
  EXPECT_GT(promoted.events().query_type(mon::EventType::kFlowStart, 0, window_end).size(), 0u);

  // Rollups on the promoted node cover the same pre-crash window (they are
  // rebuilt by re-ingesting the restored rows).
  EXPECT_EQ(promoted.events().rollups().count_all(0, window_end),
            old_active.events().rollups().count_all(0, window_end));

  // Post-promotion the new active raises its own events past the old ids.
  const auto failovers =
      promoted.events().query_type(mon::EventType::kFailover, 0, 100 * kSecond);
  ASSERT_EQ(failovers.size(), 1u);
  EXPECT_GT(failovers[0].id, promoted.events().counters().restored_rows);
}

TEST(HaCluster, LossyDelayedReorderedReplicationConverges) {
  ha::FaultPlan plan;
  plan.seed = 7;
  plan.replication_drop_probability = 0.3;
  plan.replication_delay_probability = 0.2;
  plan.replication_reorder_probability = 0.2;

  Network network;
  network.enable_ha(2, {}, plan);
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs1 = network.add_as_switch("ovs1", backbone);
  auto& ovs2 = network.add_as_switch("ovs2", backbone);
  auto& alice = network.add_host("alice", ovs1);
  auto& bob = network.add_host("bob", ovs2);
  network.start();

  net::UdpCbrApp stream(alice, {.dst = bob.ip(), .rate_bps = 2e6, .duration = 1 * kSecond});
  stream.start();
  // Run past the end of traffic so at least one resync pass repairs the tail.
  network.run_for(2 * kSecond);

  ha::HaCluster* cluster = network.ha_cluster();
  const auto& stats = cluster->stats();
  EXPECT_GT(stats.records_dropped, 0u);
  EXPECT_GT(stats.records_delayed, 0u);
  EXPECT_GT(stats.retransmits, 0u);
  // Both standbys converge to the full stream despite the faults.
  EXPECT_EQ(cluster->applied_seq(1), cluster->log().head_seq());
  EXPECT_EQ(cluster->applied_seq(2), cluster->log().head_seq());
  for (std::size_t node = 1; node <= 2; ++node) {
    ctrl::Controller& standby = cluster->node_controller(node);
    EXPECT_NE(standby.routing().find(alice.mac()), nullptr);
    EXPECT_NE(standby.routing().find(bob.mac()), nullptr);
    EXPECT_EQ(standby.topology().switch_count(), 2u);
  }
}

TEST(HaCluster, PromotionBootstrapsFromSnapshotWhenLogTruncated) {
  // Every direct delivery is lost and resync never runs: the only way the
  // standby can take over is the snapshot the active left behind.
  ha::FaultPlan plan;
  plan.replication_drop_probability = 1.0;
  plan.crash_active_at = 1 * kSecond;
  ha::HaCluster::Config config;
  config.snapshot_interval = 100 * kMillisecond;
  config.resync_interval = 10 * kSecond;

  Network network;
  network.enable_ha(1, config, plan);
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs1 = network.add_as_switch("ovs1", backbone);
  auto& ovs2 = network.add_as_switch("ovs2", backbone);
  auto& alice = network.add_host("alice", ovs1);
  auto& bob = network.add_host("bob", ovs2);
  network.start();
  network.run_for(2 * kSecond);

  ha::HaCluster* cluster = network.ha_cluster();
  EXPECT_EQ(cluster->stats().crashes, 1u);
  EXPECT_EQ(cluster->stats().failovers, 1u);
  EXPECT_GE(cluster->stats().snapshots_taken, 1u);
  EXPECT_GE(cluster->stats().snapshots_imported, 1u);
  EXPECT_EQ(cluster->active_index(), 1u);

  ctrl::Controller& active = cluster->active_controller();
  EXPECT_NE(active.routing().find(alice.mac()), nullptr);
  EXPECT_NE(active.routing().find(bob.mac()), nullptr);
  EXPECT_TRUE(active.switch_connected(1));
  EXPECT_TRUE(active.switch_connected(2));
}

// --- deterministic failover end-to-end ---------------------------------------------

struct FailoverRun {
  std::uint64_t legit_delivered = 0;
  std::uint64_t attack_served = 0;
  std::uint64_t arp_probe_delivered = 0;
  std::uint64_t failovers = 0;
  ctrl::Controller::ReconcileReport report;
  std::size_t failover_events = 0;
  std::size_t reconciled_events = 0;
  bool new_active_knows_block = false;
};

/// One fully seeded failover scenario; `crash` selects the fault plan so the
/// crash and no-crash runs share every other event, byte for byte.
FailoverRun run_failover_scenario(bool crash) {
  ctrl::Controller::Config config;
  config.flow_idle_timeout = 2 * kSecond;  // attack drop entry: 6 s idle
  ha::FaultPlan plan;
  if (crash) plan.crash_active_at = 8 * kSecond;

  Network network{config};
  network.enable_ha(1, {}, plan);
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs1 = network.add_as_switch("ovs1", backbone);
  auto& ovs2 = network.add_as_switch("ovs2", backbone);
  auto& alice = network.add_host("alice", ovs1);
  auto& bob = network.add_host("bob", ovs2);
  auto& carol = network.add_host("carol", ovs1);
  auto& dave = network.add_host("dave", ovs2);
  network.add_service_element(svc::ServiceType::kIntrusionDetection, ovs2);

  ctrl::Policy redirect;
  redirect.name = "web-via-ids";
  redirect.tp_dst = 80;
  redirect.action = ctrl::PolicyAction::kRedirect;
  redirect.service_chain = {svc::ServiceType::kIntrusionDetection};
  network.controller().policies().add(redirect);

  net::HttpServerApp server(bob, {.port = 80});
  std::uint64_t legit = 0;
  bob.on_udp(9000, [&legit](const pkt::Packet&) { ++legit; });
  std::uint64_t arp_probe = 0;
  alice.on_udp(9100, [&arp_probe](const pkt::Packet&) { ++arp_probe; });

  network.start();  // settles 200 ms

  // Legitimate stream alice -> bob, alive across the whole scenario. Its
  // entries stay warm, so the data plane must carry it through the
  // controller outage untouched.
  net::UdpCbrApp stream(alice, {.dst = bob.ip(), .dst_port = 9000, .rate_bps = 2e6,
                                .duration = 13 * kSecond});
  stream.start();

  // Attack alice -> bob:80 through the IDS: detected and blocked within the
  // first second; the drop entry idle-expires (~6 s after the last attack
  // packet) before the crash at 8 s.
  net::AttackApp attack(alice, {.server = bob.ip(), .packets = 10,
                                .interval = 20 * kMillisecond});
  attack.start();

  // Carol's stream, ending at 7 s so its entries (2 s idle) still exist at
  // reconcile time (8.1 s) but are denied by then: reconciliation must
  // remove them as stale.
  net::UdpCbrApp carol_stream(carol, {.dst = bob.ip(), .dst_port = 7000, .rate_bps = 1e6,
                                      .duration = 6800 * kMillisecond});
  carol_stream.start();

  network.run_for(5 * kSecond);  // now at ~5.2 s

  ctrl::Policy deny;
  deny.name = "deny-7000";
  deny.priority = 50;
  deny.tp_dst = 7000;
  deny.action = ctrl::PolicyAction::kDeny;
  network.controller().policies().add(deny);

  network.run_for(4 * kSecond);  // crash at 8 s, promotion ~8.1 s, reconcile ~8.11 s

  // The attacker resumes with the same flow key. With the drop entry long
  // expired, only the replicated block record (re-installed during
  // reconciliation) keeps the server clean.
  net::AttackApp attack_again(alice, {.server = bob.ip(), .packets = 10,
                                      .interval = 20 * kMillisecond});
  attack_again.start();

  // A brand-new flow needing ARP resolution + flow setup by whoever is
  // active now: dave -> alice.
  net::UdpCbrApp probe(dave, {.dst = alice.ip(), .dst_port = 9100, .rate_bps = 1e6,
                              .duration = 500 * kMillisecond});
  probe.start();

  network.run_for(5 * kSecond);  // to ~14.2 s

  FailoverRun out;
  out.legit_delivered = legit;
  out.attack_served = server.requests_served();
  out.arp_probe_delivered = arp_probe;
  ha::HaCluster* cluster = network.ha_cluster();
  out.failovers = cluster->stats().failovers;
  ctrl::Controller& active = network.active_controller();
  out.report = active.reconcile_report();
  constexpr SimTime kForever = std::numeric_limits<SimTime>::max();
  out.failover_events =
      active.events().query_type(mon::EventType::kFailover, 0, kForever).size();
  out.reconciled_events =
      active.events().query_type(mon::EventType::kReconciled, 0, kForever).size();
  out.new_active_knows_block = active.blocked_flow_count() >= 1;
  return out;
}

TEST(HaFailover, DeterministicFailoverPreservesServiceAndEnforcement) {
  const FailoverRun faulty = run_failover_scenario(true);
  const FailoverRun clean = run_failover_scenario(false);

  // The failover happened and was announced.
  EXPECT_EQ(faulty.failovers, 1u);
  EXPECT_EQ(faulty.failover_events, 1u);
  EXPECT_EQ(faulty.reconciled_events, 1u);
  EXPECT_EQ(clean.failovers, 0u);

  // Reconciliation audited the switches, removed carol's now-denied entries
  // and re-installed the expired attack drop from replicated state.
  EXPECT_EQ(faulty.report.switches_audited, 2u);
  EXPECT_GT(faulty.report.entries_audited, 0u);
  EXPECT_GE(faulty.report.stale_removed, 1u);
  EXPECT_GE(faulty.report.drops_reinstalled, 1u);
  EXPECT_GT(faulty.report.completed_at, 0);
  EXPECT_TRUE(faulty.new_active_knows_block);

  // Policy enforcement across the failover: the resumed attack reached the
  // server in neither run.
  EXPECT_EQ(faulty.attack_served, clean.attack_served);
  // Established goodput is identical to the no-failure run, packet for
  // packet: the data plane never depended on the dead controller.
  EXPECT_EQ(faulty.legit_delivered, clean.legit_delivered);
  EXPECT_GT(faulty.legit_delivered, 0u);
  // And the promoted standby can set up brand-new flows (ARP directory
  // proxy + two-hop routing) just like the original active.
  EXPECT_GT(faulty.arp_probe_delivered, 0u);
  EXPECT_EQ(faulty.arp_probe_delivered, clean.arp_probe_delivered);
}

// --- DHCP + ARP continuity across failover -----------------------------------------

TEST(HaFailover, DhcpLeasesSurviveFailoverAndStillExpire) {
  ctrl::Controller::Config config;
  config.housekeeping_interval = 500 * kMillisecond;

  Network network{config};
  network.enable_ha(1);
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs1 = network.add_as_switch("ovs1", backbone);
  auto& ovs2 = network.add_as_switch("ovs2", backbone);
  network.controller().enable_dhcp(Ipv4Address(10, 2, 0, 10), 16, 4 * kSecond);
  auto& client = network.add_host("client", ovs1);
  auto& late_client = network.add_host("late", ovs2);
  network.start();

  client.start_dhcp();
  network.run_for(1 * kSecond);
  ASSERT_TRUE(client.dhcp_bound());
  const Ipv4Address leased = client.ip();

  // The lease and the pool configuration reached the standby.
  ha::HaCluster* cluster = network.ha_cluster();
  const ctrl::DhcpPool* standby_pool = cluster->node_controller(1).dhcp_pool();
  ASSERT_NE(standby_pool, nullptr);
  EXPECT_EQ(standby_pool->active_leases(), 1u);
  EXPECT_GT(standby_pool->lease_expiry(client.mac()), 0);

  cluster->crash_active();
  network.run_for(500 * kMillisecond);  // detection + promotion
  ASSERT_EQ(cluster->stats().failovers, 1u);
  ctrl::Controller& active = cluster->active_controller();

  // The promoted standby serves the existing lease's identity: another host
  // can resolve the client's leased address through the directory proxy.
  EXPECT_EQ(active.dhcp_pool()->active_leases(), 1u);
  const auto* loc = active.routing().find_by_ip(leased);
  ASSERT_NE(loc, nullptr);
  EXPECT_EQ(loc->mac, client.mac());

  // Renewal against the new active keeps the replicated address: the same
  // DISCOVER/REQUEST exchange extends the lease instead of reallocating.
  const SimTime expiry_before_renewal = active.dhcp_pool()->lease_expiry(client.mac());
  client.start_dhcp();
  network.run_for(1 * kSecond);
  ASSERT_TRUE(client.dhcp_bound());
  EXPECT_EQ(client.ip(), leased);
  EXPECT_GT(active.dhcp_pool()->lease_expiry(client.mac()), expiry_before_renewal);

  // ...and keeps allocating: a new client binds against the new active.
  late_client.start_dhcp();
  network.run_for(1 * kSecond);
  EXPECT_TRUE(late_client.dhcp_bound());
  EXPECT_NE(late_client.ip(), leased);
  EXPECT_EQ(active.dhcp_pool()->active_leases(), 2u);

  // Leases still expire on the survivor once renewals stop: the renewed 4 s
  // lease lapses after we run well past its horizon.
  network.run_for(6 * kSecond);
  EXPECT_EQ(active.dhcp_pool()->lease_expiry(client.mac()), 0);
}

// A promoted standby numbers its flow cookies afresh, so entries the previous
// active installed can carry the very cookie one of the new active's flows
// got. When such an entry idles out, its FlowRemoved must not close that
// flow: a FlowRemoved acts only when its cookie and its match both name the
// same live session.
TEST(HaFailover, PreviousActivesFlowRemovedLeavesNewSessionsAlone) {
  ctrl::Controller::Config config;
  config.flow_idle_timeout = 5 * kSecond;
  Network network{config};
  network.enable_ha(1);
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs1 = network.add_as_switch("ovs1", backbone);
  auto& ovs2 = network.add_as_switch("ovs2", backbone);
  auto& alice = network.add_host("alice", ovs1);
  auto& bob = network.add_host("bob", ovs2);
  auto& carol = network.add_host("carol", ovs1);
  network.start();

  // The first active sets up alice -> bob; its entries outlive the crash.
  net::UdpCbrApp old_stream(alice, {.dst = bob.ip(), .rate_bps = 1e6,
                                    .duration = 200 * kMillisecond});
  old_stream.start();
  network.run_for(500 * kMillisecond);
  ha::HaCluster* cluster = network.ha_cluster();
  cluster->crash_active();
  network.run_for(500 * kMillisecond);  // detection + promotion
  ASSERT_EQ(cluster->stats().failovers, 1u);
  ctrl::Controller& active = cluster->active_controller();

  // The promoted standby sets up its first flow, carol -> bob.
  net::UdpCbrApp new_stream(carol, {.dst = bob.ip(), .src_port = 41000, .rate_bps = 1e6,
                                    .duration = 3 * kSecond});
  new_stream.start();
  network.run_for(300 * kMillisecond);

  // Each flow's cookie-carrying ingress entry, as ovs1 holds it.
  const auto ingress_entry = [&](const net::Host& src) {
    for (const of::FlowEntry& entry : ovs1.flow_table().entries()) {
      if (entry.cookie != 0 && entry.match.is_exact() &&
          entry.match.flow_key().dl_src == src.mac()) {
        return entry;
      }
    }
    ADD_FAILURE() << "no ingress entry for " << src.mac().to_string();
    return of::FlowEntry{};
  };
  const of::FlowEntry old_entry = ingress_entry(alice);
  const of::FlowEntry new_entry = ingress_entry(carol);
  const pkt::FlowKey new_key = new_entry.match.flow_key();
  ASSERT_EQ(active.active_flows(), 1u);
  const auto entries_before = active.flow_entries(new_key);
  ASSERT_FALSE(entries_before.empty());
  const std::uint64_t events_before = active.events().counters().appended;

  const auto flow_removed = [&](const of::FlowEntry& entry, std::uint64_t cookie) {
    of::FlowRemoved removed;
    removed.match = entry.match;
    removed.priority = entry.priority;
    removed.cookie = cookie;
    removed.reason = of::RemovalReason::kIdleTimeout;
    active.handle_switch_message(ovs1.datapath_id(), of::Message{removed});
  };
  // The previous active's entry idles out under its own cookie, then a
  // removal pairs the new flow's cookie with another flow's match.
  flow_removed(old_entry, old_entry.cookie);
  flow_removed(old_entry, new_entry.cookie);
  EXPECT_EQ(active.active_flows(), 1u);
  EXPECT_EQ(active.flow_entries(new_key), entries_before);
  EXPECT_EQ(active.events().counters().appended, events_before);

  // The new flow's own removal still closes it.
  flow_removed(new_entry, new_entry.cookie);
  EXPECT_EQ(active.active_flows(), 0u);
  EXPECT_TRUE(active.flow_entries(new_key).empty());
  EXPECT_EQ(active.events().counters().appended, events_before + 1);
}

// --- control-plane partition via OFPT_ECHO -----------------------------------------

TEST(HaCluster, EchoLivenessDetectsPartitionAndHealSurvives) {
  ctrl::Controller::Config config;
  config.switch_echo_interval = 100 * kMillisecond;  // timeout 3x = 300 ms

  Network network{config};
  network.enable_ha(1);
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs1 = network.add_as_switch("ovs1", backbone);
  auto& ovs2 = network.add_as_switch("ovs2", backbone);
  auto& alice = network.add_host("alice", ovs1);
  (void)ovs2;
  network.start();
  ASSERT_TRUE(network.controller().switch_connected(1));

  ha::HaCluster* cluster = network.ha_cluster();
  cluster->partition_switch(1);
  network.run_for(1 * kSecond);

  // The channel still claims "connected" — only the echo probes noticed.
  EXPECT_GE(network.controller().stats().echo_timeouts, 1u);
  EXPECT_FALSE(network.controller().switch_connected(1));
  EXPECT_TRUE(network.controller().switch_connected(2));

  cluster->heal_switch(1);
  network.run_for(200 * kMillisecond);
  EXPECT_TRUE(network.controller().switch_connected(1));

  // The switch is fully usable again: the host re-announces and is learned
  // back at its old attachment point.
  alice.announce();
  network.run_for(200 * kMillisecond);
  const auto* loc = network.controller().routing().find(alice.mac());
  ASSERT_NE(loc, nullptr);
  EXPECT_EQ(loc->dpid, 1u);
}

// --- WebUI surfaces the HA panel ---------------------------------------------------

TEST(HaCluster, WebUiRendersHaStatusAndBackpressure) {
  Network network;
  network.enable_ha(1);
  auto& backbone = network.add_legacy_switch("backbone");
  network.add_as_switch("ovs1", backbone);
  network.start();
  network.run_for(500 * kMillisecond);

  mon::WebUi ui(network.controller());
  ui.set_ha_status_provider(
      [cluster = network.ha_cluster()] { return cluster->status_json(); });

  const std::string json = ui.snapshot_json(0, network.sim().now());
  EXPECT_NE(json.find("\"ha\":{"), std::string::npos);
  EXPECT_NE(json.find("\"role\":\"active\""), std::string::npos);
  EXPECT_NE(json.find("\"role\":\"standby\""), std::string::npos);
  EXPECT_NE(json.find("\"channel_outbox_dropped\":"), std::string::npos);
  EXPECT_NE(json.find("\"channel_backlog\":"), std::string::npos);
  EXPECT_NE(json.find("\"echo_timeouts\":"), std::string::npos);

  const std::string text = ui.snapshot_text(0, network.sim().now());
  EXPECT_NE(text.find("high availability"), std::string::npos);
  EXPECT_NE(text.find("channel backpressure"), std::string::npos);
}

// --- satellite regressions: channel bound, pending-setup cleanup -------------------

/// Minimal switch endpoint for channel-level tests.
class SinkSwitch : public of::SwitchEndpoint {
 public:
  explicit SinkSwitch(DatapathId dpid) : dpid_(dpid) {}
  DatapathId datapath_id() const override { return dpid_; }
  void handle_controller_message(const of::Message&) override { ++delivered; }
  std::uint64_t delivered = 0;

 private:
  DatapathId dpid_;
};

class SinkController : public of::ControllerEndpoint {
 public:
  void handle_switch_message(DatapathId, const of::Message&) override { ++delivered; }
  void handle_switch_connected(DatapathId, const of::FeaturesReply&) override {}
  void handle_switch_disconnected(DatapathId) override {}
  std::uint64_t delivered = 0;
};

TEST(SecureChannel, OutboxBoundDropsBeyondLimitAndCounts) {
  sim::Simulator sim;
  SinkSwitch sw{1};
  SinkController controller;
  of::SecureChannel channel(sim, sw, controller);
  channel.connect(of::FeaturesReply{1, 4, "sw"});
  channel.set_outbox_limit(4);

  for (int i = 0; i < 10; ++i) channel.send_to_switch(of::EchoRequest{});
  EXPECT_EQ(channel.outbox_depth_to_switch(), 4u);
  EXPECT_EQ(channel.outbox_dropped(), 6u);
  for (int i = 0; i < 7; ++i) channel.send_to_controller(of::EchoReply{});
  EXPECT_EQ(channel.outbox_depth_to_controller(), 4u);
  EXPECT_EQ(channel.outbox_dropped(), 9u);

  sim.run();
  EXPECT_EQ(sw.delivered, 4u);
  // The connect's features notification plus the four surviving echoes.
  EXPECT_EQ(channel.outbox_depth_to_switch(), 0u);
  EXPECT_EQ(channel.outbox_depth_to_controller(), 0u);

  // Unbounded mode accepts arbitrarily deep bursts again.
  channel.set_outbox_limit(0);
  for (int i = 0; i < 20; ++i) channel.send_to_switch(of::EchoRequest{});
  EXPECT_EQ(channel.outbox_depth_to_switch(), 20u);
  EXPECT_EQ(channel.outbox_dropped(), 9u);
}

TEST(SecureChannel, BlackholeSilentlyLosesWhileConnected) {
  sim::Simulator sim;
  SinkSwitch sw{1};
  SinkController controller;
  of::SecureChannel channel(sim, sw, controller);
  channel.connect(of::FeaturesReply{1, 4, "sw"});
  sim.run();

  channel.set_blackhole(true);
  EXPECT_TRUE(channel.connected());
  channel.send_to_switch(of::EchoRequest{});
  channel.send_to_controller(of::EchoReply{});
  sim.run();
  EXPECT_EQ(sw.delivered, 0u);
  EXPECT_EQ(controller.delivered, 0u);
  EXPECT_EQ(channel.blackholed_messages(), 2u);

  channel.set_blackhole(false);
  channel.send_to_switch(of::EchoRequest{});
  sim.run();
  EXPECT_EQ(sw.delivered, 1u);
}

pkt::PacketPtr gratuitous_arp(MacAddress mac, Ipv4Address ip) {
  return pkt::PacketBuilder()
      .eth(mac, MacAddress::from_uint64(0xFFFFFFFFFFFFull))
      .arp(pkt::ArpOp::kRequest, mac, ip, MacAddress{}, ip)
      .finalize();
}

TEST(Controller, PendingSetupsClearedOnSwitchDisconnectAndReconnect) {
  sim::Simulator sim;
  ctrl::Controller controller(sim);
  SinkSwitch sw1{1};
  SinkSwitch sw2{2};
  of::SecureChannel ch1(sim, sw1, controller, 10 * kMicrosecond);
  of::SecureChannel ch2(sim, sw2, controller, 10 * kMicrosecond);
  controller.attach_channel(1, ch1);
  controller.attach_channel(2, ch2);
  const of::FeaturesReply features1{1, 8, "sw1"};
  ch1.connect(features1);
  ch2.connect(of::FeaturesReply{2, 8, "sw2"});
  sim.run_until(sim.now() + 10 * kMillisecond);

  const MacAddress alice_mac = MacAddress::from_uint64(0xA11CE);
  const Ipv4Address alice_ip(10, 0, 0, 1);
  auto park_flow = [&] {
    of::PacketIn announce;
    announce.in_port = 0;
    announce.packet = gratuitous_arp(alice_mac, alice_ip);
    ch1.send_to_controller(std::move(announce));
    // Destination never announced: the setup parks awaiting its location.
    of::PacketIn pin;
    pin.in_port = 0;
    pin.packet = pkt::PacketBuilder()
                     .eth(alice_mac, MacAddress::from_uint64(0xCA201))
                     .ipv4(alice_ip, Ipv4Address(10, 0, 0, 9), pkt::IpProto::kUdp)
                     .udp(5000, 80)
                     .finalize();
    ch1.send_to_controller(std::move(pin));
    sim.run_until(sim.now() + 10 * kMillisecond);
  };

  park_flow();
  ASSERT_EQ(controller.pending_setup_count(), 1u);

  // Disconnect: the parked setup waits on a dead ingress; it must go.
  ch1.disconnect();
  sim.run_until(sim.now() + 10 * kMillisecond);
  EXPECT_EQ(controller.pending_setup_count(), 0u);
  EXPECT_GE(controller.stats().fastpath.pending_setups_expired, 1u);

  // Reconnect and park again; a repeated handshake for the same dpid (the
  // switch process restarted without the disconnect ever being seen) must
  // also clear its pending entries, not leave them to dangle.
  ch1.connect(features1);
  sim.run_until(sim.now() + 10 * kMillisecond);
  park_flow();
  ASSERT_EQ(controller.pending_setup_count(), 1u);
  controller.handle_switch_connected(1, features1);
  EXPECT_EQ(controller.pending_setup_count(), 0u);
}

}  // namespace
}  // namespace livesec
