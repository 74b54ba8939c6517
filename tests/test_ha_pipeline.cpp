// Group-commit replication pipeline (DESIGN.md §13): frame codec round-trips
// and fuzzing, varint edge cases, window coalescing guardrails, the folded
// incremental snapshot store's equivalence with standby apply, chunked
// snapshot import, corrupt-delivery accounting (the silently-dropped-frame
// regression), log truncation at the standbys' applied position, and the
// WebUI pipeline counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <variant>
#include <vector>

#include "controller/controller.h"
#include "ha/cluster.h"
#include "ha/fault_plan.h"
#include "ha/pipeline.h"
#include "ha/replication.h"
#include "ha/snapshot.h"
#include "monitor/event_pipeline.h"
#include "monitor/webui.h"
#include "net/network.h"
#include "net/traffic.h"
#include "packet/buffer.h"
#include "scenario/campus.h"
#include "sim/simulator.h"

namespace livesec {
namespace {

using net::Network;

std::vector<ha::RecordBody> every_record_type() {
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

  return {
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
}

// --- frame codec -------------------------------------------------------------------

TEST(ReplicationFrame, RoundTripsEveryTypeWithImplicitSeqs) {
  ha::ReplicationFrame frame;
  frame.base_seq = 1000;
  frame.records = every_record_type();
  ASSERT_EQ(frame.records.size(), std::variant_size_v<ha::RecordBody>);

  const auto bytes = ha::encode_frame(frame);
  const auto decoded = ha::decode_frame(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->base_seq, 1000u);
  ASSERT_EQ(decoded->records.size(), frame.records.size());
  for (std::size_t i = 0; i < frame.records.size(); ++i) {
    EXPECT_EQ(decoded->records[i].index(), frame.records[i].index())
        << ha::record_name(frame.records[i]);
  }

  // Deep fields survive the dictionary/varint packing.
  const auto& host = std::get<ha::HostLearnedRecord>(decoded->records[0]);
  EXPECT_EQ(host.mac, MacAddress::from_uint64(0xA11CE));
  EXPECT_EQ(host.ip, Ipv4Address(10, 0, 0, 1));
  EXPECT_EQ(host.dpid, 3u);
  EXPECT_EQ(host.port, 2u);
  EXPECT_EQ(host.seen_at, 42);
  const auto& se = std::get<ha::SeUpsertRecord>(decoded->records[7]);
  EXPECT_EQ(se.se_id, 5u);
  EXPECT_EQ(se.service, svc::ServiceType::kProtocolIdentification);
  const auto& policy = std::get<ha::PolicyAddedRecord>(decoded->records[4]).policy;
  EXPECT_EQ(policy.name, "web-via-ids");
  ASSERT_TRUE(policy.tp_dst.has_value());
  EXPECT_EQ(*policy.tp_dst, 80);
  const auto& verdict = std::get<ha::VerdictLearnedRecord>(decoded->records[18]);
  EXPECT_EQ(verdict.digest, FuzzyDigest::of(std::vector<std::uint8_t>(512, 0xEE)));
  EXPECT_EQ(verdict.inspected_bytes, 262144u);
  const auto& blob = std::get<ha::EventBatchRecord>(decoded->records[20]).blob;
  EXPECT_EQ(blob, (std::vector<std::uint8_t>{0xDE, 0xAD, 0xBE, 0xEF}));
}

TEST(ReplicationFrame, DictionaryBeatsPerRecordEncodingOnRepetition) {
  // A churn window: the same few MACs/dpids repeat across many records —
  // exactly what a campus flush window looks like.
  ha::ReplicationFrame frame;
  frame.base_seq = 1;
  scenario::CampusGenerator campus({});
  for (std::uint32_t i = 0; i < 128; ++i) {
    const scenario::CampusHost h = campus.host(i % 8);
    frame.records.push_back(ha::HostLearnedRecord{h.mac, h.ip, h.dpid, h.port, kSecond * i});
  }

  // Baseline: the same records shipped one per frame, so no MAC or dpid is
  // ever shared across records.
  std::size_t per_record = 0;
  for (std::size_t i = 0; i < frame.records.size(); ++i) {
    per_record += ha::encode_frame({frame.base_seq + i, {frame.records[i]}}).size();
  }
  const auto frame_bytes = ha::encode_frame(frame);
  EXPECT_LT(frame_bytes.size() * 2, per_record)
      << "dictionary + varint packing should at least halve the wire cost";

  const auto decoded = ha::decode_frame(frame_bytes);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->records.size(), frame.records.size());
  for (std::size_t i = 0; i < frame.records.size(); ++i) {
    const auto& a = std::get<ha::HostLearnedRecord>(frame.records[i]);
    const auto& b = std::get<ha::HostLearnedRecord>(decoded->records[i]);
    EXPECT_EQ(a.mac, b.mac);
    EXPECT_EQ(a.ip, b.ip);
    EXPECT_EQ(a.dpid, b.dpid);
    EXPECT_EQ(a.port, b.port);
    EXPECT_EQ(a.seen_at, b.seen_at);
  }
}

TEST(ReplicationFrame, RejectsTruncationAtEveryByteOffset) {
  ha::ReplicationFrame frame;
  frame.base_seq = 7;
  frame.records = every_record_type();
  const auto bytes = ha::encode_frame(frame);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const auto decoded =
        ha::decode_frame(std::span<const std::uint8_t>(bytes.data(), len));
    EXPECT_FALSE(decoded.has_value()) << "accepted a " << len << "-byte prefix of "
                                      << bytes.size();
  }
  EXPECT_TRUE(ha::decode_frame(bytes).has_value());
}

TEST(ReplicationFrame, RejectsHeaderCorruptionAndSurvivesBodyCorruption) {
  ha::ReplicationFrame frame;
  frame.base_seq = 7;
  frame.records = every_record_type();
  const auto bytes = ha::encode_frame(frame);

  // Version (bytes 0-1) and frame magic (byte 2) corruption must reject.
  for (std::size_t i = 0; i < 3; ++i) {
    auto mutated = bytes;
    mutated[i] ^= 0xFF;
    EXPECT_FALSE(ha::decode_frame(mutated).has_value()) << "header byte " << i;
  }
  // Any single-byte corruption must never crash or over-read; a flip that
  // happens to decode must still yield the declared record count.
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto mutated = bytes;
    mutated[i] ^= 0x55;
    const auto decoded = ha::decode_frame(mutated);
    if (decoded) {
      EXPECT_EQ(decoded->records.size(), frame.records.size()) << "byte " << i;
    }
  }
}

TEST(ReplicationFrame, VarintRoundTripsAndRejectsOverlong) {
  for (const std::uint64_t v :
       {0ull, 1ull, 127ull, 128ull, 300ull, 0xFFFFull, 0xFFFFFFFFull,
        0xFFFFFFFFFFFFFFFFull}) {
    pkt::BufferWriter w;
    w.varint(v);
    const auto bytes = w.take();
    pkt::BufferReader r(bytes);
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
  }
  // 11 continuation bytes: overlong for any u64 — the reader must poison.
  const std::vector<std::uint8_t> overlong(11, 0x80);
  pkt::BufferReader r(overlong);
  r.varint();
  EXPECT_FALSE(r.ok());
}

TEST(Replication, SnapshotRecordsRejectTruncationWithoutCrashing) {
  const auto records = every_record_type();
  const auto bytes = ha::encode_snapshot_records(records);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const auto decoded =
        ha::decode_snapshot_records(std::span<const std::uint8_t>(bytes.data(), len));
    if (decoded) {
      // A prefix that parses must not have invented records.
      EXPECT_LE(decoded->size(), records.size());
    }
  }
  const auto full = ha::decode_snapshot_records(bytes);
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->size(), records.size());
}

TEST(ReplicationLog, VisitSinceMatchesSinceWithoutCopying) {
  ha::ReplicationLog log;
  for (int i = 0; i < 6; ++i) log.append(ha::HostRemovedRecord{MacAddress::from_uint64(i)});
  log.truncate(3);

  EXPECT_FALSE(log.reaches(2));
  std::vector<std::uint64_t> seqs;
  EXPECT_FALSE(log.visit_since(2, [&](const ha::ReplicationRecord& r) { seqs.push_back(r.seq); }));
  EXPECT_TRUE(seqs.empty());

  EXPECT_TRUE(log.visit_since(3, [&](const ha::ReplicationRecord& r) { seqs.push_back(r.seq); }));
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{4, 5, 6}));

  seqs.clear();
  EXPECT_TRUE(log.visit_since(5, [&](const ha::ReplicationRecord& r) { seqs.push_back(r.seq); }));
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{6}));

  seqs.clear();
  EXPECT_TRUE(log.visit_since(6, [&](const ha::ReplicationRecord& r) { seqs.push_back(r.seq); }));
  EXPECT_TRUE(seqs.empty());
}

// --- window coalescing -------------------------------------------------------------

TEST(ReplicationPipeline, CoalescesPureRefreshesOnly) {
  ha::ReplicationPipeline pipeline(ha::ReplicationPipeline::Config{1000, 1 << 20});
  const MacAddress mac_a = MacAddress::from_uint64(0xA);
  const MacAddress mac_b = MacAddress::from_uint64(0xB);
  const Ipv4Address ip_x(10, 0, 0, 1);
  const Ipv4Address ip_y(10, 0, 0, 2);

  // Same mac, same ip: pure refresh — the earlier record coalesces away.
  pipeline.add(ha::HostLearnedRecord{mac_a, ip_x, 1, 1, 10});
  pipeline.add(ha::HostLearnedRecord{mac_a, ip_x, 1, 2, 20});
  EXPECT_EQ(pipeline.pending_records(), 1u);
  EXPECT_EQ(pipeline.stats().records_coalesced, 1u);

  // Same mac, NEW ip: the IP change displaces the previous holder on apply —
  // both records must survive.
  pipeline.add(ha::HostLearnedRecord{mac_b, ip_y, 1, 3, 30});
  pipeline.add(ha::HostLearnedRecord{mac_b, ip_x, 1, 3, 40});
  EXPECT_EQ(pipeline.pending_records(), 3u);

  // A removal fences its key: the next learn never merges back across it.
  pipeline.add(ha::HostRemovedRecord{mac_a});
  pipeline.add(ha::HostLearnedRecord{mac_a, ip_x, 1, 1, 50});
  EXPECT_EQ(pipeline.pending_records(), 5u);

  const auto window = pipeline.take();
  ASSERT_EQ(window.size(), 5u);
  // Publish order is preserved; the survivor of the coalesced pair is the
  // LATER record.
  EXPECT_EQ(std::get<ha::HostLearnedRecord>(window[0]).seen_at, 20);
  EXPECT_EQ(std::get<ha::HostLearnedRecord>(window[1]).seen_at, 30);
  EXPECT_EQ(std::get<ha::HostLearnedRecord>(window[2]).seen_at, 40);
  EXPECT_TRUE(std::holds_alternative<ha::HostRemovedRecord>(window[3]));
  EXPECT_EQ(std::get<ha::HostLearnedRecord>(window[4]).seen_at, 50);
  EXPECT_TRUE(pipeline.empty());
}

TEST(ReplicationPipeline, DhcpAndSeGuardrails) {
  ha::ReplicationPipeline pipeline(ha::ReplicationPipeline::Config{1000, 1 << 20});
  const MacAddress mac = MacAddress::from_uint64(0xC);
  const Ipv4Address ip(10, 2, 0, 5);

  // Lease refresh coalesces; a pool reconfiguration fences every lease key.
  pipeline.add(ha::DhcpLeaseRecord{mac, ip, 100});
  pipeline.add(ha::DhcpLeaseRecord{mac, ip, 200});
  EXPECT_EQ(pipeline.pending_records(), 1u);
  pipeline.add(ha::DhcpConfigRecord{Ipv4Address(10, 2, 0, 0), 32, kSecond});
  pipeline.add(ha::DhcpLeaseRecord{mac, ip, 300});
  EXPECT_EQ(pipeline.pending_records(), 3u);

  // SE refresh coalesces only with the same mac AND ip (migration keeps both).
  pipeline.add(ha::SeUpsertRecord{9, mac, ip, svc::ServiceType::kIntrusionDetection, 1, 1, 10});
  pipeline.add(ha::SeUpsertRecord{9, mac, ip, svc::ServiceType::kIntrusionDetection, 2, 4, 20});
  EXPECT_EQ(pipeline.pending_records(), 4u);
  pipeline.add(ha::SeUpsertRecord{9, MacAddress::from_uint64(0xD), ip,
                                  svc::ServiceType::kIntrusionDetection, 2, 4, 30});
  EXPECT_EQ(pipeline.pending_records(), 5u);
}

TEST(ReplicationPipeline, ThresholdSignalsFlush) {
  ha::ReplicationPipeline pipeline(ha::ReplicationPipeline::Config{4, 1 << 20});
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(pipeline.add(ha::HostRemovedRecord{MacAddress::from_uint64(i)}));
  }
  EXPECT_TRUE(pipeline.add(ha::HostRemovedRecord{MacAddress::from_uint64(99)}));
  EXPECT_EQ(pipeline.stats().size_flushes, 1u);
}

// --- incremental snapshot store ----------------------------------------------------

TEST(SnapshotStore, FoldedStateMatchesStandbyApply) {
  scenario::CampusConfig campus_config;
  campus_config.hosts = 300;
  scenario::CampusGenerator campus(campus_config);

  std::vector<ha::RecordBody> stream;
  for (std::uint32_t i = 0; i < campus_config.hosts; ++i) {
    const scenario::CampusHost h = campus.host(i);
    stream.push_back(ha::HostLearnedRecord{h.mac, h.ip, h.dpid, h.port, 0});
  }
  // IP churn: a band of addresses re-leases to the next host over, so the
  // store's displacement bookkeeping is exercised hard.
  for (std::uint32_t i = 0; i < 80; ++i) {
    const scenario::CampusHost loser = campus.host(i);
    const scenario::CampusHost winner = campus.host(i + 1);
    stream.push_back(
        ha::HostLearnedRecord{winner.mac, loser.ip, winner.dpid, winner.port, kSecond});
  }
  // Removals, switches, links, SEs, policies, flows, verdict epochs.
  for (std::uint32_t i = 200; i < 220; ++i) {
    stream.push_back(ha::HostRemovedRecord{campus.host(i).mac});
  }
  stream.push_back(ha::SwitchUpRecord{1, 8, "ovs-1"});
  stream.push_back(ha::SwitchUpRecord{2, 8, "ovs-2"});
  stream.push_back(ha::LsPortRecord{1, 7});
  stream.push_back(ha::LinkRecord{1, 2, 2, 3});
  stream.push_back(ha::LinkRecord{2, 3, 1, 2});
  stream.push_back(ha::SwitchUpRecord{3, 4, "ovs-3"});
  stream.push_back(ha::LinkRecord{1, 4, 3, 1});
  stream.push_back(ha::SwitchDownRecord{3});  // erases its links, keeps LS hints
  ctrl::Policy policy;
  policy.id = 1;
  policy.name = "deny-telnet";
  policy.tp_dst = 23;
  policy.action = ctrl::PolicyAction::kDeny;
  stream.push_back(ha::PolicyAddedRecord{policy});
  policy.id = 2;
  policy.name = "web-ids";
  policy.tp_dst = 80;
  policy.action = ctrl::PolicyAction::kRedirect;
  policy.service_chain = {svc::ServiceType::kIntrusionDetection};
  stream.push_back(ha::PolicyAddedRecord{policy});
  stream.push_back(ha::PolicyRemovedRecord{1});
  stream.push_back(ha::DefaultActionRecord{ctrl::PolicyAction::kAllow});
  const MacAddress se_mac = MacAddress::from_uint64(0x5E);
  stream.push_back(ha::SeUpsertRecord{1, se_mac, Ipv4Address(10, 9, 0, 1),
                                      svc::ServiceType::kIntrusionDetection, 2, 5, 10});
  stream.push_back(ha::SeUpsertRecord{1, se_mac, Ipv4Address(10, 9, 0, 1),
                                      svc::ServiceType::kIntrusionDetection, 2, 5, 20});
  pkt::FlowKey key;
  key.nw_src = Ipv4Address(10, 0, 0, 1);
  key.nw_dst = Ipv4Address(10, 0, 0, 2);
  key.nw_proto = 6;
  key.tp_dst = 23;
  stream.push_back(ha::FlowBlockedRecord{key, 1, 2});
  key.tp_dst = 24;
  stream.push_back(ha::FlowBlockedRecord{key, 1, 2});
  stream.push_back(ha::FlowUnblockedRecord{key});
  // DHCP: config, leases, a re-lease steal, a release, then a reconfig that
  // wipes the pool, then fresh leases.
  stream.push_back(ha::DhcpConfigRecord{Ipv4Address(10, 2, 0, 0), 64, 3600 * kSecond});
  stream.push_back(ha::DhcpLeaseRecord{campus.host(0).mac, Ipv4Address(10, 2, 0, 1), 100});
  stream.push_back(ha::DhcpLeaseRecord{campus.host(1).mac, Ipv4Address(10, 2, 0, 2), 100});
  stream.push_back(ha::DhcpLeaseRecord{campus.host(2).mac, Ipv4Address(10, 2, 0, 1), 200});
  stream.push_back(ha::DhcpReleaseRecord{campus.host(1).mac});
  stream.push_back(ha::DhcpConfigRecord{Ipv4Address(10, 3, 0, 0), 64, 3600 * kSecond});
  stream.push_back(ha::DhcpLeaseRecord{campus.host(3).mac, Ipv4Address(10, 3, 0, 1), 300});

  // Fold the stream; also apply it record-by-record, the way a standby does.
  ha::SnapshotStore store;
  sim::Simulator sim_a;
  ctrl::Controller standby(sim_a);
  for (const auto& body : stream) {
    store.fold(body);
    standby.apply_replicated(body);
  }

  // Importing the folded export must land exactly the standby's state.
  sim::Simulator sim_b;
  ctrl::Controller imported(sim_b);
  imported.import_snapshot(store.export_records());

  const auto standby_export = ha::encode_snapshot_records(standby.export_state());
  const auto imported_export = ha::encode_snapshot_records(imported.export_state());
  EXPECT_EQ(standby_export, imported_export);
  EXPECT_GT(store.stats().ips_displaced, 0u);
  EXPECT_GT(store.stats().entries_erased, 0u);
}

TEST(SnapshotStore, VerdictEpochRaiseDropsFoldedVerdicts) {
  ha::SnapshotStore store;
  const FuzzyDigest digest = FuzzyDigest::of(std::vector<std::uint8_t>(64, 0x11));
  store.fold(ha::VerdictCacheEpochRecord{1});
  store.fold(ha::VerdictLearnedRecord{digest, 1, 5, 3, 1024});
  const std::size_t with_verdict = store.entry_count();
  store.fold(ha::VerdictCacheEpochRecord{2});
  EXPECT_EQ(store.entry_count(), with_verdict - 1);
  // Stale epoch replays keep the max.
  store.fold(ha::VerdictCacheEpochRecord{1});
  const auto records = store.export_records();
  bool saw_epoch = false;
  for (const auto& body : records) {
    if (const auto* e = std::get_if<ha::VerdictCacheEpochRecord>(&body)) {
      saw_epoch = true;
      EXPECT_EQ(e->epoch, 2u);
    }
  }
  EXPECT_TRUE(saw_epoch);
}

/// Every row `events` ingests live (ids and times assigned), in order.
std::vector<mon::NetworkEvent> append_events(mon::EventPipeline& events, int count) {
  std::vector<mon::NetworkEvent> rows;
  events.set_ingest_observer([&rows](const mon::NetworkEvent& e) { rows.push_back(e); });
  for (int i = 0; i < count; ++i) {
    mon::NetworkEvent ev;
    ev.time = i * kMillisecond;
    ev.type = mon::EventType::kHostJoin;
    ev.set_subject("host" + std::to_string(i % 4));
    events.append(std::move(ev));
  }
  events.set_ingest_observer(nullptr);
  return rows;
}

// The store keeps the newest batches that hold the bound, and an importer of
// what it keeps rebuilds the active pipeline's full tier exactly, although
// its rows start mid-segment and mid staging run (ids 64..96: the importer
// must stage and seal id 96 as the active did).
TEST(SnapshotStore, EventBatchesTrimToTheBound) {
  mon::EventPipeline::Config config;
  config.segment_rows = 8;
  config.staging_rows = 4;
  config.full_segments = 2;
  const std::size_t bound = ha::SnapshotStore::event_rows_for(config);
  ASSERT_EQ(bound, 32u);  // (2 + 2) * 8
  mon::EventPipeline active(config);
  const auto rows = append_events(active, 96);

  ha::SnapshotStore store(bound);
  for (std::size_t i = 0; i < rows.size(); i += 3) {  // batches of 3 rows
    store.fold(ha::EventBatchRecord{
        mon::EventPipeline::encode_rows(std::span(rows.data() + i, 3))});
  }
  // 33 rows held: dropping one more batch would leave fewer than the bound.
  EXPECT_EQ(store.event_batch_count(), 11u);
  EXPECT_EQ(store.stats().batches_compacted, 21u);

  mon::EventPipeline importer(config);
  for (const ha::RecordBody& body : store.export_records()) {
    ASSERT_TRUE(importer.restore_rows(std::get<ha::EventBatchRecord>(body).blob));
  }
  EXPECT_EQ(importer.counters().restored_rows, 33u);
  EXPECT_EQ(importer.export_row_batches(), active.export_row_batches());
  EXPECT_EQ(importer.to_json(0, kSecond), active.to_json(0, kSecond));

  // Corrupt blobs are counted, never folded.
  store.fold(ha::EventBatchRecord{{0x00, 0x01, 0x02}});
  EXPECT_EQ(store.stats().fold_failures, 1u);
  EXPECT_EQ(store.event_batch_count(), 11u);
}

// An unbounded pipeline keeps every row, so the store keeps every batch.
TEST(SnapshotStore, UnboundedPipelineKeepsEveryEventBatch) {
  const mon::EventPipeline::Config config;
  ASSERT_EQ(config.full_segments, 0u);
  ASSERT_EQ(ha::SnapshotStore::event_rows_for(config), 0u);
  mon::EventPipeline active(config);
  const auto rows = append_events(active, 100);

  ha::SnapshotStore store(ha::SnapshotStore::event_rows_for(config));
  for (std::size_t i = 0; i < rows.size(); i += 5) {
    store.fold(ha::EventBatchRecord{
        mon::EventPipeline::encode_rows(std::span(rows.data() + i, 5))});
  }
  EXPECT_EQ(store.event_batch_count(), 20u);
  EXPECT_EQ(store.stats().batches_compacted, 0u);

  sim::Simulator sim;
  ctrl::Controller imported(sim);
  imported.import_snapshot(store.export_records());
  EXPECT_EQ(imported.events().size(), 100u);
  ASSERT_NE(imported.events().by_id(rows[0].id), nullptr);
  EXPECT_EQ(imported.events().by_id(rows[0].id)->subject_string(), "host0");
}

// --- cluster integration -----------------------------------------------------------

// Regression for the silently-dropped corrupt delivery: a receiver that
// failed to decode dropped the delivery without a trace. Every corrupt
// delivery must land in stats().decode_failures, and the resync machinery
// must still converge the standby — when every frame is corrupt (all records
// arrive via resync) and when only some are.
TEST(HaCluster, CorruptDeliveriesCountedAndRepairedPipeline) {
  struct Case {
    double probability;
    std::uint64_t seed;
  };
  for (const Case c : {Case{1.0, ha::FaultPlan{}.seed}, Case{0.5, 11}}) {
    SCOPED_TRACE(testing::Message() << "corrupt p=" << c.probability << " seed=" << c.seed);
    ha::FaultPlan plan;
    plan.replication_corrupt_probability = c.probability;
    plan.seed = c.seed;

    Network network;
    network.enable_ha(1, {}, plan);
    auto& backbone = network.add_legacy_switch("backbone");
    auto& ovs1 = network.add_as_switch("ovs1", backbone);
    auto& ovs2 = network.add_as_switch("ovs2", backbone);
    auto& alice = network.add_host("alice", ovs1);
    auto& bob = network.add_host("bob", ovs2);
    network.start();

    net::UdpCbrApp stream(alice, {.dst = bob.ip(), .rate_bps = 1e6, .duration = 1 * kSecond});
    stream.start();
    network.run_for(2 * kSecond);

    ha::HaCluster* cluster = network.ha_cluster();
    const auto& stats = cluster->stats();
    EXPECT_GT(stats.decode_failures, 0u);
    EXPECT_GT(stats.retransmits, 0u);
    EXPECT_EQ(cluster->applied_seq(1), cluster->log().head_seq());
    EXPECT_NE(cluster->node_controller(1).routing().find(alice.mac()), nullptr);
    EXPECT_NE(cluster->status_json().find("\"decode_failures\":"), std::string::npos);
  }
}

// Frames cost one delivery event per standby per flush window, not one per
// record: at any real churn the pipeline's event count collapses.
TEST(HaCluster, FramesCollapseDeliveryEvents) {
  Network network;
  network.enable_ha(1);
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs1 = network.add_as_switch("ovs1", backbone);
  network.add_host("alice", ovs1);
  network.add_host("bob", ovs1);
  network.start();
  network.run_for(1 * kSecond);

  // Burst: many records inside one flush window.
  ha::HaCluster* cluster = network.ha_cluster();
  const std::uint64_t deliveries_before = cluster->stats().deliveries_scheduled;
  scenario::CampusGenerator campus({});
  for (std::uint32_t i = 0; i < 100; ++i) {
    const scenario::CampusHost h = campus.host(i);
    cluster->replicate(ha::HostLearnedRecord{h.mac, h.ip, h.dpid, h.port, 0});
  }
  network.run_for(100 * kMillisecond);
  const std::uint64_t deliveries = cluster->stats().deliveries_scheduled - deliveries_before;
  EXPECT_LE(deliveries, 10u) << "100 records should ship in a handful of frames";
  EXPECT_GT(cluster->stats().frames_published, 0u);
  EXPECT_GT(cluster->stats().bytes_published, 0u);
  EXPECT_EQ(cluster->applied_seq(1), cluster->log().head_seq());
}

// A standby stranded past the log's truncation point bootstraps from the
// folded snapshot store in bounded chunks, then resync lands the tail.
TEST(HaCluster, ChunkedImportBootstrapsStrandedStandby) {
  ha::FaultPlan plan;
  plan.replication_drop_probability = 1.0;  // no live deliveries at all
  ha::HaCluster::Config config;
  // Snapshot faster than resync (and never on the same tick), so truncation
  // strands the standby before it can stream the tail from the log.
  config.snapshot_interval = 50 * kMillisecond;
  config.resync_interval = 180 * kMillisecond;
  config.snapshot_import_chunk = 16;

  Network network;
  network.enable_ha(1, config, plan);
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs1 = network.add_as_switch("ovs1", backbone);
  auto& alice = network.add_host("alice", ovs1);
  network.add_host("bob", ovs1);
  network.start();
  network.run_for(200 * kMillisecond);

  // Enough distinct records that the folded export spans several chunks.
  ha::HaCluster* cluster = network.ha_cluster();
  scenario::CampusGenerator campus({});
  for (std::uint32_t i = 0; i < 150; ++i) {
    const scenario::CampusHost h = campus.host(i);
    cluster->replicate(ha::HostLearnedRecord{h.mac, h.ip, h.dpid, h.port, 0});
  }
  network.run_for(2 * kSecond);

  const auto& stats = cluster->stats();
  EXPECT_GT(stats.snapshots_imported, 0u);
  // ~155 folded records at chunk=16 must take many slices, not one event.
  EXPECT_GE(stats.snapshot_chunks_applied, 5u) << "import must be sliced, not one event";
  EXPECT_FALSE(cluster->importing(1));
  EXPECT_EQ(cluster->applied_seq(1), cluster->log().head_seq());
  ctrl::Controller& standby = cluster->node_controller(1);
  EXPECT_NE(standby.routing().find(alice.mac()), nullptr);
  EXPECT_NE(standby.routing().find(campus.host(149).mac), nullptr);
  EXPECT_GE(standby.routing().size(), 150u);
}

// With coalescing enabled, a quiesced standby's exported state is
// byte-identical to the active's: coalescing drops wire records, never state.
TEST(HaCluster, StandbyExportByteIdenticalUnderCoalescing) {
  // A wide flush window spans several 2s SE heartbeats, so the same-key
  // SeUpsert/HostLearned refreshes coalesce inside one frame.
  ha::HaCluster::Config config;
  config.replication_flush_records = 10000;
  config.replication_flush_bytes = 1 << 20;
  config.replication_flush_interval = 5 * kSecond;

  Network network;
  network.enable_ha(1, config);
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs1 = network.add_as_switch("ovs1", backbone);
  auto& ovs2 = network.add_as_switch("ovs2", backbone);
  network.add_host("alice", ovs1);
  network.add_host("bob", ovs2);
  network.add_service_element(svc::ServiceType::kIntrusionDetection, ovs2);
  network.start();

  ctrl::Policy policy;
  policy.name = "deny-telnet";
  policy.tp_dst = 23;
  policy.action = ctrl::PolicyAction::kDeny;
  network.controller().policies().add(policy);

  // ARP/heartbeat-driven workload only: data traffic refreshes last_seen
  // without replicating, which no replication protocol can mirror.
  network.run_for(7 * kSecond);

  // Quiesce: push the open window out and let the frame deliver.
  ha::HaCluster* cluster = network.ha_cluster();
  cluster->flush_replication();
  network.run_for(100 * kMillisecond);
  ASSERT_EQ(cluster->applied_seq(1), cluster->log().head_seq());
  EXPECT_GT(cluster->stats().records_coalesced, 0u);
  const auto active_export =
      ha::encode_snapshot_records(network.controller().export_state());
  const auto standby_export =
      ha::encode_snapshot_records(cluster->node_controller(1).export_state());
  EXPECT_EQ(active_export, standby_export);
}

// A standby bootstrapped from the snapshot store while the active holds far
// more events than the store's bound exports the active's state byte for
// byte: the retained batches start mid-segment, and the importer's segments
// still land on the active's boundaries.
TEST(HaCluster, BootstrappedStandbyExportsTheActivesEventTier) {
  ctrl::Controller::Config controller_config;
  controller_config.event_store_capacity = 64;  // 4 full segments of 16 rows
  controller_config.event_replication_batch = 7;  // batches straddle segments
  controller_config.housekeeping_interval = 200 * kMillisecond;
  ha::FaultPlan plan;
  plan.replication_drop_probability = 1.0;  // the log is the only source
  ha::HaCluster::Config config;
  config.resync_interval = 180 * kMillisecond;
  config.snapshot_interval = kSecond;  // the lag cap strands the standby
  config.snapshot_import_chunk = 16;

  Network network{controller_config};
  network.enable_ha(1, config, plan);
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs1 = network.add_as_switch("ovs1", backbone);
  network.add_host("alice", ovs1);
  network.start();
  network.run_for(750 * kMillisecond);  // t = 950 ms

  // Unapplied at the 1 s snapshot tick: strands the standby, and the
  // 1080 ms resync starts an import of the store's retained batches.
  ctrl::Controller& active = network.controller();
  for (int i = 0; i < 1000; ++i) {
    mon::NetworkEvent ev;
    ev.time = network.sim().now();
    ev.type = mon::EventType::kFlowStart;
    ev.set_subject(mon::Subject::mac(MacAddress::from_uint64(0x020000000000ull + i % 50)));
    active.events().append(std::move(ev));
  }
  network.run_for(kSecond);

  ha::HaCluster* cluster = network.ha_cluster();
  ctrl::Controller& standby = cluster->node_controller(1);
  const std::uint64_t last_id = active.events().counters().appended;
  bool quiesced = false;
  for (int slice = 0; slice < 200 && !quiesced; ++slice) {
    cluster->flush_replication();
    network.run_for(10 * kMillisecond);
    quiesced = cluster->pipeline().empty() && !cluster->importing(1) &&
               cluster->applied_seq(1) == cluster->log().head_seq() &&
               standby.events().by_id(last_id) != nullptr;
  }
  ASSERT_TRUE(quiesced);
  EXPECT_GT(cluster->stats().snapshots_imported, 0u);
  EXPECT_GT(cluster->snapshot_store().stats().batches_compacted, 0u);
  // The standby never held the oldest rows, yet holds the active's tier.
  EXPECT_LT(standby.events().counters().restored_rows, last_id);
  EXPECT_EQ(standby.events().size(), active.events().size());
  EXPECT_EQ(ha::encode_snapshot_records(active.export_state()),
            ha::encode_snapshot_records(standby.export_state()));
}

// The resync tick truncates the log at the standby's applied position, so
// the log holds about one resync interval of records rather than every
// record since the last snapshot tick — and never strands the standby.
TEST(HaCluster, LogTruncatesAtAppliedHorizon) {
  Network network;
  network.enable_ha(1);  // default Config: 5 s snapshots, 100 ms resync
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs1 = network.add_as_switch("ovs1", backbone);
  network.add_host("alice", ovs1);
  network.add_host("bob", ovs1);
  network.start();
  // Half an interval off the resync grid, so every burst lands (and is
  // applied) well before the tick that truncates it.
  const SimTime interval = ha::HaCluster::Config{}.resync_interval;
  network.run_for(interval / 2);

  ha::HaCluster* cluster = network.ha_cluster();
  scenario::CampusGenerator campus({});
  constexpr std::uint32_t kPerInterval = 250;
  std::size_t log_max = 0;
  for (std::uint32_t burst = 0; burst < 10; ++burst) {  // 2500 records over 1 s
    for (std::uint32_t i = 0; i < kPerInterval; ++i) {
      const scenario::CampusHost h = campus.host(burst * kPerInterval + i);
      cluster->replicate(ha::HostLearnedRecord{h.mac, h.ip, h.dpid, h.port, 0});
    }
    network.run_for(interval);
    log_max = std::max(log_max, cluster->log().size());
  }

  EXPECT_LT(log_max, kPerInterval) << "log must not hold more than one resync interval";
  EXPECT_GE(cluster->log().truncated_through(), 10u * kPerInterval);
  const auto& stats = cluster->stats();
  EXPECT_EQ(stats.snapshots_taken, 0u);
  EXPECT_EQ(stats.snapshots_imported, 0u);
  EXPECT_EQ(cluster->applied_seq(1), cluster->log().head_seq());
}

// Truncation under a lossy, delayed and reordering channel with two standbys
// never passes the slowest standby: every gap is still repaired from the log
// (retransmits, no snapshot import), and both standbys end byte-identical to
// the active.
TEST(HaCluster, TruncationNeverStrandsLossyStandbysPipeline) {
  ha::FaultPlan plan;
  plan.seed = 23;
  plan.replication_drop_probability = 0.3;
  plan.replication_delay_probability = 0.2;
  plan.replication_reorder_probability = 0.2;
  const ha::HaCluster::Config config;

  Network network;
  network.enable_ha(2, config, plan);
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs1 = network.add_as_switch("ovs1", backbone);
  auto& ovs2 = network.add_as_switch("ovs2", backbone);
  network.add_host("alice", ovs1);
  network.add_host("bob", ovs2);
  network.add_service_element(svc::ServiceType::kIntrusionDetection, ovs2);
  network.start();

  // Policy churn only: data traffic refreshes last_seen without replicating,
  // which would break the byte-identical export (see the coalescing test).
  ha::HaCluster* cluster = network.ha_cluster();
  for (std::uint16_t step = 0; step < 20; ++step) {
    for (std::uint16_t k = 0; k < 8; ++k) {
      ctrl::Policy policy;
      policy.name = "deny-" + std::to_string(step) + "-" + std::to_string(k);
      policy.tp_dst = static_cast<std::uint16_t>(1000 + step * 8 + k);
      policy.action = ctrl::PolicyAction::kDeny;
      network.controller().policies().add(policy);
    }
    network.run_for(config.resync_interval);
    if (cluster->log().size() > 0) {
      const std::uint64_t slowest = std::min(cluster->applied_seq(1), cluster->applied_seq(2));
      EXPECT_LE(cluster->log().base_seq(), slowest + 1) << "step " << step;
    }
    EXPECT_EQ(cluster->stats().snapshots_imported, 0u) << "step " << step;
  }
  EXPECT_GT(cluster->stats().records_dropped, 0u);
  EXPECT_GT(cluster->stats().retransmits, 0u);
  EXPECT_GT(cluster->log().truncated_through(), 0u);

  // Quiesce: wait for a moment both standbys hold everything published.
  bool quiesced = false;
  for (int slice = 0; slice < 100 && !quiesced; ++slice) {
    cluster->flush_replication();
    network.run_for(10 * kMillisecond);
    quiesced = cluster->pipeline().empty() &&
               cluster->applied_seq(1) == cluster->log().head_seq() &&
               cluster->applied_seq(2) == cluster->log().head_seq();
  }
  ASSERT_TRUE(quiesced);
  EXPECT_EQ(cluster->stats().snapshots_imported, 0u);
  const auto active_export = ha::encode_snapshot_records(network.controller().export_state());
  for (std::size_t node = 1; node <= 2; ++node) {
    EXPECT_EQ(active_export,
              ha::encode_snapshot_records(cluster->node_controller(node).export_state()))
        << "node " << node;
  }
}

// A chunked import that spans resync ticks keeps the log from its
// import_through position: once the import lands, the records published
// meanwhile stream from the log instead of forcing a second import.
TEST(HaCluster, TruncationKeepsTailForImportingStandby) {
  ha::FaultPlan plan;
  plan.replication_drop_probability = 1.0;  // the log is the only source
  ha::HaCluster::Config config;
  config.resync_interval = 180 * kMillisecond;  // ticks at 900 and 1080 ms…
  config.snapshot_interval = kSecond;           // …straddle the 1 s lag cap
  config.replication_latency = 30 * kMillisecond;  // import chunk pacing
  config.snapshot_import_chunk = 16;

  Network network;
  network.enable_ha(1, config, plan);
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs1 = network.add_as_switch("ovs1", backbone);
  network.add_host("alice", ovs1);
  network.start();
  network.run_for(750 * kMillisecond);  // t = 950 ms

  ha::HaCluster* cluster = network.ha_cluster();
  scenario::CampusGenerator campus({});
  auto publish = [&](std::uint32_t first, std::uint32_t count) {
    for (std::uint32_t i = first; i < first + count; ++i) {
      const scenario::CampusHost h = campus.host(i);
      cluster->replicate(ha::HostLearnedRecord{h.mac, h.ip, h.dpid, h.port, 0});
    }
  };
  // Unapplied at the 1 s snapshot tick: strands the standby, and the 1080 ms
  // resync starts a ~10-chunk import paced 30 ms apart.
  publish(0, 150);
  network.run_for(150 * kMillisecond);  // t = 1100 ms
  ASSERT_TRUE(cluster->importing(1));
  publish(150, 50);
  network.run_for(200 * kMillisecond);  // t = 1300 ms: the 1260 ms tick ran
  ASSERT_TRUE(cluster->importing(1)) << "import must span a resync tick";
  network.run_for(600 * kMillisecond);  // import lands; the 1440 ms tick catches up

  const auto& stats = cluster->stats();
  EXPECT_EQ(stats.snapshots_taken, 1u);
  EXPECT_EQ(stats.snapshots_imported, 1u) << "truncation stranded the importing standby";
  EXPECT_GT(stats.retransmits, 0u);
  EXPECT_FALSE(cluster->importing(1));
  EXPECT_EQ(cluster->applied_seq(1), cluster->log().head_seq());
  EXPECT_NE(cluster->node_controller(1).routing().find(campus.host(199).mac), nullptr);
}

// S6: the WebUI surfaces the pipeline counters in both renderings.
TEST(HaCluster, WebUiRendersPipelineCounters) {
  Network network;
  network.enable_ha(1);
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs1 = network.add_as_switch("ovs1", backbone);
  network.add_host("alice", ovs1);
  network.add_host("bob", ovs1);
  network.start();
  network.run_for(1 * kSecond);

  ha::HaCluster* cluster = network.ha_cluster();
  ASSERT_GT(cluster->stats().frames_published, 0u);

  mon::WebUi ui(network.controller());
  ui.set_ha_status_provider([cluster] { return cluster->status_json(); });
  ui.set_ha_text_provider([cluster] { return cluster->status_text(); });

  const std::string json = ui.snapshot_json(0, kSecond);
  for (const char* field : {"\"frames_published\":", "\"bytes_published\":",
                            "\"records_coalesced\":", "\"decode_failures\":",
                            "\"deliveries_scheduled\":", "\"snapshot_chunks_applied\":",
                            "\"truncated_through\":"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  EXPECT_EQ(json.find("\"frames_published\":0,"), std::string::npos)
      << "frames_published must reflect real traffic";

  const std::string text = ui.snapshot_text(0, kSecond);
  EXPECT_NE(text.find("--- high availability ---"), std::string::npos);
  EXPECT_NE(text.find("frames: published="), std::string::npos);
  EXPECT_NE(text.find("decode_failures="), std::string::npos);
  EXPECT_NE(text.find("coalesced="), std::string::npos);
  EXPECT_NE(text.find(" truncated_through="), std::string::npos);
}

}  // namespace
}  // namespace livesec
