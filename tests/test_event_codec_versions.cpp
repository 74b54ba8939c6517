// Event codec versioning: segment blobs (v2), row batches (v3) and the
// whole-store blob (v2) carry typed rows. Blobs written by the previous,
// string-based codecs must be rejected cleanly by every reader — the
// decoders, whole-store load, row restore and the HA delivery path — never
// misread as typed rows.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ha/cluster.h"
#include "monitor/column_store.h"
#include "monitor/event_pipeline.h"
#include "net/network.h"
#include "packet/buffer.h"

namespace livesec {
namespace {

constexpr std::uint32_t kSegmentMagic = 0x4C534547;  // "LSEG"
constexpr std::uint32_t kRowsMagic = 0x4C424154;     // "LBAT"
constexpr std::uint32_t kPipelineMagic = 0x4C504950;  // "LPIP"

/// One row as the string-based codecs stored it.
struct OldRow {
  std::uint64_t id;
  SimTime time;
  mon::EventType type;
  std::string subject;
  std::string detail;
};

const std::vector<OldRow> kOldRows = {
    {1, 10, mon::EventType::kFlowStart, "02:00:00:00:00:01", "[flow] via 1 SE"},
    {2, 20, mon::EventType::kFlowEnd, "02:00:00:00:00:01", "pkts=3 bytes=180"},
};

/// A v1 segment blob: every subject/detail dictionary-encoded, u32 refs.
std::vector<std::uint8_t> v1_segment_blob() {
  pkt::BufferWriter w;
  w.u32(kSegmentMagic);
  w.u8(1);
  w.u32(static_cast<std::uint32_t>(kOldRows.size()));
  w.u64(static_cast<std::uint64_t>(kOldRows.front().time));
  w.u64(static_cast<std::uint64_t>(kOldRows.back().time));
  w.u64(kOldRows.front().id);
  w.u64(kOldRows.back().id);
  w.u32((1u << 8) | (1u << 9));  // type mask
  w.u8(0);                       // max severity
  const std::vector<std::string> dict = {kOldRows[0].subject, kOldRows[0].detail,
                                         kOldRows[1].detail};
  w.u32(static_cast<std::uint32_t>(dict.size()));
  for (const std::string& s : dict) w.length_prefixed_string(s);
  for (const OldRow& row : kOldRows) w.u64(row.id);
  for (const OldRow& row : kOldRows) w.u64(static_cast<std::uint64_t>(row.time));
  for (const OldRow& row : kOldRows) w.u8(static_cast<std::uint8_t>(row.type));
  for (std::uint32_t ref : {0u, 0u}) w.u32(ref);  // subjects
  for (std::uint32_t ref : {1u, 2u}) w.u32(ref);  // details
  for (std::size_t i = 0; i < kOldRows.size(); ++i) w.u64(1);  // dpids
  for (std::size_t i = 0; i < kOldRows.size(); ++i) w.u64(0);  // se ids
  for (std::size_t i = 0; i < kOldRows.size(); ++i) w.u8(0);   // severities
  w.u32(0);                                                    // no flow keys
  return w.take();
}

/// A v2 row batch: id-range header, then rows with u16-prefixed strings.
std::vector<std::uint8_t> v2_row_batch() {
  pkt::BufferWriter w;
  w.u32(kRowsMagic);
  w.u8(2);
  w.u32(static_cast<std::uint32_t>(kOldRows.size()));
  w.u64(kOldRows.front().id);
  w.u64(kOldRows.back().id);
  for (const OldRow& row : kOldRows) {
    w.u64(row.id);
    w.u64(static_cast<std::uint64_t>(row.time));
    w.u8(static_cast<std::uint8_t>(row.type));
    w.length_prefixed_string(row.subject);
    w.length_prefixed_string(row.detail);
    w.u64(1);  // dpid
    w.u64(0);  // se id
    w.u8(0);   // severity
    pkt::FlowKey{}.encode(w);
  }
  return w.take();
}

mon::EventPipeline typed_pipeline() {
  mon::EventPipeline::Config config;
  config.segment_rows = 4;
  config.staging_rows = 1;
  mon::EventPipeline pipeline(config);
  for (int i = 0; i < 6; ++i) {
    mon::NetworkEvent e;
    e.time = i;
    e.set_subject(mon::Subject::mac(MacAddress::from_uint64(0x020000000001ull)));
    e.set_detail(mon::Detail::flow_counters(i, 60 * i));
    pipeline.append(std::move(e));
  }
  return pipeline;
}

TEST(EventCodecVersion, CurrentBlobsCarryTheTypedVersions) {
  const mon::EventPipeline pipeline = typed_pipeline();
  const auto segments = pipeline.export_segment_blobs();
  ASSERT_FALSE(segments.empty());
  EXPECT_EQ(segments.front()[4], 2);             // segment v2
  EXPECT_EQ(pipeline.export_open_rows()[4], 3);  // row batch v3
  EXPECT_EQ(pipeline.serialize()[4], 2);         // whole store v2
  // And they round-trip, so the rejections below are about the version.
  EXPECT_TRUE(mon::Segment::decode_blob(segments.front()).has_value());
  EXPECT_TRUE(mon::EventPipeline::decode_rows(pipeline.export_open_rows()).has_value());
}

/// An empty pipeline's whole-store blob with `segment` spliced in as its one
/// sealed segment (the segment count sits after magic, version, next id,
/// last time, clamped count and the empty summary tier).
std::vector<std::uint8_t> store_with_segment(const std::vector<std::uint8_t>& segment) {
  constexpr std::size_t kSegmentCountAt = 4 + 1 + 8 + 8 + 8 + 4;
  const std::vector<std::uint8_t> empty = mon::EventPipeline().serialize();
  pkt::BufferWriter w;
  w.bytes(std::span(empty.data(), kSegmentCountAt));
  w.u32(1);
  w.u32(static_cast<std::uint32_t>(segment.size()));
  w.bytes(segment);
  w.bytes(std::span(empty.data() + kSegmentCountAt + 4, empty.size() - kSegmentCountAt - 4));
  return w.take();
}

TEST(EventCodecVersion, OldSegmentBlobIsRejected) {
  const auto blob = v1_segment_blob();
  EXPECT_FALSE(mon::Segment::decode_blob(blob).has_value());
  // Segments reach a pipeline only inside a whole-store blob; a current
  // segment spliced in loads, the v1 one does not.
  EXPECT_TRUE(mon::EventPipeline::deserialize(
                  store_with_segment(typed_pipeline().export_segment_blobs().front()))
                  .has_value());
  EXPECT_FALSE(mon::EventPipeline::deserialize(store_with_segment(blob)).has_value());
  // The same bytes relabelled as the current version are not typed rows
  // either: the v1 body fails the v2 structural checks.
  auto relabelled = blob;
  relabelled[4] = 2;
  EXPECT_FALSE(mon::Segment::decode_blob(relabelled).has_value());
}

TEST(EventCodecVersion, OldRowBatchIsRejected) {
  const auto blob = v2_row_batch();
  EXPECT_FALSE(mon::EventPipeline::peek_rows(blob).has_value());
  EXPECT_FALSE(mon::EventPipeline::decode_rows(blob).has_value());
  mon::EventPipeline pipeline;
  EXPECT_FALSE(pipeline.restore_rows(blob));
  EXPECT_EQ(pipeline.size(), 0u);
  auto relabelled = blob;
  relabelled[4] = 3;
  EXPECT_FALSE(mon::EventPipeline::decode_rows(relabelled).has_value());
}

TEST(EventCodecVersion, OldWholeStoreBlobIsRejected) {
  auto blob = typed_pipeline().serialize();
  ASSERT_TRUE(mon::EventPipeline::deserialize(blob).has_value());
  blob[4] = 1;
  EXPECT_FALSE(mon::EventPipeline::deserialize(blob).has_value());
  pkt::BufferWriter w;  // a bare v1 header
  w.u32(kPipelineMagic);
  w.u8(1);
  EXPECT_FALSE(mon::EventPipeline::deserialize(w.take()).has_value());
}

// An old-version event record reaching a standby is consumed and counted in
// decode_failures; the standby keeps applying the records after it and its
// event database holds only what it could decode.
TEST(EventCodecVersion, HaDeliveryCountsOldBlobsAsDecodeFailures) {
  net::Network network;
  network.enable_ha(1);
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs = network.add_as_switch("ovs", backbone);
  auto& alice = network.add_host("alice", ovs);
  network.start();
  ha::HaCluster* cluster = network.ha_cluster();
  ASSERT_NE(cluster, nullptr);
  network.run_for(500 * kMillisecond);
  const std::uint64_t failures_before = cluster->stats().decode_failures;

  // A v2 batch, and the same bytes relabelled v3 (untyped rows fail the v3
  // row checks).
  auto relabelled = v2_row_batch();
  relabelled[4] = 3;
  cluster->replicate(ha::EventBatchRecord{v2_row_batch()});
  cluster->replicate(ha::EventBatchRecord{relabelled});
  network.run_for(500 * kMillisecond);

  EXPECT_EQ(cluster->stats().decode_failures, failures_before + 2);
  EXPECT_EQ(cluster->applied_seq(1), cluster->log().head_seq());
  const ctrl::Controller& standby = cluster->node_controller(1);
  EXPECT_NE(standby.routing().find(alice.mac()), nullptr);
  EXPECT_TRUE(standby.events().query_subject(kOldRows.front().subject, 10).empty());
}

}  // namespace
}  // namespace livesec
