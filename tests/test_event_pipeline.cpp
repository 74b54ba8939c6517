// Tests for the event-storm monitoring pipeline (DESIGN.md §12): columnar
// segments with zone maps, streaming rollups, retention tiers, and the
// row-batch HA export/restore path. The pipeline must stay
// query-equivalent to a naive row-at-a-time filter on any event stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "monitor/column_store.h"
#include "monitor/event_pipeline.h"
#include "monitor/rollup.h"
#include "tiny_json.h"

namespace livesec::mon {
namespace {

using livesec::testing::TinyJsonValidator;

NetworkEvent make_event(SimTime t, EventType type, std::string_view subject = "s") {
  NetworkEvent e;
  e.time = t;
  e.type = type;
  e.set_subject(subject);
  return e;
}

/// Deterministic pseudo-random stream (xorshift64*): varied types, subjects,
/// details, severities, sparse flow keys, occasional time stalls.
std::vector<NetworkEvent> synthetic_stream(std::size_t n, std::uint64_t seed = 0x9E3779B9) {
  std::vector<NetworkEvent> out;
  out.reserve(n);
  std::uint64_t x = seed;
  SimTime t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    const std::uint64_t r = x * 0x2545F4914F6CDD1DULL;
    NetworkEvent e;
    t += static_cast<SimTime>(r % 3);  // stalls and jumps
    e.time = t;
    e.type = static_cast<EventType>(1 + (r % 23));
    // Text, MAC and SE subjects; text, typed and empty details.
    if (r % 3 == 0) {
      e.set_subject(Subject::mac(MacAddress::from_uint64(0x020000000000ull + r % 13)));
    } else if (r % 7 == 0) {
      e.set_subject(Subject::se(r % 5));
    } else {
      e.set_subject("host-" + std::to_string(r % 17));
    }
    if (r % 5 == 0) {
      e.set_detail("rule-" + std::to_string(r % 7));
    } else if (r % 13 == 0) {
      e.set_detail(Detail::flow_counters(r % 1000, r % 100'000));
    } else if (r % 17 == 0) {
      e.set_detail(Detail::flow_path(r % 3));
    }
    e.severity = static_cast<std::uint8_t>(r % 10);
    e.dpid = r % 8;
    e.se_id = r % 4;
    if (r % 11 == 0) {
      e.flow.nw_src = Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(r % 250));
      e.flow.nw_dst = Ipv4Address(10, 0, 1, 1);
      e.flow.nw_proto = 6;
      e.flow.tp_src = static_cast<std::uint16_t>(1024 + r % 1000);
      e.flow.tp_dst = 80;
    }
    out.push_back(std::move(e));
  }
  return out;
}

bool same_event(const NetworkEvent& a, const NetworkEvent& b) { return a == b; }

// --- TopK --------------------------------------------------------------------

/// A Top-K key as the rollups build it from a rendered subject.
SubjectKey key(std::string_view rendered) { return SubjectKey::parse(rendered); }

TEST(TopK, HeavyHitterAlwaysSurvives) {
  // Misra-Gries guarantee: any key with frequency > N / capacity survives.
  TopK sketch(4);
  for (int i = 0; i < 1000; ++i) {
    sketch.ingest(key("heavy"));
    sketch.ingest(key("noise-" + std::to_string(i)));  // 1000 distinct light keys
  }
  const auto top = sketch.top(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].first, "heavy");
  EXPECT_EQ(sketch.ingested(), 2000u);
  EXPECT_LE(sketch.entries(), 4u);
}

TEST(TopK, TopOrderIsDeterministic) {
  TopK sketch(8);
  for (int i = 0; i < 3; ++i) sketch.ingest(key("bbb"));
  for (int i = 0; i < 3; ++i) sketch.ingest(key("aaa"));
  for (int i = 0; i < 5; ++i) sketch.ingest(key("ccc"));
  const auto top = sketch.top(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].first, "ccc");
  EXPECT_EQ(top[1].first, "aaa");  // tie with bbb: key-ascending
  EXPECT_EQ(top[2].first, "bbb");
}

// Typed keys tie-break on their rendering, not their numeric value or kind:
// se10 < se9 < zed, and a MAC before text.
TEST(TopK, TypedKeysTieBreakOnRenderedString) {
  TopK sketch(8);
  sketch.ingest(SubjectKey{SubjectKind::kSe, 9, {}});
  sketch.ingest(key("zed"));
  sketch.ingest(SubjectKey{SubjectKind::kSe, 10, {}});
  sketch.ingest(SubjectKey{SubjectKind::kMac, 0x0200000000ffull, {}});
  const auto top = sketch.top(4);
  ASSERT_EQ(top.size(), 4u);
  EXPECT_EQ(top[0].first, "02:00:00:00:00:ff");
  EXPECT_EQ(top[1].first, "se10");
  EXPECT_EQ(top[2].first, "se9");
  EXPECT_EQ(top[3].first, "zed");
}

TEST(TopK, CodecRoundTrips) {
  TopK sketch(16);
  for (int i = 0; i < 100; ++i) sketch.ingest(key("k" + std::to_string(i % 7)));
  sketch.ingest(SubjectKey{SubjectKind::kSe, 4, {}});
  sketch.ingest(SubjectKey{SubjectKind::kMac, 0x020000000001ull, {}});
  pkt::BufferWriter w;
  sketch.encode(w);
  const auto bytes = w.take();
  pkt::BufferReader r(bytes);
  auto rt = TopK::decode(r);
  ASSERT_TRUE(rt.has_value());
  EXPECT_EQ(rt->ingested(), sketch.ingested());
  EXPECT_EQ(rt->top(9), sketch.top(9));
}

// --- RollupStore -------------------------------------------------------------

TEST(RollupStore, CountsMatchNaiveAggregation) {
  const auto stream = synthetic_stream(5000);
  RollupStore rollups(/*bucket_width=*/100, /*topk_capacity=*/64);
  std::uint64_t id = 1;
  for (auto e : stream) {
    e.id = id++;
    rollups.ingest(e);
  }
  const SimTime horizon = stream.back().time + 1;
  // Bucket-aligned windows are exact: compare against a naive recount.
  for (SimTime from = 0; from < horizon; from += 700) {
    const SimTime to = from + 700;
    std::uint64_t naive_all = 0;
    std::uint64_t naive_attacks = 0;
    for (const auto& e : stream) {
      if (e.time >= from && e.time < to) {
        ++naive_all;
        if (e.type == EventType::kAttackDetected) ++naive_attacks;
      }
    }
    EXPECT_EQ(rollups.count_all(from, to), naive_all) << "window [" << from << "," << to << ")";
    EXPECT_EQ(rollups.count_type(EventType::kAttackDetected, from, to), naive_attacks);
  }
  EXPECT_EQ(rollups.total(), stream.size());
}

TEST(RollupStore, PruneDropsWholeBuckets) {
  RollupStore rollups(/*bucket_width=*/10, /*topk_capacity=*/8);
  for (SimTime t = 0; t < 100; ++t) rollups.ingest(make_event(t, EventType::kFlowStart));
  const auto before = rollups.bucket_count();
  rollups.prune_before(50);  // buckets [0,10) .. [40,50) end at or before 50
  EXPECT_EQ(rollups.bucket_count(), before - 5);
  EXPECT_EQ(rollups.pruned_buckets(), 5u);
  EXPECT_EQ(rollups.count_all(0, 50), 0u);
  EXPECT_EQ(rollups.count_all(50, 100), 50u);
}

TEST(RollupStore, CodecRoundTripsCountsAndTopK) {
  RollupStore rollups(/*bucket_width=*/50, /*topk_capacity=*/32);
  std::uint64_t id = 1;
  for (auto e : synthetic_stream(2000)) {
    e.id = id++;
    rollups.ingest(e);
  }
  pkt::BufferWriter w;
  rollups.encode(w);
  const auto bytes = w.take();
  pkt::BufferReader r(bytes);
  auto rt = RollupStore::decode(r);
  ASSERT_TRUE(rt.has_value());
  EXPECT_EQ(rt->total(), rollups.total());
  EXPECT_EQ(rt->bucket_count(), rollups.bucket_count());
  EXPECT_EQ(rt->count_all(0, 10'000), rollups.count_all(0, 10'000));
  EXPECT_EQ(rt->subjects().top(10), rollups.subjects().top(10));
  EXPECT_EQ(rt->protocols().top(10), rollups.protocols().top(10));
}

TEST(RollupStore, JsonIsValid) {
  RollupStore rollups(/*bucket_width=*/100, /*topk_capacity=*/16);
  std::uint64_t id = 1;
  for (auto e : synthetic_stream(500)) {
    e.id = id++;
    e.set_subject("we\"ird\\subject");  // escaping must hold in top-K tables too
    rollups.ingest(e);
  }
  const std::string json = rollups.to_json(0, 100'000, 5);
  EXPECT_TRUE(TinyJsonValidator::valid(json)) << json;
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
  EXPECT_NE(json.find("\"top_subjects\""), std::string::npos);
}

// --- Segment -----------------------------------------------------------------

Segment sealed_segment(std::size_t rows, std::uint64_t first_id = 1) {
  Segment segment(rows);
  std::uint64_t id = first_id;
  SimTime prev = 0;
  for (auto e : synthetic_stream(rows, /*seed=*/first_id * 77 + 13)) {
    e.id = id++;
    e.time = std::max(e.time, prev);
    prev = e.time;
    segment.append(e);
  }
  segment.seal();
  return segment;
}

TEST(Segment, RoundTripsEveryRowThroughBlob) {
  const Segment segment = sealed_segment(257);
  const auto blob = segment.encode_blob();
  const auto rt = Segment::decode_blob(blob);
  ASSERT_TRUE(rt.has_value());
  ASSERT_EQ(rt->rows(), segment.rows());
  for (std::size_t i = 0; i < segment.rows(); ++i) {
    EXPECT_TRUE(same_event(rt->row(i), segment.row(i))) << "row " << i;
  }
  EXPECT_EQ(rt->zone().time_min, segment.zone().time_min);
  EXPECT_EQ(rt->zone().time_max, segment.zone().time_max);
  EXPECT_EQ(rt->zone().id_min, segment.zone().id_min);
  EXPECT_EQ(rt->zone().id_max, segment.zone().id_max);
  EXPECT_EQ(rt->zone().type_mask, segment.zone().type_mask);
}

TEST(Segment, DictionarySharesDuplicateStrings) {
  Segment segment;
  for (std::uint64_t i = 1; i <= 1000; ++i) {
    NetworkEvent e = make_event(static_cast<SimTime>(i), EventType::kFlowStart,
                                i % 2 ? "alice" : "bob");
    e.id = i;
    e.set_detail("same-detail");
    segment.append(e);
  }
  segment.seal();
  // 1000 text rows but only 2 distinct texts (subject + detail): the
  // dictionary keeps memory far below one-string-per-row.
  EXPECT_LT(segment.memory_bytes(), 1000 * sizeof(NetworkEvent) / 2);
  EXPECT_TRUE(segment.may_contain_subject(SubjectKey::parse("alice")));
  EXPECT_TRUE(segment.may_contain_subject(SubjectKey::parse("bob")));
  EXPECT_FALSE(segment.may_contain_subject(SubjectKey::parse("mallory")));
}

TEST(Segment, ZonePredicatesPrune) {
  const Segment segment = sealed_segment(64);
  const SegmentZone& zone = segment.zone();
  EXPECT_TRUE(zone.overlaps(zone.time_min, zone.time_max + 1));
  EXPECT_FALSE(zone.overlaps(zone.time_max + 1, zone.time_max + 100));
  EXPECT_TRUE(zone.covers_id(zone.id_min));
  EXPECT_TRUE(zone.covers_id(zone.id_max));
  EXPECT_FALSE(zone.covers_id(zone.id_max + 1));
}

TEST(Segment, DecodeRejectsTruncationAtEveryByte) {
  const auto blob = sealed_segment(32).encode_blob();
  for (std::size_t len = 0; len < blob.size(); ++len) {
    const auto truncated = std::span<const std::uint8_t>(blob.data(), len);
    EXPECT_FALSE(Segment::decode_blob(truncated).has_value()) << "len=" << len;
  }
}

TEST(Segment, DecodeRejectsCorruptHeader) {
  const auto blob = sealed_segment(16).encode_blob();
  {
    auto bad = blob;
    bad[0] ^= 0xFF;  // magic
    EXPECT_FALSE(Segment::decode_blob(bad).has_value());
  }
  {
    auto bad = blob;
    bad[4] ^= 0xFF;  // version
    EXPECT_FALSE(Segment::decode_blob(bad).has_value());
  }
  {
    auto bad = blob;
    // Row count claims 0xFFFFFFFF: must be rejected before any reserve.
    bad[5] = bad[6] = bad[7] = bad[8] = 0xFF;
    EXPECT_FALSE(Segment::decode_blob(bad).has_value());
  }
}

// Byte-flip fuzz: decode either rejects the blob or yields a segment whose
// invariants hold — never a crash, never dangling dictionary references.
TEST(Segment, DecodeSurvivesSingleByteCorruption) {
  const auto blob = sealed_segment(48).encode_blob();
  for (std::size_t i = 0; i < blob.size(); ++i) {
    auto bad = blob;
    bad[i] ^= 0x55;
    const auto rt = Segment::decode_blob(bad);
    if (!rt.has_value()) continue;
    for (std::size_t row = 0; row < rt->rows(); ++row) {
      const NetworkEvent e = rt->row(row);  // must not touch out-of-range dict slots
      EXPECT_LE(e.time, rt->zone().time_max);
    }
  }
}

// --- ColumnStore -------------------------------------------------------------

TEST(ColumnStore, SealsAtSegmentRowsAndKeepsAllRows) {
  ColumnStore store(/*segment_rows=*/64);
  std::uint64_t id = 1;
  SimTime prev = 0;
  std::size_t seals = 0;
  for (auto e : synthetic_stream(1000)) {
    e.id = id++;
    e.time = std::max(e.time, prev);
    prev = e.time;
    if (store.append(e)) ++seals;
  }
  EXPECT_EQ(store.rows(), 1000u);
  EXPECT_EQ(store.sealed_segments(), 1000u / 64);
  EXPECT_EQ(seals, store.sealed_segments());
  std::size_t visited = 0;
  SimTime last = 0;
  store.scan_range(0, 1'000'000, [&](const NetworkEvent& e) {
    EXPECT_GE(e.time, last);
    last = e.time;
    ++visited;
  });
  EXPECT_EQ(visited, 1000u);
}

// Segment boundaries follow ids, not row counts: rows that start mid-block
// (a replica bootstrapped from retained row batches) seal one short segment
// at the block end and then the same segments as a store that saw every id.
TEST(ColumnStore, SealsAtIdBlockEndsWhenRowsStartMidBlock) {
  const auto row = [](std::uint64_t id) {
    NetworkEvent e = make_event(static_cast<SimTime>(id), EventType::kFlowStart);
    e.id = id;
    return e;
  };
  ColumnStore store(/*segment_rows=*/8);
  for (std::uint64_t id = 5; id <= 20; ++id) store.append(row(id));
  ASSERT_EQ(store.sealed_segments(), 2u);
  EXPECT_EQ(store.sealed()[0].zone().id_min, 5u);
  EXPECT_EQ(store.sealed()[0].zone().id_max, 8u);
  EXPECT_EQ(store.sealed()[1].zone().id_min, 9u);
  EXPECT_EQ(store.sealed()[1].zone().id_max, 16u);
  EXPECT_EQ(store.open_segment().zone().id_min, 17u);
  EXPECT_EQ(store.rows(), 16u);

  // A gap across a block boundary closes the open segment before the row.
  ColumnStore gapped(/*segment_rows=*/8);
  for (std::uint64_t id : {1ULL, 2ULL, 3ULL, 11ULL, 12ULL}) gapped.append(row(id));
  ASSERT_EQ(gapped.sealed_segments(), 1u);
  EXPECT_EQ(gapped.sealed()[0].zone().id_max, 3u);
  EXPECT_EQ(gapped.open_segment().zone().id_min, 11u);

  // The same through a pipeline restoring a batch that starts mid-block.
  EventPipeline::Config config;
  config.segment_rows = 8;
  config.staging_rows = 4;
  std::vector<NetworkEvent> rows;
  for (std::uint64_t id = 5; id <= 20; ++id) rows.push_back(row(id));
  EventPipeline replica(config);
  ASSERT_TRUE(replica.restore_rows(EventPipeline::encode_rows(rows)));
  const auto segments = replica.export_segment_blobs();
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(Segment::decode_blob(segments[0])->zone().id_max, 8u);
  EXPECT_EQ(Segment::decode_blob(segments[1])->zone().id_max, 16u);
}

TEST(ColumnStore, FindIdAcrossSegments) {
  ColumnStore store(/*segment_rows=*/32);
  for (std::uint64_t i = 1; i <= 200; ++i) {
    NetworkEvent e = make_event(static_cast<SimTime>(i), EventType::kFlowStart,
                                "h" + std::to_string(i));
    e.id = i;
    store.append(e);
  }
  for (std::uint64_t id : {1ULL, 31ULL, 32ULL, 33ULL, 100ULL, 200ULL}) {
    const NetworkEvent* found = store.find_id(id);
    ASSERT_NE(found, nullptr) << id;
    EXPECT_EQ(found->id, id);
    EXPECT_EQ(found->subject_string(), "h" + std::to_string(id));
  }
  EXPECT_EQ(store.find_id(0), nullptr);
  EXPECT_EQ(store.find_id(201), nullptr);
}

TEST(ColumnStore, TypeScanMatchesRangeScanFilter) {
  ColumnStore store(/*segment_rows=*/128);
  std::uint64_t id = 1;
  SimTime prev = 0;
  std::vector<NetworkEvent> rows;
  for (auto e : synthetic_stream(3000)) {
    e.id = id++;
    e.time = std::max(e.time, prev);
    prev = e.time;
    rows.push_back(e);
    store.append(e);
  }
  const SimTime from = rows[1000].time;
  const SimTime to = rows[2500].time;
  std::vector<std::uint64_t> via_type;
  store.scan_type(EventType::kVirusFound, from, to,
                  [&](const NetworkEvent& e) { via_type.push_back(e.id); });
  std::vector<std::uint64_t> via_filter;
  for (const auto& e : rows) {
    if (e.type == EventType::kVirusFound && e.time >= from && e.time < to) {
      via_filter.push_back(e.id);
    }
  }
  EXPECT_EQ(via_type, via_filter);
}

// --- EventPipeline: query equivalence with a naive row store -----------------

/// The legacy EventStore's semantics as a plain vector: clamp and number on
/// append, answer every query by filtering all rows, compare subjects as
/// rendered strings.
class NaiveStore {
 public:
  std::uint64_t append(NetworkEvent e) {
    if (!rows_.empty() && e.time < rows_.back().time) {
      e.time = rows_.back().time;
      ++clamped_;
    }
    e.id = rows_.size() + 1;
    rows_.push_back(std::move(e));
    return rows_.back().id;
  }
  std::size_t size() const { return rows_.size(); }
  std::uint64_t clamped() const { return clamped_; }
  std::vector<NetworkEvent> query_range(SimTime from, SimTime to) const {
    return filter([&](const NetworkEvent& e) { return e.time >= from && e.time < to; });
  }
  std::vector<NetworkEvent> query_type(EventType type, SimTime from, SimTime to) const {
    return filter(
        [&](const NetworkEvent& e) { return e.type == type && e.time >= from && e.time < to; });
  }
  std::vector<NetworkEvent> query_subject(const std::string& subject, std::size_t limit) const {
    std::vector<NetworkEvent> out;
    for (auto it = rows_.rbegin(); it != rows_.rend() && out.size() < limit; ++it) {
      if (it->subject_string() == subject) out.push_back(*it);
    }
    return out;
  }
  std::vector<std::pair<EventType, std::size_t>> histogram() const {
    std::vector<std::pair<EventType, std::size_t>> out;
    for (std::size_t slot = 0; slot < kEventTypeSlots; ++slot) {
      const auto n = static_cast<std::size_t>(std::count_if(
          rows_.begin(), rows_.end(),
          [slot](const NetworkEvent& e) { return static_cast<std::size_t>(e.type) == slot; }));
      if (n > 0) out.emplace_back(static_cast<EventType>(slot), n);
    }
    return out;
  }
  std::string to_json(SimTime from, SimTime to) const {
    std::string out = "[";
    for (const NetworkEvent& e : query_range(from, to)) {
      if (out.size() > 1) out += ",";
      out += e.to_json();
    }
    return out + "]";
  }
  const NetworkEvent* by_id(std::uint64_t id) const {
    return (id >= 1 && id <= rows_.size()) ? &rows_[id - 1] : nullptr;
  }

 private:
  template <typename Pred>
  std::vector<NetworkEvent> filter(Pred pred) const {
    std::vector<NetworkEvent> out;
    std::copy_if(rows_.begin(), rows_.end(), std::back_inserter(out), pred);
    return out;
  }

  std::vector<NetworkEvent> rows_;
  std::uint64_t clamped_ = 0;
};

TEST(EventPipeline, MatchesLegacyEventStoreOnSameStream) {
  const auto stream = synthetic_stream(4000);
  NaiveStore legacy;
  EventPipeline::Config config;
  config.segment_rows = 128;  // force many seals
  config.staging_rows = 32;
  EventPipeline pipeline(config);
  for (const auto& e : stream) {
    const auto a = legacy.append(e);
    const auto b = pipeline.append(e);
    EXPECT_EQ(a, b);
  }
  ASSERT_EQ(pipeline.size(), legacy.size());
  EXPECT_EQ(pipeline.clamped(), legacy.clamped());

  const SimTime horizon = stream.back().time + 1;
  for (SimTime from = 0; from < horizon; from += horizon / 7 + 1) {
    const SimTime to = from + horizon / 5 + 1;
    const auto lhs = pipeline.query_range(from, to);
    const auto rhs = legacy.query_range(from, to);
    ASSERT_EQ(lhs.size(), rhs.size()) << "[" << from << "," << to << ")";
    for (std::size_t i = 0; i < lhs.size(); ++i) {
      EXPECT_TRUE(same_event(lhs[i], rhs[i])) << "row " << i;
    }
    EXPECT_EQ(pipeline.to_json(from, to), legacy.to_json(from, to));
  }

  for (const EventType type :
       {EventType::kAttackDetected, EventType::kFlowStart, EventType::kSwitchJoin}) {
    const auto lhs = pipeline.query_type(type, 0, horizon);
    const auto rhs = legacy.query_type(type, 0, horizon);
    ASSERT_EQ(lhs.size(), rhs.size());
    for (std::size_t i = 0; i < lhs.size(); ++i) EXPECT_EQ(lhs[i].id, rhs[i].id);
  }

  for (const char* subject : {"host-0", "host-7", "host-16", "missing", "02:00:00:00:00:05",
                              "02:00:00:00:00:0c", "se3", "se0", "se03"}) {
    const auto lhs = pipeline.query_subject(subject, 25);
    const auto rhs = legacy.query_subject(subject, 25);
    ASSERT_EQ(lhs.size(), rhs.size()) << subject;
    for (std::size_t i = 0; i < lhs.size(); ++i) EXPECT_EQ(lhs[i].id, rhs[i].id);
  }

  EXPECT_EQ(pipeline.histogram(), legacy.histogram());

  std::vector<std::uint64_t> lhs_ids;
  std::vector<std::uint64_t> rhs_ids;
  pipeline.replay(0, horizon, [&](const NetworkEvent& e) { lhs_ids.push_back(e.id); });
  for (const NetworkEvent& e : legacy.query_range(0, horizon)) rhs_ids.push_back(e.id);
  EXPECT_EQ(lhs_ids, rhs_ids);

  for (std::uint64_t id : {1ULL, 100ULL, 3999ULL, 4000ULL, 4001ULL}) {
    const auto* lhs = pipeline.by_id(id);
    const auto* rhs = legacy.by_id(id);
    ASSERT_EQ(lhs == nullptr, rhs == nullptr) << id;
    if (lhs != nullptr) {
      EXPECT_TRUE(same_event(*lhs, *rhs));
    }
  }
}

TEST(EventPipeline, BatchAndRowIngestProduceIdenticalState) {
  const auto stream = synthetic_stream(2000);
  EventPipeline::Config config;
  config.segment_rows = 256;
  config.staging_rows = 64;
  EventPipeline row_by_row(config);
  for (const auto& e : stream) row_by_row.append(e);

  EventPipeline batched(config);
  std::vector<NetworkEvent> batch;
  std::size_t appended = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    batch.push_back(stream[i]);
    if (batch.size() == 97 || i + 1 == stream.size()) {  // uneven batch cuts
      appended += batched.append_batch(std::exchange(batch, {}));
    }
  }
  EXPECT_EQ(appended, stream.size());
  EXPECT_GT(batched.counters().batches, 0u);
  // Same rows, same ids, same segment cuts: byte-identical serialization.
  EXPECT_EQ(batched.serialize(), row_by_row.serialize());
  EXPECT_EQ(batched.rollup_json(0, 1'000'000), row_by_row.rollup_json(0, 1'000'000));
}

TEST(EventPipeline, ClampsBackwardsTimeAndCounts) {
  EventPipeline pipeline;
  pipeline.append(make_event(100, EventType::kFlowStart));
  const auto late = pipeline.append(make_event(40, EventType::kFlowEnd));
  EXPECT_EQ(pipeline.clamped(), 1u);
  const auto* row = pipeline.by_id(late);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->time, 100);
}

// Every controller owns a pipeline, most of which see few events: the staging
// buffer is reserved on the first row, not at construction.
TEST(EventPipeline, StagingReservedOnFirstRowAndDrainsAtStagingRows) {
  const EventPipeline idle;
  const std::size_t staging_bytes = idle.config().staging_rows * sizeof(NetworkEvent);
  EXPECT_LT(idle.memory_bytes(), staging_bytes);

  EventPipeline::Config config;
  config.segment_rows = 16;
  config.staging_rows = 16;
  EventPipeline pipeline(config);
  pipeline.append(make_event(1, EventType::kFlowStart));
  EXPECT_GE(pipeline.memory_bytes(), config.staging_rows * sizeof(NetworkEvent));
  for (SimTime t = 2; t < 16; ++t) pipeline.append(make_event(t, EventType::kFlowStart));
  EXPECT_EQ(pipeline.counters().segments_sealed, 0u) << "15 rows must still be staged";
  pipeline.append(make_event(16, EventType::kFlowEnd));
  EXPECT_EQ(pipeline.counters().segments_sealed, 1u) << "the 16th row drains staging";
  EXPECT_EQ(pipeline.size(), 16u);
}

TEST(EventPipeline, ConfigForCapacityMapsRowBound) {
  const auto unbounded = EventPipeline::config_for_capacity(0);
  EXPECT_EQ(unbounded.full_segments, 0u);
  const auto bounded = EventPipeline::config_for_capacity(10'000);
  EXPECT_GT(bounded.full_segments, 0u);
  EXPECT_GE(bounded.full_segments * bounded.segment_rows, 10'000u * 9 / 10);
  const auto tiny = EventPipeline::config_for_capacity(8);
  EXPECT_GE(tiny.segment_rows, 16u);
  EXPECT_GE(tiny.full_segments, 1u);
}

// --- EventPipeline: retention ------------------------------------------------

TEST(EventPipeline, RetentionBoundsRowsAndMemory) {
  EventPipeline::Config config;
  config.segment_rows = 64;
  config.staging_rows = 16;
  config.full_segments = 4;
  config.summary_segments = 4;
  config.rollup_bucket = 100;
  EventPipeline pipeline(config);
  for (auto& e : synthetic_stream(50'000)) pipeline.append(std::move(e));

  // Full-fidelity rows: at most full tier + open segment + staging.
  const std::size_t row_bound =
      (config.full_segments + 1) * config.segment_rows + config.staging_rows;
  EXPECT_LE(pipeline.size(), row_bound);
  EXPECT_LE(pipeline.summary_count(), config.summary_segments);
  EXPECT_GT(pipeline.counters().segments_downsampled, 0u);
  EXPECT_GT(pipeline.counters().segments_evicted, 0u);
  EXPECT_EQ(pipeline.counters().appended, 50'000u);

  // Memory is a small multiple of the retained window, nowhere near the
  // full 50k-row stream.
  EXPECT_LT(pipeline.memory_bytes(), row_bound * 400);

  // The newest rows are still fully queryable.
  const auto* newest = pipeline.by_id(50'000);
  ASSERT_NE(newest, nullptr);
  // Summarized spans still answer from rollups: histogram covers more rows
  // than are retained at full fidelity.
  std::size_t histogram_total = 0;
  for (const auto& [type, count] : pipeline.histogram()) histogram_total += count;
  EXPECT_GT(histogram_total, pipeline.size());
}

// --- EventPipeline: persistence ----------------------------------------------

TEST(EventPipeline, SerializeRoundTripsQueriesAndResumesIds) {
  EventPipeline::Config config;
  config.segment_rows = 128;
  config.staging_rows = 32;
  EventPipeline pipeline(config);
  for (auto& e : synthetic_stream(1500)) pipeline.append(std::move(e));

  const auto blob = pipeline.serialize();
  auto restored = EventPipeline::deserialize(blob, config);
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), pipeline.size());
  EXPECT_EQ(restored->to_json(0, 1'000'000), pipeline.to_json(0, 1'000'000));
  EXPECT_EQ(restored->rollup_json(0, 1'000'000), pipeline.rollup_json(0, 1'000'000));
  EXPECT_EQ(restored->sealed_segments(), pipeline.sealed_segments());
  // Id allocation resumes: the next append gets a fresh id.
  const auto next = restored->append(make_event(1'000'000, EventType::kFlowStart));
  EXPECT_EQ(next, 1501u);
}

TEST(EventPipeline, DeserializeRejectsTruncationAtEveryStride) {
  EventPipeline pipeline;
  for (auto& e : synthetic_stream(300)) pipeline.append(std::move(e));
  const auto blob = pipeline.serialize();
  // Every prefix must be rejected; stride 7 keeps the loop fast while still
  // hitting every field boundary class.
  for (std::size_t len = 0; len < blob.size(); len += 7) {
    const auto truncated = std::span<const std::uint8_t>(blob.data(), len);
    EXPECT_FALSE(EventPipeline::deserialize(truncated).has_value()) << "len=" << len;
  }
  auto bad = blob;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(EventPipeline::deserialize(bad).has_value());
}

// --- EventPipeline: HA export/restore ----------------------------------------

TEST(EventPipeline, RowBatchCodecRoundTripsAndRejectsCorruption) {
  const auto stream = synthetic_stream(64);
  std::vector<NetworkEvent> rows;
  std::uint64_t id = 1;
  SimTime prev = 0;
  for (auto e : stream) {
    e.id = id++;
    e.time = std::max(e.time, prev);
    prev = e.time;
    rows.push_back(std::move(e));
  }
  const auto blob = EventPipeline::encode_rows(rows);
  const auto rt = EventPipeline::decode_rows(blob);
  ASSERT_TRUE(rt.has_value());
  ASSERT_EQ(rt->size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) EXPECT_TRUE(same_event((*rt)[i], rows[i]));
  for (std::size_t len = 0; len < blob.size(); len += 5) {
    const auto truncated = std::span<const std::uint8_t>(blob.data(), len);
    EXPECT_FALSE(EventPipeline::decode_rows(truncated).has_value()) << "len=" << len;
  }
}

TEST(EventPipeline, RowBatchRestoreRebuildsStandbyReplayWindow) {
  EventPipeline::Config config;
  config.segment_rows = 128;
  config.staging_rows = 32;
  EventPipeline active(config);
  for (auto& e : synthetic_stream(1000)) active.append(std::move(e));

  const auto batches = active.export_row_batches();
  ASSERT_EQ(batches.size(), active.sealed_segments() + 1);  // 1000 % 128 rows open
  EventPipeline standby(config);
  for (const auto& blob : batches) ASSERT_TRUE(standby.restore_rows(blob));

  ASSERT_EQ(standby.size(), active.size());
  EXPECT_EQ(standby.to_json(0, 1'000'000), active.to_json(0, 1'000'000));
  EXPECT_EQ(standby.rollup_json(0, 1'000'000), active.rollup_json(0, 1'000'000));
  // The standby seals its own segments, on the active's boundaries.
  EXPECT_EQ(standby.export_segment_blobs(), active.export_segment_blobs());
  EXPECT_EQ(standby.export_row_batches(), batches);
  // Restores are idempotent: replaying the same blobs dedupes on id.
  const auto size_before = standby.size();
  for (const auto& blob : batches) standby.restore_rows(blob);
  EXPECT_EQ(standby.size(), size_before);
  EXPECT_GT(standby.counters().restore_skipped, 0u);
  // After catching up, the standby allocates past the active's ids.
  const auto next = standby.append(make_event(1'000'000, EventType::kFlowStart));
  EXPECT_EQ(next, 1001u);
}

TEST(EventPipeline, RestoreRejectsCorruptBlobs) {
  EventPipeline pipeline;
  EXPECT_FALSE(pipeline.restore_rows(std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(pipeline.size(), 0u);
}

TEST(EventPipeline, IngestObserverSeesLiveRowsButNotRestores) {
  EventPipeline pipeline;
  std::vector<std::uint64_t> observed;
  pipeline.set_ingest_observer([&](const NetworkEvent& e) { observed.push_back(e.id); });
  pipeline.append(make_event(1, EventType::kFlowStart));
  pipeline.append(make_event(2, EventType::kFlowEnd));
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed[0], 1u);

  // Rows arriving through the restore path (replication echo) must not
  // re-enter the observer, or the active/standby pair would ping-pong.
  EventPipeline other;
  other.append(make_event(5, EventType::kHostJoin));
  std::vector<NetworkEvent> rows;
  other.replay(0, 100, [&](const NetworkEvent& e) { rows.push_back(e); });
  EXPECT_TRUE(pipeline.restore_rows(EventPipeline::encode_rows(rows)));
  EXPECT_EQ(observed.size(), 2u);
}

}  // namespace
}  // namespace livesec::mon
