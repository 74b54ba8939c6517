// Unit tests for the monitoring subsystem: event store queries and replay,
// service-aware monitoring, aggregate flow control. The EventStore suite
// runs on EventPipeline, the controller's event store.
#include <gtest/gtest.h>

#include <cctype>
#include <span>
#include <string>
#include <vector>

#include "monitor/event_pipeline.h"
#include "tiny_json.h"
#include "monitor/monitoring.h"

namespace livesec::mon {
namespace {

NetworkEvent make_event(SimTime t, EventType type, std::string_view subject = "s") {
  NetworkEvent e;
  e.time = t;
  e.type = type;
  e.set_subject(subject);
  return e;
}

TEST(EventStore, AppendAssignsMonotonicIds) {
  EventPipeline store;
  const auto a = store.append(make_event(1, EventType::kHostJoin));
  const auto b = store.append(make_event(2, EventType::kFlowStart));
  EXPECT_LT(a, b);
  EXPECT_EQ(store.size(), 2u);
  ASSERT_NE(store.by_id(a), nullptr);
  EXPECT_EQ(store.by_id(a)->type, EventType::kHostJoin);
  EXPECT_EQ(store.by_id(999), nullptr);
}

TEST(EventStore, RangeQueryIsHalfOpen) {
  EventPipeline store;
  for (SimTime t = 0; t < 100; t += 10) store.append(make_event(t, EventType::kFlowStart));
  const auto events = store.query_range(20, 50);
  ASSERT_EQ(events.size(), 3u);  // 20, 30, 40
  EXPECT_EQ(events.front().time, 20);
  EXPECT_EQ(events.back().time, 40);
}

TEST(EventStore, TypeQueryFilters) {
  EventPipeline store;
  store.append(make_event(1, EventType::kHostJoin));
  store.append(make_event(2, EventType::kAttackDetected));
  store.append(make_event(3, EventType::kHostJoin));
  EXPECT_EQ(store.query_type(EventType::kHostJoin, 0, 100).size(), 2u);
  EXPECT_EQ(store.query_type(EventType::kAttackDetected, 0, 100).size(), 1u);
  EXPECT_EQ(store.query_type(EventType::kAttackDetected, 3, 100).size(), 0u);
}

TEST(EventStore, SubjectQueryReturnsMostRecentFirst) {
  EventPipeline store;
  store.append(make_event(1, EventType::kFlowStart, "alice"));
  store.append(make_event(2, EventType::kFlowStart, "bob"));
  store.append(make_event(3, EventType::kFlowEnd, "alice"));
  const auto events = store.query_subject("alice", 10);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].time, 3);
  EXPECT_EQ(events[1].time, 1);
  EXPECT_EQ(store.query_subject("alice", 1).size(), 1u);
}

TEST(EventStore, ReplayPreservesOrderAndBounds) {
  EventPipeline store;
  for (SimTime t = 0; t < 50; t += 5) store.append(make_event(t, EventType::kFlowStart));
  std::vector<SimTime> seen;
  const std::size_t count = store.replay(10, 30, [&](const NetworkEvent& e) {
    seen.push_back(e.time);
  });
  EXPECT_EQ(count, 4u);
  EXPECT_EQ(seen, (std::vector<SimTime>{10, 15, 20, 25}));
}

// Property: replay over [0, inf) reproduces exactly the appended sequence.
TEST(EventStore, FullReplayEqualsOriginalSequence) {
  EventPipeline store;
  std::vector<std::uint64_t> appended;
  for (int i = 0; i < 200; ++i) {
    appended.push_back(
        store.append(make_event(i * 3, static_cast<EventType>(1 + (i % 10)))));
  }
  std::vector<std::uint64_t> replayed;
  store.replay(0, 1'000'000, [&](const NetworkEvent& e) { replayed.push_back(e.id); });
  EXPECT_EQ(replayed, appended);
}

/// A pipeline that keeps one sealed segment of `segment_rows` full rows
/// (plus the open segment) and downsamples older ones.
EventPipeline bounded_store(std::size_t segment_rows) {
  EventPipeline::Config config;
  config.segment_rows = segment_rows;
  config.staging_rows = 1;
  config.full_segments = 1;
  return EventPipeline(config);
}

TEST(EventStore, CapacityEvictsOldest) {
  EventPipeline store = bounded_store(4);
  for (SimTime t = 0; t < 10; ++t) store.append(make_event(t, EventType::kFlowStart));
  // Rows 1-4 were sealed and then downsampled; 5-8 are sealed, 9-10 open.
  EXPECT_EQ(store.size(), 6u);
  EXPECT_EQ(store.query_range(0, 100).front().time, 4);
  EXPECT_EQ(store.by_id(1), nullptr);   // evicted
  EXPECT_NE(store.by_id(10), nullptr);  // newest survives
}

// Regression (previously a debug-only assert): an event whose time runs
// backwards is clamped to the last accepted time and counted, instead of
// silently corrupting the binary-searchable time order in release builds.
TEST(EventStore, BackwardsTimeIsClampedAndCounted) {
  EventPipeline store;
  store.append(make_event(100, EventType::kFlowStart));
  const auto late = store.append(make_event(40, EventType::kFlowEnd));
  store.append(make_event(150, EventType::kFlowStart));
  EXPECT_EQ(store.clamped(), 1u);
  ASSERT_NE(store.by_id(late), nullptr);
  EXPECT_EQ(store.by_id(late)->time, 100);  // clamped, not 40
  // The clamped event is findable by time queries (it would be invisible at
  // its original out-of-order position).
  EXPECT_EQ(store.query_range(100, 101).size(), 2u);
  EXPECT_EQ(store.query_range(0, 100).size(), 0u);
}

// Regression for the O(n) front-erase eviction: sustained capacity churn
// (every append evicts) must keep the rolling window exact. With the old
// vector::erase(begin()) this was quadratic; the deque keeps it O(1).
TEST(EventStore, CapacityChurnKeepsExactWindow) {
  constexpr std::size_t kSegmentRows = 1024;
  constexpr std::size_t kAppends = 100'000;
  EventPipeline store = bounded_store(kSegmentRows);
  for (std::size_t i = 0; i < kAppends; ++i) {
    store.append(make_event(static_cast<SimTime>(i), EventType::kFlowStart));
  }
  // The window is one sealed segment plus the open tail, exactly the newest
  // rows, ids and times intact.
  const std::size_t held = kSegmentRows + kAppends % kSegmentRows;
  ASSERT_EQ(store.size(), held);
  const auto window = store.query_range(0, kAppends);
  ASSERT_EQ(window.size(), held);
  EXPECT_EQ(window.front().time, static_cast<SimTime>(kAppends - held));
  EXPECT_EQ(window.back().time, static_cast<SimTime>(kAppends - 1));
  EXPECT_EQ(store.by_id(kAppends - held), nullptr);
  EXPECT_NE(store.by_id(kAppends - held + 1), nullptr);
}

TEST(EventStore, HistogramCountsTypes) {
  EventPipeline store;
  store.append(make_event(1, EventType::kHostJoin));
  store.append(make_event(2, EventType::kHostJoin));
  store.append(make_event(3, EventType::kAttackDetected));
  const auto histogram = store.histogram();
  ASSERT_EQ(histogram.size(), 2u);
}

TEST(EventStore, JsonIsWellFormedArray) {
  EventPipeline store;
  store.append(make_event(1, EventType::kAttackDetected, "he said \"hi\""));
  const std::string json = store.to_json(0, 10);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\\\"hi\\\""), std::string::npos);  // quotes escaped
  EXPECT_NE(json.find("attack_detected"), std::string::npos);
}

// --- JSON escaping -----------------------------------------------------------

TEST(NetworkEvent, JsonEscapesQuotesBackslashesAndControlChars) {
  NetworkEvent e = make_event(1, EventType::kAttackDetected, "a\"b\\c");
  e.set_detail("line1\nline2\ttab\rret\x01\x1f");
  const std::string json = e.to_json();
  EXPECT_TRUE(livesec::testing::TinyJsonValidator::valid(json)) << json;
  EXPECT_NE(json.find("a\\\"b\\\\c"), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_NE(json.find("\\r"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\\u001f"), std::string::npos);
}

// Regression: bytes >= 0x80 (UTF-8 continuation bytes, latin-1 hostnames)
// used to pass through raw; they must be emitted as \u00xx so the output is
// self-contained ASCII JSON regardless of the subject's encoding.
TEST(NetworkEvent, JsonEscapesNonAsciiBytes) {
  NetworkEvent e = make_event(1, EventType::kHostJoin, "caf\xc3\xa9");
  const std::string json = e.to_json();
  EXPECT_TRUE(livesec::testing::TinyJsonValidator::valid(json)) << json;
  EXPECT_NE(json.find("\\u00c3"), std::string::npos);
  EXPECT_NE(json.find("\\u00a9"), std::string::npos);
  EXPECT_EQ(json.find('\xc3'), std::string::npos);
}

// Property: to_json is valid JSON for every possible single-byte subject and
// detail value (exhaustive over the byte range, the dimension that matters).
TEST(NetworkEvent, JsonValidForEveryByteValue) {
  for (int b = 0; b < 256; ++b) {
    NetworkEvent e = make_event(1, EventType::kFlowStart);
    e.set_subject(std::string(1, static_cast<char>(b)));
    e.set_detail("x" + std::string(2, static_cast<char>(b)) + "y");
    const std::string json = e.to_json();
    ASSERT_TRUE(livesec::testing::TinyJsonValidator::valid(json)) << "byte=" << b << " json=" << json;
  }
}

TEST(EventStore, ToJsonSurvivesHostileSubjects) {
  EventPipeline store;
  store.append(make_event(1, EventType::kAttackDetected, "\"],[{"));
  store.append(make_event(2, EventType::kVirusFound, std::string("\x00\x7f\x80\xff", 4)));
  const std::string json = store.to_json(0, 10);
  EXPECT_TRUE(livesec::testing::TinyJsonValidator::valid(json)) << json;
}

// --- serialize / deserialize robustness --------------------------------------

EventPipeline seeded_store() {
  EventPipeline::Config config;
  config.segment_rows = 8;  // sealed segments and an open tail
  EventPipeline store(config);
  for (int i = 0; i < 32; ++i) {
    NetworkEvent e = make_event(i * 10, static_cast<EventType>(1 + (i % 10)),
                                i % 3 ? "host-" + std::to_string(i) : "shared");
    e.set_detail("detail-" + std::to_string(i % 5));
    e.severity = static_cast<std::uint8_t>(i % 10);
    e.dpid = i;
    store.append(std::move(e));
  }
  return store;
}

TEST(EventStore, SerializeRoundTripsAndResumesIds) {
  const EventPipeline store = seeded_store();
  const auto blob = store.serialize();
  auto restored = EventPipeline::deserialize(blob, store.config());
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), store.size());
  const auto original = store.query_range(0, 1'000'000);
  const auto rows = restored->query_range(0, 1'000'000);
  EXPECT_EQ(rows, original);
  // Id allocation resumes past the restored ids.
  const auto next = restored->append(make_event(1000, EventType::kFlowStart));
  EXPECT_GT(next, original.back().id);
}

// Fuzz: every truncation of a valid blob must be rejected cleanly (no crash,
// no partial store), as must corrupted magic/version/count prefixes.
TEST(EventStore, DeserializeRejectsTruncationAtEveryByte) {
  const auto blob = seeded_store().serialize();
  for (std::size_t len = 0; len < blob.size(); ++len) {
    const auto truncated = std::span<const std::uint8_t>(blob.data(), len);
    EXPECT_FALSE(EventPipeline::deserialize(truncated).has_value()) << "len=" << len;
  }
}

TEST(EventStore, DeserializeRejectsBadMagicVersionAndOversizedCount) {
  const auto blob = seeded_store().serialize();
  {
    auto bad = blob;
    bad[0] ^= 0xFF;  // magic
    EXPECT_FALSE(EventPipeline::deserialize(bad).has_value());
  }
  {
    auto bad = blob;
    bad[4] ^= 0xFF;  // version
    EXPECT_FALSE(EventPipeline::deserialize(bad).has_value());
  }
  {
    // The summary count claims ~2^32 entries: must be rejected up front,
    // not looped over. Header: magic(4) version(1) next_id(8) last_time(8)
    // clamped(8), then the count.
    auto bad = blob;
    for (std::size_t i = 29; i < 33; ++i) bad[i] = 0xFF;
    EXPECT_FALSE(EventPipeline::deserialize(bad).has_value());
  }
  EXPECT_FALSE(EventPipeline::deserialize(std::vector<std::uint8_t>{}).has_value());
}

TEST(NetworkEvent, ToStringIncludesSeverityAndDetail) {
  NetworkEvent e = make_event(kSecond, EventType::kAttackDetected, "host1");
  e.set_detail("sql-injection");
  e.severity = 8;
  const std::string s = e.to_string();
  EXPECT_NE(s.find("attack_detected"), std::string::npos);
  EXPECT_NE(s.find("sql-injection"), std::string::npos);
  EXPECT_NE(s.find("sev=8"), std::string::npos);
}

// Text setters store a canonical MAC or "se<id>" as the typed kind, so a
// subject's kind never depends on how it was set, and anything else as text.
TEST(NetworkEvent, SetSubjectParsesOnlyCanonicalForms) {
  const auto kind_of = [](std::string_view subject) {
    NetworkEvent e;
    e.set_subject(subject);
    EXPECT_EQ(e.subject_string(), subject);
    EXPECT_TRUE(e.well_formed()) << subject;
    return e.subject.kind;
  };
  EXPECT_EQ(kind_of(""), SubjectKind::kNone);
  EXPECT_EQ(kind_of("02:00:00:00:00:0b"), SubjectKind::kMac);
  EXPECT_EQ(kind_of("02:00:00:00:00:0B"), SubjectKind::kText);  // not the rendered case
  EXPECT_EQ(kind_of("se7"), SubjectKind::kSe);
  EXPECT_EQ(kind_of("se0"), SubjectKind::kSe);
  EXPECT_EQ(kind_of("se07"), SubjectKind::kText);
  EXPECT_EQ(kind_of("se"), SubjectKind::kText);
  EXPECT_EQ(kind_of("se+7"), SubjectKind::kText);
  EXPECT_EQ(kind_of("se18446744073709551616"), SubjectKind::kText);  // 2^64
  EXPECT_EQ(kind_of("controller"), SubjectKind::kText);
}

// A text subject and a text detail share one string; replacing either keeps
// the other intact, and typed values take no text at all.
TEST(NetworkEvent, TextSubjectAndDetailShareOneString) {
  NetworkEvent e;
  e.set_detail("promoted to active");
  e.set_subject("controller");
  EXPECT_EQ(e.subject_string(), "controller");
  EXPECT_EQ(e.detail_string(), "promoted to active");
  e.set_subject("sw-core");
  EXPECT_EQ(e.detail_string(), "promoted to active");
  e.set_detail(Detail::flow_counters(3, 180));
  EXPECT_EQ(e.text, "sw-core");
  EXPECT_EQ(e.detail_string(), "pkts=3 bytes=180");
  e.set_subject(Subject::se(4));
  EXPECT_TRUE(e.text.empty());
  EXPECT_EQ(e.subject_string(), "se4");
  EXPECT_TRUE(e.well_formed());
  // Kinds and text that disagree are what decoders reject.
  e.text = "stray";
  EXPECT_FALSE(e.well_formed());
  e.text.clear();
  e.subject = Subject{SubjectKind::kText, 3};
  EXPECT_FALSE(e.well_formed());
  e.subject = Subject{SubjectKind::kMac, 1ull << 48};
  EXPECT_FALSE(e.well_formed());
}

// --- ServiceAwareMonitor -----------------------------------------------------------

TEST(ServiceAwareMonitor, TracksDominantApp) {
  ServiceAwareMonitor monitor;
  const MacAddress user = MacAddress::from_uint64(0xA);
  EXPECT_FALSE(monitor.dominant_app(user).has_value());

  monitor.record_flow_identified(user, svc::l7::AppProtocol::kHttp);
  monitor.record_flow_identified(user, svc::l7::AppProtocol::kHttp);
  monitor.record_flow_identified(user, svc::l7::AppProtocol::kSsh);
  EXPECT_EQ(monitor.dominant_app(user), svc::l7::AppProtocol::kHttp);

  // Both HTTP flows end; SSH becomes dominant (the Figure 7 -> 8 shift).
  monitor.record_flow_ended(user, svc::l7::AppProtocol::kHttp);
  monitor.record_flow_ended(user, svc::l7::AppProtocol::kHttp);
  EXPECT_EQ(monitor.dominant_app(user), svc::l7::AppProtocol::kSsh);
}

TEST(ServiceAwareMonitor, NetworkDistributionAggregates) {
  ServiceAwareMonitor monitor;
  monitor.record_flow_identified(MacAddress::from_uint64(1), svc::l7::AppProtocol::kHttp);
  monitor.record_flow_identified(MacAddress::from_uint64(2), svc::l7::AppProtocol::kHttp);
  monitor.record_flow_identified(MacAddress::from_uint64(2), svc::l7::AppProtocol::kBitTorrent);
  const auto dist = monitor.network_distribution();
  EXPECT_EQ(dist.at(svc::l7::AppProtocol::kHttp), 2u);
  EXPECT_EQ(dist.at(svc::l7::AppProtocol::kBitTorrent), 1u);
  EXPECT_EQ(monitor.users().size(), 2u);
}

TEST(ServiceAwareMonitor, TrafficTotalsAccumulateAndRank) {
  ServiceAwareMonitor monitor;
  const MacAddress light = MacAddress::from_uint64(1);
  const MacAddress heavy = MacAddress::from_uint64(2);
  monitor.record_flow_traffic(light, 10, 1000);
  monitor.record_flow_traffic(heavy, 100, 50000);
  monitor.record_flow_traffic(heavy, 200, 70000);

  const auto* totals = monitor.traffic(heavy);
  ASSERT_NE(totals, nullptr);
  EXPECT_EQ(totals->flows, 2u);
  EXPECT_EQ(totals->packets, 300u);
  EXPECT_EQ(totals->bytes, 120000u);
  EXPECT_EQ(monitor.traffic(MacAddress::from_uint64(9)), nullptr);

  const auto ranked = monitor.top_talkers(10);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].first, heavy);
  EXPECT_EQ(ranked[1].first, light);
  EXPECT_EQ(monitor.top_talkers(1).size(), 1u);
}

TEST(ServiceAwareMonitor, EndWithoutStartIsSafe) {
  ServiceAwareMonitor monitor;
  monitor.record_flow_ended(MacAddress::from_uint64(9), svc::l7::AppProtocol::kHttp);
  EXPECT_TRUE(monitor.users().empty());
}

// --- AggregateFlowControl -----------------------------------------------------------

TEST(AggregateFlowControl, EnforcesPerUserPerAppCap) {
  ServiceAwareMonitor monitor;
  AggregateFlowControl control;
  control.set_limit(svc::l7::AppProtocol::kBitTorrent, 2);
  const MacAddress user = MacAddress::from_uint64(0xA);

  EXPECT_TRUE(control.admits(monitor, user, svc::l7::AppProtocol::kBitTorrent));
  monitor.record_flow_identified(user, svc::l7::AppProtocol::kBitTorrent);
  EXPECT_TRUE(control.admits(monitor, user, svc::l7::AppProtocol::kBitTorrent));
  monitor.record_flow_identified(user, svc::l7::AppProtocol::kBitTorrent);
  EXPECT_FALSE(control.admits(monitor, user, svc::l7::AppProtocol::kBitTorrent));

  // A flow ending frees a slot.
  monitor.record_flow_ended(user, svc::l7::AppProtocol::kBitTorrent);
  EXPECT_TRUE(control.admits(monitor, user, svc::l7::AppProtocol::kBitTorrent));
}

TEST(AggregateFlowControl, UnlimitedAppsAlwaysAdmit) {
  ServiceAwareMonitor monitor;
  AggregateFlowControl control;
  control.set_limit(svc::l7::AppProtocol::kBitTorrent, 1);
  const MacAddress user = MacAddress::from_uint64(0xA);
  for (int i = 0; i < 10; ++i) {
    monitor.record_flow_identified(user, svc::l7::AppProtocol::kHttp);
  }
  EXPECT_TRUE(control.admits(monitor, user, svc::l7::AppProtocol::kHttp));
  EXPECT_FALSE(control.limit(svc::l7::AppProtocol::kHttp).has_value());
}

TEST(AggregateFlowControl, LimitsArePerUser) {
  ServiceAwareMonitor monitor;
  AggregateFlowControl control;
  control.set_limit(svc::l7::AppProtocol::kBitTorrent, 1);
  monitor.record_flow_identified(MacAddress::from_uint64(1), svc::l7::AppProtocol::kBitTorrent);
  EXPECT_FALSE(
      control.admits(monitor, MacAddress::from_uint64(1), svc::l7::AppProtocol::kBitTorrent));
  EXPECT_TRUE(
      control.admits(monitor, MacAddress::from_uint64(2), svc::l7::AppProtocol::kBitTorrent));
}

}  // namespace
}  // namespace livesec::mon
