// Tests for the WebUI rendering layer and controller state exposition.
#include <gtest/gtest.h>

#include "common/fuzzy_digest.h"
#include "monitor/webui.h"
#include "net/network.h"
#include "net/traffic.h"
#include "services/verdict_cache.h"
#include "tiny_json.h"

namespace livesec {
namespace {

struct UiNet {
  ctrl::Controller::Config config;
  net::Network network;
  sw::EthernetSwitch& backbone;
  sw::OpenFlowSwitch& ovs;
  sw::WifiAccessPoint& ap;

  static ctrl::Controller::Config make_config() {
    ctrl::Controller::Config c;
    c.stats_interval = 500 * kMillisecond;
    return c;
  }

  UiNet()
      : network(make_config()),
        backbone(network.add_legacy_switch("backbone")),
        ovs(network.add_as_switch("ovs", backbone)),
        ap(network.add_wifi_ap("ap", backbone)) {}
};

/// Naive structural JSON validator: balanced braces/brackets outside
/// strings, no trailing garbage. Catches the classic comma/quote bugs.
bool json_well_formed(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{':
      case '[': ++depth; break;
      case '}':
      case ']':
        if (--depth < 0) return false;
        break;
      default: break;
    }
  }
  return depth == 0 && !in_string;
}

TEST(WebUi, JsonSnapshotIsWellFormedAndComplete) {
  UiNet net;
  auto& host = net.network.add_host("host", net.ovs);
  net.network.add_service_element(svc::ServiceType::kIntrusionDetection, net.ovs);
  net.network.start();
  (void)host;

  mon::WebUi ui(net.network.controller());
  const std::string json = ui.snapshot_json(0, net.network.sim().now());
  EXPECT_TRUE(json_well_formed(json)) << json;
  for (const char* field : {"\"switches\"", "\"nodes\"", "\"users\"", "\"service_elements\"",
                            "\"full_mesh\"", "\"events\"", "\"wifi_ap\"", "\"as_switch\"",
                            "\"routing\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }

  // The host table reports its occupancy and footprint.
  const auto& routing = net.network.controller().routing();
  const std::string hosts_field = "\"hosts\":" + std::to_string(routing.size());
  EXPECT_NE(json.find(hosts_field), std::string::npos) << hosts_field;
  const std::string bytes_field = "\"memory_bytes\":" + std::to_string(routing.memory_bytes());
  EXPECT_NE(json.find(bytes_field), std::string::npos) << bytes_field;

  const std::string text = ui.snapshot_text(0, net.network.sim().now());
  EXPECT_NE(text.find("host table:"), std::string::npos) << text;
}

TEST(WebUi, JsonEscapesHostileSubjects) {
  UiNet net;
  net.network.start();
  mon::NetworkEvent e;
  e.time = net.network.sim().now();
  e.type = mon::EventType::kAttackDetected;
  e.set_subject("quote\" brace} back\\slash");
  net.network.controller().events().append(std::move(e));

  mon::WebUi ui(net.network.controller());
  const std::string json = ui.snapshot_json(0, net.network.sim().now() + 1);
  EXPECT_TRUE(json_well_formed(json)) << json;
}

TEST(WebUi, StatsEndpointSurfacesFastPathCounters) {
  UiNet net;
  auto& a = net.network.add_host("a", net.ovs);
  auto& b = net.network.add_host("b", net.ovs);
  net.network.start();

  // Two UDP flows of the same class: one decision-cache miss, one hit.
  for (std::uint16_t tp_src : {5001, 5002}) {
    pkt::Packet p = pkt::PacketBuilder()
                        .ipv4(a.ip(), b.ip(), pkt::IpProto::kUdp)
                        .udp(tp_src, 80)
                        .payload("x")
                        .build();
    a.send_ip(std::move(p));
    net.network.run_for(100 * kMillisecond);
  }
  const auto& fp = net.network.controller().stats().fastpath;
  ASSERT_GE(fp.decision_cache_misses, 1u);
  ASSERT_GE(fp.decision_cache_hits, 1u);

  mon::WebUi ui(net.network.controller());
  const std::string json = ui.snapshot_json(0, net.network.sim().now());
  EXPECT_TRUE(json_well_formed(json)) << json;
  const auto has_counter = [&](const std::string& name, std::uint64_t value) {
    const std::string needle = "\"" + name + "\":" + std::to_string(value);
    EXPECT_NE(json.find(needle), std::string::npos) << needle << "\n" << json;
  };
  has_counter("decision_cache_hits", fp.decision_cache_hits);
  has_counter("decision_cache_misses", fp.decision_cache_misses);
  has_counter("decision_cache_invalidations", fp.decision_cache_invalidations);
  has_counter("suppressed_packet_ins", fp.suppressed_packet_ins);

  const std::string text = ui.snapshot_text(0, net.network.sim().now());
  EXPECT_NE(text.find("control plane"), std::string::npos);
  EXPECT_NE(text.find("decision cache"), std::string::npos);
}

TEST(WebUi, SwitchLoadAppearsAfterStatsPolling) {
  UiNet net;
  auto& a = net.network.add_host("a", net.ovs);
  auto& b = net.network.add_host("b", net.ovs);
  net.network.start();

  net::UdpCbrApp app(a, {.dst = b.ip(), .rate_bps = 20e6, .duration = 2 * kSecond});
  app.start();
  net.network.run_for(3 * kSecond);

  mon::WebUi ui(net.network.controller());
  const std::string text = ui.snapshot_text(0, net.network.sim().now());
  EXPECT_NE(text.find("load="), std::string::npos) << text;
  const std::string json = ui.snapshot_json(0, net.network.sim().now());
  EXPECT_NE(json.find("\"bps\":"), std::string::npos);
}

TEST(WebUi, ReplayWindowsArePrecise) {
  UiNet net;
  net.network.start();
  auto& events = net.network.controller().events();
  const SimTime t0 = net.network.sim().now();

  mon::NetworkEvent early;
  early.time = t0;
  early.type = mon::EventType::kFlowStart;
  early.set_subject("EARLY-MARKER");
  events.append(early);

  net.network.run_for(1 * kSecond);
  mon::NetworkEvent late;
  late.time = net.network.sim().now();
  late.type = mon::EventType::kFlowEnd;
  late.set_subject("LATE-MARKER");
  events.append(late);

  mon::WebUi ui(net.network.controller());
  const std::string first_window = ui.replay_text(t0, t0 + 500 * kMillisecond);
  EXPECT_NE(first_window.find("EARLY-MARKER"), std::string::npos);
  EXPECT_EQ(first_window.find("LATE-MARKER"), std::string::npos);

  const std::string second_window =
      ui.replay_text(t0 + 500 * kMillisecond, net.network.sim().now() + 1);
  EXPECT_EQ(second_window.find("EARLY-MARKER"), std::string::npos);
  EXPECT_NE(second_window.find("LATE-MARKER"), std::string::npos);
}

// The monitoring-pipeline block (DESIGN.md §12): ingest counters, segment
// tiers and the inline rollup appear in the JSON snapshot and text view.
TEST(WebUi, MonitorBlockSurfacesPipelineCounters) {
  UiNet net;
  auto& host = net.network.add_host("host", net.ovs);
  net.network.start();
  (void)host;
  auto& events = net.network.controller().events();
  for (SimTime t = 0; t < 100; ++t) {
    mon::NetworkEvent e;
    e.time = net.network.sim().now();
    e.type = t % 3 ? mon::EventType::kFlowStart : mon::EventType::kProtocolIdentified;
    e.set_subject("host-" + std::to_string(t % 5));
    e.set_detail(t % 3 ? "" : "HTTP");
    events.append(std::move(e));
  }

  mon::WebUi ui(net.network.controller());
  const std::string json = ui.snapshot_json(0, net.network.sim().now() + 1);
  EXPECT_TRUE(testing::TinyJsonValidator::valid(json)) << json;
  for (const char* field :
       {"\"monitor\"", "\"events_total\"", "\"batches\"", "\"rows_held\"", "\"segments\"",
        "\"memory_bytes\"", "\"rollup\"", "\"top_subjects\"", "\"top_protocols\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }

  const std::string text = ui.snapshot_text(0, net.network.sim().now() + 1);
  EXPECT_NE(text.find("monitoring pipeline"), std::string::npos) << text;

  // Dedicated endpoints: time-travel replay and the rollup fetch.
  const std::string replay = ui.replay_json(0, net.network.sim().now() + 1);
  EXPECT_TRUE(testing::TinyJsonValidator::valid(replay)) << replay;
  EXPECT_NE(replay.find("\"events\""), std::string::npos);
  const std::string rollup = ui.rollup_json(0, net.network.sim().now() + 1);
  EXPECT_TRUE(testing::TinyJsonValidator::valid(rollup)) << rollup;
  EXPECT_NE(rollup.find("\"buckets\""), std::string::npos);
  // The protocol heavy-hitter table picked up the identified protocol.
  EXPECT_NE(rollup.find("HTTP"), std::string::npos);
}

// High-byte subjects (UTF-8 hostnames) must come out as \u00xx escapes, so
// the full snapshot stays pure-ASCII valid JSON.
TEST(WebUi, SnapshotEscapesHighBytesInSubjects) {
  UiNet net;
  net.network.start();
  mon::NetworkEvent e;
  e.time = net.network.sim().now();
  e.type = mon::EventType::kAttackDetected;
  e.set_subject("caf\xc3\xa9\x01");
  net.network.controller().events().append(std::move(e));

  mon::WebUi ui(net.network.controller());
  const std::string json = ui.snapshot_json(0, net.network.sim().now() + 1);
  EXPECT_TRUE(testing::TinyJsonValidator::valid(json)) << json;
  EXPECT_NE(json.find("\\u00c3"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_EQ(json.find('\xc3'), std::string::npos);
}

TEST(WebUi, VerdictCacheBlockSurfacesStoreCounters) {
  UiNet net;
  net.network.start();

  // Drive the shared store directly: one learned verdict, one hit, one
  // miss, one epoch bump — every counter the block renders is non-trivial.
  svc::VerdictCache& cache = *net.network.verdict_cache();
  const FuzzyDigest digest = FuzzyDigest::of(std::vector<std::uint8_t>(512, 0xAB));
  ASSERT_TRUE(cache.insert(digest, svc::CachedVerdict::kBenign, 0, 0, 4096));
  ASSERT_TRUE(cache.lookup(digest).has_value());
  FuzzyDigest other = digest;
  other.merge(digest);
  ASSERT_FALSE(cache.lookup(other).has_value());
  cache.note_bytes_saved(8192);
  cache.bump_epoch("test");

  mon::WebUi ui(net.network.controller());
  const std::string json = ui.snapshot_json(0, net.network.sim().now() + 1);
  EXPECT_TRUE(json_well_formed(json)) << json;
  for (const char* field :
       {"\"verdict_cache\":{", "\"hits\":1", "\"benign_hits\":1", "\"malicious_hits\":0",
        "\"fuzzy_hits\":0", "\"misses\":1", "\"insertions\":1", "\"rejected_insertions\":0",
        "\"invalidations\":0", "\"flushes\":0", "\"bytes_saved\":8192", "\"entries\":1",
        "\"epoch\":" , "\"cached_verdict_messages\":0", "\"learned\":0"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  const std::string epoch_field = "\"epoch\":" + std::to_string(cache.epoch());
  EXPECT_NE(json.find(epoch_field), std::string::npos) << epoch_field;

  const std::string text = ui.snapshot_text(0, net.network.sim().now() + 1);
  EXPECT_NE(text.find("verdict cache:"), std::string::npos) << text;
  EXPECT_NE(text.find("1 hits (1 benign, 0 malicious, 0 fuzzy) / 1 misses"),
            std::string::npos) << text;
  EXPECT_NE(text.find("8 KiB saved"), std::string::npos) << text;
}

TEST(WebUi, TopologyDotExportsFromLiveController) {
  UiNet net;
  net.network.add_host("h", net.ovs);
  net.network.start();
  const std::string dot = net.network.controller().topology().to_dot();
  EXPECT_NE(dot.find("graph livesec"), std::string::npos);
  EXPECT_NE(dot.find("sw1"), std::string::npos);
  EXPECT_NE(dot.find("sw1 -- sw2"), std::string::npos);  // discovered AS link
}

}  // namespace
}  // namespace livesec
