// Unit tests for the service-element substrate: daemon message codec,
// Aho-Corasick matcher, IDS engine, L7 classifier, virus scanner, and the
// ServiceElement processing pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "services/ids/aho_corasick.h"
#include "services/ids/ids_engine.h"
#include "services/ids/signature.h"
#include "services/l7/l7_classifier.h"
#include "services/message.h"
#include "services/scanner/virus_scanner.h"
#include "services/service_element.h"
#include "sim/simulator.h"

namespace livesec::svc {
namespace {

// --- DaemonMessage codec -----------------------------------------------------

TEST(DaemonMessage, OnlineRoundTrip) {
  DaemonMessage m;
  m.se_id = 42;
  m.cert_token = 0xFEEDFACE;
  OnlineMessage online;
  online.service = ServiceType::kProtocolIdentification;
  online.cpu_percent = 73;
  online.memory_mb = 512;
  online.packets_per_second = 120000;
  online.processed_packets_total = 9999999;
  online.processed_bytes_total = 1234567890123ull;
  online.queued_packets = 17;
  online.capacity_bps = 500000000;
  m.body = online;

  const auto decoded = DaemonMessage::decode(m.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->se_id, 42u);
  EXPECT_EQ(decoded->cert_token, 0xFEEDFACEu);
  const auto* o = std::get_if<OnlineMessage>(&decoded->body);
  ASSERT_NE(o, nullptr);
  EXPECT_EQ(o->service, ServiceType::kProtocolIdentification);
  EXPECT_EQ(o->cpu_percent, 73);
  EXPECT_EQ(o->packets_per_second, 120000u);
  EXPECT_EQ(o->processed_bytes_total, 1234567890123ull);
  EXPECT_EQ(o->queued_packets, 17u);
}

TEST(DaemonMessage, EventRoundTrip) {
  DaemonMessage m;
  m.se_id = 7;
  m.cert_token = 1;
  EventMessage event;
  event.kind = EventKind::kAttackDetected;
  event.rule_id = 1014;
  event.severity = 8;
  event.observed_dpid = 3;
  event.observed_port = 5;
  event.flow.dl_src = MacAddress::from_uint64(0xAA);
  event.flow.dl_dst = MacAddress::from_uint64(0xBB);
  event.flow.nw_src = Ipv4Address(10, 0, 0, 1);
  event.flow.nw_dst = Ipv4Address(10, 0, 0, 2);
  event.flow.nw_proto = 6;
  event.flow.tp_src = 12345;
  event.flow.tp_dst = 80;
  event.description = "web.malicious-site";
  m.body = event;

  const auto decoded = DaemonMessage::decode(m.encode());
  ASSERT_TRUE(decoded.has_value());
  const auto* e = std::get_if<EventMessage>(&decoded->body);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->kind, EventKind::kAttackDetected);
  EXPECT_EQ(e->rule_id, 1014u);
  EXPECT_EQ(e->flow, event.flow);
  EXPECT_EQ(e->description, "web.malicious-site");
}

TEST(DaemonMessage, OnlineRoundTripCarriesFastPathLoad) {
  DaemonMessage m;
  m.se_id = 3;
  m.cert_token = 0xABCD;
  OnlineMessage online;
  online.service = ServiceType::kVirusScan;
  online.flow_contexts = 321;
  online.context_evictions = 12;
  online.batches_total = 400;
  online.batch_packets_total = 4807;
  online.batch_size_hist = {1, 2, 3, 4, 5, 6};
  m.body = online;

  const auto decoded = DaemonMessage::decode(m.encode());
  ASSERT_TRUE(decoded.has_value());
  const auto* o = std::get_if<OnlineMessage>(&decoded->body);
  ASSERT_NE(o, nullptr);
  EXPECT_EQ(o->flow_contexts, 321u);
  EXPECT_EQ(o->context_evictions, 12u);
  EXPECT_EQ(o->batches_total, 400u);
  EXPECT_EQ(o->batch_packets_total, 4807u);
  EXPECT_EQ(o->batch_size_hist, (std::array<std::uint32_t, 6>{1, 2, 3, 4, 5, 6}));
}

TEST(DaemonMessage, VerdictRoundTrip) {
  DaemonMessage m;
  m.se_id = 9;
  m.cert_token = 0x77;
  VerdictMessage verdict;
  verdict.verdict = FlowVerdict::kBenign;
  verdict.flow.dl_src = MacAddress::from_uint64(0xA1);
  verdict.flow.dl_dst = MacAddress::from_uint64(0x5E0001);  // as seen at the SE
  verdict.flow.dl_type = 0x0800;
  verdict.flow.nw_src = Ipv4Address(10, 0, 0, 1);
  verdict.flow.nw_dst = Ipv4Address(10, 0, 0, 2);
  verdict.flow.nw_proto = 17;
  verdict.flow.tp_src = 40000;
  verdict.flow.tp_dst = 9000;
  verdict.inspected_bytes = 123456;
  verdict.byte_budget = 65536;
  verdict.rule_id = 1013;
  verdict.severity = 3;
  m.body = verdict;

  const auto decoded = DaemonMessage::decode(m.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->se_id, 9u);
  const auto* v = std::get_if<VerdictMessage>(&decoded->body);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->verdict, FlowVerdict::kBenign);
  EXPECT_EQ(v->flow, verdict.flow);
  EXPECT_EQ(v->inspected_bytes, 123456u);
  EXPECT_EQ(v->byte_budget, 65536u);
  EXPECT_EQ(v->rule_id, 1013u);
  EXPECT_EQ(v->severity, 3);
}

TEST(DaemonMessage, VerdictRoundTripCarriesCacheProvenanceAndDigest) {
  DaemonMessage m;
  m.se_id = 4;
  m.cert_token = 0x99;
  VerdictMessage verdict;
  verdict.verdict = FlowVerdict::kMalicious;
  verdict.flow.nw_src = Ipv4Address(10, 0, 0, 3);
  verdict.flow.nw_dst = Ipv4Address(10, 0, 0, 4);
  verdict.flow.nw_proto = 6;
  verdict.flow.tp_src = 31337;
  verdict.flow.tp_dst = 80;
  verdict.inspected_bytes = 4200;
  verdict.byte_budget = 4096;
  verdict.rule_id = 1014;
  verdict.severity = 8;
  verdict.from_cache = true;
  std::vector<std::uint8_t> content(600);
  for (std::size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  verdict.digest = FuzzyDigest::of(content);
  m.body = verdict;

  const auto decoded = DaemonMessage::decode(m.encode());
  ASSERT_TRUE(decoded.has_value());
  const auto* v = std::get_if<VerdictMessage>(&decoded->body);
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->from_cache);
  EXPECT_EQ(v->digest, verdict.digest);
  EXPECT_EQ(v->digest.exact, verdict.digest.exact);
  EXPECT_EQ(v->digest.bytes, 600u);
  EXPECT_EQ(v->digest.sketch, verdict.digest.sketch);
  EXPECT_EQ(v->rule_id, 1014u);
}

TEST(DaemonMessage, VerdictRoundTripOmittedDigestStaysEmpty) {
  DaemonMessage m;
  m.se_id = 5;
  m.cert_token = 0x11;
  VerdictMessage verdict;
  verdict.verdict = FlowVerdict::kKeepInspecting;
  verdict.inspected_bytes = 100;
  m.body = verdict;  // default: not from cache, empty digest

  const auto decoded = DaemonMessage::decode(m.encode());
  ASSERT_TRUE(decoded.has_value());
  const auto* v = std::get_if<VerdictMessage>(&decoded->body);
  ASSERT_NE(v, nullptr);
  EXPECT_FALSE(v->from_cache);
  EXPECT_TRUE(v->digest.empty());
}

TEST(DaemonMessage, OnlineRoundTripCarriesVerdictCacheCounters) {
  DaemonMessage m;
  m.se_id = 6;
  m.cert_token = 0x22;
  OnlineMessage online;
  online.service = ServiceType::kIntrusionDetection;
  online.cache_hit_flows = 1234;
  online.cache_bytes_saved = 987654321;
  m.body = online;

  const auto decoded = DaemonMessage::decode(m.encode());
  ASSERT_TRUE(decoded.has_value());
  const auto* o = std::get_if<OnlineMessage>(&decoded->body);
  ASSERT_NE(o, nullptr);
  EXPECT_EQ(o->cache_hit_flows, 1234u);
  EXPECT_EQ(o->cache_bytes_saved, 987654321u);
}

TEST(DaemonMessage, DecodeRejectsBadMagicVersionTruncation) {
  DaemonMessage m;
  m.se_id = 1;
  m.body = OnlineMessage{};
  auto bytes = m.encode();

  auto corrupted = bytes;
  corrupted[0] ^= 0xFF;  // magic
  EXPECT_FALSE(DaemonMessage::decode(corrupted).has_value());

  corrupted = bytes;
  corrupted[4] = 99;  // version
  EXPECT_FALSE(DaemonMessage::decode(corrupted).has_value());

  corrupted = bytes;
  corrupted[5] = 77;  // unknown type
  EXPECT_FALSE(DaemonMessage::decode(corrupted).has_value());

  corrupted.assign(bytes.begin(), bytes.begin() + 10);  // truncated
  EXPECT_FALSE(DaemonMessage::decode(corrupted).has_value());
}

TEST(DaemonMessage, IsDaemonPacketChecksUdpPort) {
  const pkt::Packet daemon = pkt::PacketBuilder()
                                 .eth(MacAddress::from_uint64(1), controller_service_mac())
                                 .ipv4(Ipv4Address(10, 0, 0, 1), controller_service_ip(),
                                       pkt::IpProto::kUdp)
                                 .udp(kLiveSecPort, kLiveSecPort)
                                 .build();
  EXPECT_TRUE(is_daemon_packet(daemon));
  const pkt::Packet normal = pkt::PacketBuilder()
                                 .eth(MacAddress::from_uint64(1), MacAddress::from_uint64(2))
                                 .ipv4(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                                       pkt::IpProto::kUdp)
                                 .udp(1, 53)
                                 .build();
  EXPECT_FALSE(is_daemon_packet(normal));
}

// --- AhoCorasick ------------------------------------------------------------------

TEST(AhoCorasick, FindsAllOccurrences) {
  ids::AhoCorasick ac;
  const auto he = ac.add_pattern("he");
  const auto she = ac.add_pattern("she");
  const auto his = ac.add_pattern("his");
  const auto hers = ac.add_pattern("hers");
  ac.build();

  const std::string text = "ushers";
  std::vector<ids::AhoCorasick::Hit> hits;
  ac.scan(std::span(reinterpret_cast<const std::uint8_t*>(text.data()), text.size()), hits);
  // Classic example: "she" at 1..3, "he" at 2..3, "hers" at 2..5.
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].pattern_id, she);
  EXPECT_EQ(hits[1].pattern_id, he);
  EXPECT_EQ(hits[2].pattern_id, hers);
  (void)his;
}

TEST(AhoCorasick, MatchesBinaryPatterns) {
  ids::AhoCorasick ac;
  const std::string nops(8, '\x90');
  ac.add_pattern(nops);
  ac.build();
  std::vector<std::uint8_t> payload(100, 0x41);
  for (int i = 50; i < 58; ++i) payload[static_cast<std::size_t>(i)] = 0x90;
  EXPECT_TRUE(ac.contains_any(payload));
  payload[53] = 0x00;
  EXPECT_FALSE(ac.contains_any(payload));
}

TEST(AhoCorasick, StreamingFindsPatternsSplitAcrossChunks) {
  ids::AhoCorasick ac;
  ac.add_pattern("ATTACK-MARKER");
  ac.build();
  const std::string part1 = "benign data ATTACK-";
  const std::string part2 = "MARKER more data";
  std::uint32_t state = 0;
  std::vector<ids::AhoCorasick::Hit> hits;
  ac.scan_stream(std::span(reinterpret_cast<const std::uint8_t*>(part1.data()), part1.size()),
                 state, hits);
  EXPECT_TRUE(hits.empty());
  ac.scan_stream(std::span(reinterpret_cast<const std::uint8_t*>(part2.data()), part2.size()),
                 state, hits);
  ASSERT_EQ(hits.size(), 1u);
}

// Property: Aho-Corasick results equal naive search over random text.
TEST(AhoCorasick, AgreesWithNaiveSearchOnRandomInput) {
  std::mt19937 rng(1234);
  const std::vector<std::string> patterns = {"ab", "abc", "bca", "aa", "cab"};
  ids::AhoCorasick ac;
  for (const auto& p : patterns) ac.add_pattern(p);
  ac.build();

  for (int trial = 0; trial < 50; ++trial) {
    std::string text;
    for (int i = 0; i < 200; ++i) text.push_back(static_cast<char>('a' + rng() % 3));

    std::size_t naive = 0;
    for (const auto& p : patterns) {
      for (std::size_t pos = 0; pos + p.size() <= text.size(); ++pos) {
        if (text.compare(pos, p.size(), p) == 0) ++naive;
      }
    }
    std::vector<ids::AhoCorasick::Hit> hits;
    ac.scan(std::span(reinterpret_cast<const std::uint8_t*>(text.data()), text.size()), hits);
    EXPECT_EQ(hits.size(), naive) << "trial " << trial;
  }
}

namespace {

std::span<const std::uint8_t> bytes_of(const std::string& text) {
  return std::span(reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
}

/// Every (end offset, pattern id) occurrence, found by brute force.
std::vector<std::pair<std::size_t, std::uint32_t>> naive_hits(
    const std::string& text, const std::vector<std::string>& patterns) {
  std::vector<std::pair<std::size_t, std::uint32_t>> out;
  for (std::uint32_t id = 0; id < patterns.size(); ++id) {
    const std::string& p = patterns[id];
    for (std::size_t pos = 0; pos + p.size() <= text.size(); ++pos) {
      if (text.compare(pos, p.size(), p) == 0) out.emplace_back(pos + p.size(), id);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Streams `text` through `ac` in chunks cut at `cuts`; hits carry stream
/// offsets, as the IDS engine computes them.
std::vector<std::pair<std::size_t, std::uint32_t>> stream_hits(
    const ids::AhoCorasick& ac, const std::string& text, const std::vector<std::size_t>& cuts) {
  std::vector<std::pair<std::size_t, std::uint32_t>> out;
  std::uint32_t state = 0;
  std::size_t begin = 0;
  std::vector<ids::AhoCorasick::Hit> hits;
  for (std::size_t k = 0; k <= cuts.size(); ++k) {
    const std::size_t end = k < cuts.size() ? cuts[k] : text.size();
    hits.clear();
    ac.scan_stream(bytes_of(text).subspan(begin, end - begin), state, hits);
    for (const auto& hit : hits) out.emplace_back(begin + hit.end_offset, hit.pattern_id);
    begin = end;
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

// Property: with the root window skip engaged (every pattern >= 3 bytes),
// streamed hits equal brute force, across alphabets where bigrams of the
// patterns are everywhere (3 symbols), common (8) and rare (256), with
// planted occurrences and random chunk cuts.
TEST(AhoCorasick, WindowSkipAgreesWithNaiveSearchAcrossChunks) {
  std::mt19937 rng(4242);
  int trials = 0;
  int skipping = 0;
  for (const unsigned alphabet : {3u, 8u, 256u}) {
    for (int t = 0; t < 1000; ++t, ++trials) {
      const auto symbol = [&] {
        return static_cast<char>(alphabet == 256 ? rng() % 256 : 'a' + rng() % alphabet);
      };
      std::vector<std::string> patterns(1 + rng() % 6);
      for (auto& p : patterns) {
        p.resize(3 + rng() % 5);  // 3..7 bytes
        for (char& c : p) c = symbol();
      }
      ids::AhoCorasick ac;
      for (const auto& p : patterns) ac.add_pattern(p);
      ac.build();
      if (ac.window_skip() != 0) ++skipping;

      std::string text(rng() % 400, '\0');
      for (char& c : text) c = symbol();
      for (int k = static_cast<int>(rng() % 4); k > 0 && !text.empty(); --k) {
        const std::string& p = patterns[rng() % patterns.size()];
        const std::size_t at = rng() % text.size();
        text.replace(at, std::min(p.size(), text.size() - at), p.substr(0, text.size() - at));
      }
      std::vector<std::size_t> cuts;
      for (int k = static_cast<int>(rng() % 6); k > 0 && !text.empty(); --k) {
        cuts.push_back(rng() % (text.size() + 1));
      }
      std::sort(cuts.begin(), cuts.end());
      ASSERT_EQ(stream_hits(ac, text, cuts), naive_hits(text, patterns))
          << "alphabet " << alphabet << " trial " << t;
    }
  }
  EXPECT_EQ(trials, 3000);
  EXPECT_EQ(skipping, trials);  // every set's shortest pattern has >= 3 bytes
}

// A pattern whose first bytes sit in the last window of one chunk, where no
// bigram ahead can be read, and whose rest arrives in the next chunk.
TEST(AhoCorasick, WindowSkipKeepsPatternSplitAtChunkTail) {
  ids::AhoCorasick ac;
  ac.add_pattern("ATTACK");
  ac.build();
  ASSERT_EQ(ac.window_skip(), 5u);
  for (std::size_t head = 1; head < 6; ++head) {
    const std::string text = std::string(37, '.') + "ATTACK" + std::string(11, '.');
    const std::size_t cut = 37 + head;
    EXPECT_EQ(stream_hits(ac, text, {cut}),
              (std::vector<std::pair<std::size_t, std::uint32_t>>{{43, 0}}))
        << "head " << head;
  }
}

// One 2-byte pattern disables the skip for the whole set (m - 1 = 1 would
// not beat the skim), and the plain walk finds every occurrence.
TEST(AhoCorasick, TwoBytePatternKeepsThePlainWalk) {
  const std::vector<std::string> patterns = {"id", "BOTNET", "id=7"};
  ids::AhoCorasick ac;
  for (const auto& p : patterns) ac.add_pattern(p);
  ac.build();
  EXPECT_EQ(ac.window_skip(), 0u);
  const std::string text = "xx id=7 BOTNET-CHECKIN id id=7";
  EXPECT_EQ(stream_hits(ac, text, {4, 9}), naive_hits(text, patterns));

  ids::AhoCorasick three;
  three.add_pattern("id=");
  three.add_pattern("BOTNET");
  three.build();
  EXPECT_EQ(three.window_skip(), 2u);
}

// --- rule parsing ---------------------------------------------------------------

TEST(Signature, ParsesRuleLines) {
  std::vector<std::string> errors;
  const auto rules = ids::parse_rules(
      "# comment\n"
      "\n"
      "2001 test.rule tcp 80 7 evil\\spayload\n"
      "2002 multi any 0 5 part1|part2\n",
      errors);
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].id, 2001u);
  EXPECT_EQ(rules[0].dst_port, 80);
  ASSERT_EQ(rules[0].contents.size(), 1u);
  EXPECT_EQ(rules[0].contents[0], "evil payload");
  ASSERT_EQ(rules[1].contents.size(), 2u);
}

TEST(Signature, CollectsParseErrors) {
  std::vector<std::string> errors;
  const auto rules = ids::parse_rules(
      "bad line\n"
      "2001 ok tcp 80 7 x\n"
      "2002 badproto xxx 80 7 x\n"
      "2003 badsev tcp 80 99 x\n",
      errors);
  EXPECT_EQ(rules.size(), 1u);
  EXPECT_EQ(errors.size(), 3u);
}

TEST(Signature, HexEscapesDecode) {
  std::vector<std::string> errors;
  const auto rules = ids::parse_rules("3001 hex any 0 5 \\x90\\x90\\xde\\xad\n", errors);
  ASSERT_EQ(rules.size(), 1u);
  const std::string expected = {'\x90', '\x90', '\xde', '\xad'};
  EXPECT_EQ(rules[0].contents[0], expected);
}

// --- IdsEngine --------------------------------------------------------------------

pkt::Packet http_packet(std::string_view payload, std::uint16_t src_port = 40000) {
  return pkt::PacketBuilder()
      .eth(MacAddress::from_uint64(0xA1), MacAddress::from_uint64(0xB2))
      .ipv4(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2), pkt::IpProto::kTcp)
      .tcp(src_port, 80, pkt::TcpFlags::kPsh)
      .payload(payload)
      .build();
}

TEST(IdsEngine, DetectsSqlInjection) {
  ids::IdsEngine engine;
  const auto alerts = engine.inspect(http_packet("GET /q?id=1 UNION SELECT * FROM users"));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule_id, 1001u);
  EXPECT_EQ(alerts[0].severity, 8);
}

TEST(IdsEngine, PortConstraintSuppressesWrongPort) {
  ids::IdsEngine engine;
  // Same content but to port 443: the port-80 rule must not fire.
  pkt::Packet p = pkt::PacketBuilder()
                      .eth(MacAddress::from_uint64(0xA1), MacAddress::from_uint64(0xB2))
                      .ipv4(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                            pkt::IpProto::kTcp)
                      .tcp(40000, 443, pkt::TcpFlags::kPsh)
                      .payload("UNION SELECT")
                      .build();
  EXPECT_TRUE(engine.inspect(p).empty());
}

TEST(IdsEngine, AlertsOncePerFlowPerRule) {
  ids::IdsEngine engine;
  EXPECT_EQ(engine.inspect(http_packet("UNION SELECT a")).size(), 1u);
  EXPECT_EQ(engine.inspect(http_packet("UNION SELECT b")).size(), 0u);  // same flow
  EXPECT_EQ(engine.inspect(http_packet("UNION SELECT c", 40001)).size(), 1u);  // new flow
}

TEST(IdsEngine, DetectsPatternSplitAcrossPackets) {
  ids::IdsEngine engine;
  EXPECT_TRUE(engine.inspect(http_packet("prefix UNION ")).empty());
  const auto alerts = engine.inspect(http_packet("SELECT suffix"));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule_id, 1001u);
}

TEST(IdsEngine, MultiContentRuleNeedsAllParts) {
  std::vector<std::string> errors;
  auto rules = ids::parse_rules("9001 multi tcp 0 9 PART_ONE|PART_TWO\n", errors);
  ids::IdsEngine engine(std::move(rules));
  EXPECT_TRUE(engine.inspect(http_packet("PART_ONE only")).empty());
  const auto alerts = engine.inspect(http_packet("now PART_TWO"));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule_id, 9001u);
}

TEST(IdsEngine, ForgetFlowResetsState) {
  ids::IdsEngine engine;
  engine.inspect(http_packet("UNION SELECT x"));
  engine.forget_flow(pkt::FlowKey::from_packet(http_packet("any")));
  EXPECT_EQ(engine.tracked_flows(), 0u);
  // Re-alerting is allowed after the flow state is dropped.
  EXPECT_EQ(engine.inspect(http_packet("UNION SELECT y")).size(), 1u);
}

TEST(IdsEngine, CleanTrafficRaisesNothing) {
  ids::IdsEngine engine;
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(engine.inspect(http_packet("GET /index.html HTTP/1.1\r\n\r\n",
                                           static_cast<std::uint16_t>(41000 + i)))
                    .empty());
  }
  EXPECT_EQ(engine.alerts_raised(), 0u);
}

// --- L7Classifier ------------------------------------------------------------------

pkt::Packet flow_packet(std::string_view payload, std::uint16_t src, std::uint16_t dst,
                        pkt::IpProto proto = pkt::IpProto::kTcp) {
  pkt::PacketBuilder b;
  b.eth(MacAddress::from_uint64(0xC1), MacAddress::from_uint64(0xD2))
      .ipv4(Ipv4Address(10, 0, 1, 1), Ipv4Address(10, 0, 1, 2), proto);
  if (proto == pkt::IpProto::kTcp) {
    b.tcp(src, dst);
  } else {
    b.udp(src, dst);
  }
  b.payload(payload);
  return b.build();
}

TEST(L7Classifier, IdentifiesCommonProtocols) {
  l7::L7Classifier classifier;
  EXPECT_EQ(classifier.classify(flow_packet("GET / HTTP/1.1\r\n", 1001, 80)).proto,
            l7::AppProtocol::kHttp);
  EXPECT_EQ(classifier.classify(flow_packet("SSH-2.0-OpenSSH_5.8", 1002, 22)).proto,
            l7::AppProtocol::kSsh);
  std::string bt = "\x13";
  bt += "BitTorrent protocol";
  EXPECT_EQ(classifier.classify(flow_packet(bt, 1003, 6881)).proto,
            l7::AppProtocol::kBitTorrent);
  EXPECT_EQ(classifier.classify(flow_packet("220 ftp.example ready", 1004, 21)).proto,
            l7::AppProtocol::kFtp);
  EXPECT_EQ(classifier.classify(flow_packet("EHLO mail.example", 1005, 25)).proto,
            l7::AppProtocol::kSmtp);
}

TEST(L7Classifier, BitTorrentHandshakeHelperMatchesClassifier) {
  // A handshake built by the shared helper must be exactly the BEP 3 layout
  // and must classify as BitTorrent (the generator and classifier share the
  // kBitTorrentProtocolHeader constant, so they cannot drift apart).
  const std::string handshake =
      l7::make_bittorrent_handshake("INFOHASHINFOHASHXXXX", "PEERIDPEERIDPEERIDPE");
  ASSERT_EQ(handshake.size(), 68u);
  EXPECT_EQ(handshake[0], '\x13');
  EXPECT_EQ(handshake.substr(1, 19), "BitTorrent protocol");
  EXPECT_EQ(handshake.substr(20, 8), std::string(8, '\0'));  // reserved bits
  EXPECT_EQ(handshake.substr(28, 20), "INFOHASHINFOHASHXXXX");
  EXPECT_EQ(handshake.substr(48, 20), "PEERIDPEERIDPEERIDPE");

  l7::L7Classifier classifier;
  EXPECT_EQ(classifier.classify(flow_packet(handshake, 1010, 6881)).proto,
            l7::AppProtocol::kBitTorrent);

  // Short ids are zero-padded to their fixed 20-byte fields, long ones cut.
  const std::string padded = l7::make_bittorrent_handshake("short", std::string(30, 'p'));
  ASSERT_EQ(padded.size(), 68u);
  EXPECT_EQ(padded.substr(28, 20), std::string("short") + std::string(15, '\0'));
  EXPECT_EQ(padded.substr(48, 20), std::string(20, 'p'));
}

TEST(L7Classifier, FreshFlagFiresExactlyOnce) {
  l7::L7Classifier classifier;
  const auto first = classifier.classify(flow_packet("GET / HTTP/1.1\r\n", 2000, 80));
  EXPECT_TRUE(first.fresh);
  const auto second = classifier.classify(flow_packet("more body bytes", 2000, 80));
  EXPECT_FALSE(second.fresh);
  EXPECT_EQ(second.proto, l7::AppProtocol::kHttp);
}

TEST(L7Classifier, AnchoredPatternMustBeAtStart) {
  l7::L7Classifier classifier;
  // "GET " not at flow start -> only the unanchored "HTTP/1." pattern could
  // match, and it is absent here.
  const auto c = classifier.classify(flow_packet("xxxGET /abc", 2010, 80));
  EXPECT_EQ(c.proto, l7::AppProtocol::kUnknown);
}

TEST(L7Classifier, GivesUpAfterPacketBudget) {
  l7::L7Classifier classifier;
  for (int i = 0; i < 12; ++i) {
    classifier.classify(flow_packet("opaque-bytes-no-protocol", 2020, 9999));
  }
  EXPECT_FALSE(classifier.verdict(
                   pkt::FlowKey::from_packet(flow_packet("x", 2020, 9999)))
                   .has_value());
}

TEST(L7Classifier, DnsIdentifiedByPortAndShape) {
  l7::L7Classifier classifier;
  const std::string query(16, '\x01');
  EXPECT_EQ(classifier.classify(flow_packet(query, 5353, 53, pkt::IpProto::kUdp)).proto,
            l7::AppProtocol::kDns);
}

TEST(L7Classifier, DetectsHttpInLaterPacketViaWindow) {
  l7::L7Classifier classifier;
  EXPECT_EQ(classifier.classify(flow_packet("preamble ", 2030, 80)).proto,
            l7::AppProtocol::kUnknown);
  // Unanchored "HTTP/1." appears in the accumulated window.
  EXPECT_EQ(classifier.classify(flow_packet("HTTP/1.1 200 OK", 2030, 80)).proto,
            l7::AppProtocol::kHttp);
}

// --- VirusScanner -------------------------------------------------------------------

TEST(VirusScanner, DetectsEicarAndFamilies) {
  scanner::VirusScanner scanner;
  const auto detections = scanner.scan(http_packet(
      "X5O!P%@AP[4\\PZX54(P^)7CC)7}$EICAR-STANDARD-ANTIVIRUS-TEST-FILE!$H+H*"));
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_EQ(detections[0].family, "EICAR-Test-File");
  EXPECT_EQ(detections[0].severity, 10);
}

TEST(VirusScanner, CleanPayloadPasses) {
  scanner::VirusScanner scanner;
  EXPECT_TRUE(scanner.scan(http_packet("perfectly normal file contents")).empty());
  EXPECT_EQ(scanner.detections_total(), 0u);
}

// Regression: a signature split across a packet boundary must still be found.
// A per-packet rescan from the automaton root misses it; the streaming scan
// carries the Aho-Corasick state across packets of the flow.
TEST(VirusScanner, DetectsSignatureSplitAcrossPackets) {
  scanner::VirusScanner scanner;
  EXPECT_TRUE(scanner.scan(http_packet("X5O!P%@AP[4\\PZX54(P^)7C")).empty());
  const auto detections =
      scanner.scan(http_packet("C)7}$EICAR-STANDARD-ANTIVIRUS-TEST-FILE!$H+H*"));
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_EQ(detections[0].family, "EICAR-Test-File");

  // Reported once per flow: the same marker again on this flow stays silent.
  EXPECT_TRUE(scanner
                  .scan(http_packet(
                      "X5O!P%@AP[4\\PZX54(P^)7CC)7}$EICAR-STANDARD-ANTIVIRUS-TEST-FILE!"))
                  .empty());
  // A different flow carries no state from the first and detects on its own.
  EXPECT_EQ(scanner
                .scan(http_packet(
                    "X5O!P%@AP[4\\PZX54(P^)7CC)7}$EICAR-STANDARD-ANTIVIRUS-TEST-FILE!", 40001))
                .size(),
            1u);
  EXPECT_EQ(scanner.detections_total(), 2u);
}

// The documented memory/completeness trade: evicting a flow's context loses
// mid-stream automaton state, so a marker spanning the eviction is missed.
TEST(VirusScanner, EvictionLosesCrossPacketState) {
  scanner::VirusScanner scanner;
  scanner.contexts().set_limits({1, 0});
  EXPECT_TRUE(scanner.scan(http_packet("X5O!P%@AP[4\\PZX54(P^)7C")).empty());
  EXPECT_TRUE(scanner.scan(http_packet("unrelated flow", 40001)).empty());  // evicts the first
  EXPECT_TRUE(
      scanner.scan(http_packet("C)7}$EICAR-STANDARD-ANTIVIRUS-TEST-FILE!")).empty());
  EXPECT_GE(scanner.contexts().evictions_lru(), 1u);
}

// --- FlowContextTable -----------------------------------------------------------------

pkt::FlowKey context_key(std::uint16_t src_port) {
  pkt::FlowKey key;
  key.dl_src = MacAddress::from_uint64(0xA1);
  key.dl_dst = MacAddress::from_uint64(0xB2);
  key.dl_type = 0x0800;
  key.nw_src = Ipv4Address(10, 0, 0, 1);
  key.nw_dst = Ipv4Address(10, 0, 0, 2);
  key.nw_proto = 6;
  key.tp_src = src_port;
  key.tp_dst = 80;
  return key;
}

TEST(FlowContextTable, TouchRefreshesLruAndFullTableEvictsColdest) {
  FlowContextTable<int> table({2, 0});
  table.touch(context_key(1), 10) = 100;
  table.touch(context_key(2), 20) = 200;
  table.touch(context_key(1), 30);  // refresh: key 2 is now the LRU tail
  table.touch(context_key(3), 40);  // full: evicts key 2

  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.find(context_key(2)), nullptr);
  ASSERT_NE(table.find(context_key(1)), nullptr);
  EXPECT_EQ(*table.find(context_key(1)), 100);  // state survived the refresh
  EXPECT_EQ(table.created(), 3u);
  EXPECT_EQ(table.evictions_lru(), 1u);
  EXPECT_EQ(table.evictions_total(), 1u);
}

TEST(FlowContextTable, SweepDropsOnlyIdleContexts) {
  FlowContextTable<int> table({8, 10});
  table.touch(context_key(1), 0);
  table.touch(context_key(2), 5);
  EXPECT_EQ(table.sweep(9), 0u);   // neither idle past the timeout yet
  EXPECT_EQ(table.sweep(12), 1u);  // key 1 idle for 12, key 2 only 7
  EXPECT_EQ(table.find(context_key(1)), nullptr);
  EXPECT_NE(table.find(context_key(2)), nullptr);
  EXPECT_EQ(table.evictions_idle(), 1u);
  EXPECT_EQ(table.sweep(100), 1u);  // key 2 eventually ages out too
  EXPECT_EQ(table.size(), 0u);
}

TEST(FlowContextTable, ShrinkingCapacityEvictsImmediately) {
  FlowContextTable<int> table({4, 0});
  for (std::uint16_t p = 1; p <= 4; ++p) table.touch(context_key(p), p);
  table.set_limits({2, 0});
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.evictions_lru(), 2u);
  // The two most recently touched survive.
  EXPECT_NE(table.find(context_key(3)), nullptr);
  EXPECT_NE(table.find(context_key(4)), nullptr);
  EXPECT_EQ(table.find(context_key(1)), nullptr);
}

TEST(FlowContextTable, EraseDropsWithoutCountingAsEviction) {
  FlowContextTable<int> table({4, 0});
  table.touch(context_key(1), 0);
  table.erase(context_key(1));
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.evictions_total(), 0u);
  table.erase(context_key(9));  // absent key: no-op
}

// --- ServiceElement pipeline -----------------------------------------------------------

class Collector : public sim::Node {
 public:
  Collector(sim::Simulator& sim) : Node(sim, "collector") { add_port(); }
  void handle_packet(PortId, pkt::PacketPtr packet) override {
    received.push_back(packet);
    arrival_times.push_back(simulator().now());
  }
  void emit(pkt::PacketPtr p) { send(0, std::move(p)); }
  std::vector<pkt::PacketPtr> received;
  std::vector<SimTime> arrival_times;
};

// The SE's heartbeat makes the event queue non-draining by design, so these
// tests advance the clock by bounded amounts instead of sim.run().
void settle(sim::Simulator& sim, SimTime amount = 100 * kMillisecond) {
  sim.run_until(sim.now() + amount);
}

ServiceElement::Config se_config(ServiceType type) {
  ServiceElement::Config config;
  config.se_id = 1;
  config.mac = MacAddress::from_uint64(0x5E0001);
  config.ip = Ipv4Address(10, 9, 0, 1);
  config.service = type;
  config.cert_token = 0x1234;
  return config;
}

TEST(ServiceElement, ReflectsSteeredPacketsAndHeartbeats) {
  sim::Simulator sim;
  ServiceElement se(sim, "se1", se_config(ServiceType::kIntrusionDetection));
  Collector peer(sim);
  auto link = sim::connect(sim, se.port(0), peer.port(0));
  se.start();
  settle(sim);
  // The start() heartbeat arrived at the peer (it goes out the NIC).
  ASSERT_GE(peer.received.size(), 1u);
  EXPECT_TRUE(is_daemon_packet(*peer.received[0]));

  // A steered packet (dl_dst == SE MAC) is processed and reflected.
  peer.received.clear();
  pkt::Packet steered = http_packet("normal content");
  steered.eth.dst = se.mac();
  peer.emit(pkt::finalize(steered));
  settle(sim);
  ASSERT_EQ(peer.received.size(), 1u);
  EXPECT_EQ(peer.received[0]->eth.dst, se.mac());  // reflected unchanged
  EXPECT_EQ(se.processed_packets(), 1u);
}

TEST(ServiceElement, IgnoresPacketsNotAddressedToIt) {
  sim::Simulator sim;
  ServiceElement se(sim, "se1", se_config(ServiceType::kIntrusionDetection));
  Collector peer(sim);
  auto link = sim::connect(sim, se.port(0), peer.port(0));
  se.start();
  settle(sim);
  peer.received.clear();

  peer.emit(pkt::finalize(http_packet("payload")));  // dst != SE mac
  settle(sim);
  EXPECT_EQ(se.processed_packets(), 0u);
  EXPECT_TRUE(peer.received.empty());
}

TEST(ServiceElement, EmitsAttackEventMessage) {
  sim::Simulator sim;
  ServiceElement se(sim, "se1", se_config(ServiceType::kIntrusionDetection));
  Collector peer(sim);
  auto link = sim::connect(sim, se.port(0), peer.port(0));
  se.start();
  settle(sim);
  peer.received.clear();

  pkt::Packet attack = http_packet("id=1 UNION SELECT password FROM users");
  attack.eth.dst = se.mac();
  peer.emit(pkt::finalize(attack));
  settle(sim);

  bool saw_event = false;
  for (const auto& p : peer.received) {
    if (!is_daemon_packet(*p)) continue;
    const auto m = DaemonMessage::decode(p->payload_view());
    ASSERT_TRUE(m.has_value());
    if (const auto* event = std::get_if<EventMessage>(&m->body)) {
      EXPECT_EQ(event->kind, EventKind::kAttackDetected);
      EXPECT_EQ(event->rule_id, 1001u);
      saw_event = true;
    }
  }
  EXPECT_TRUE(saw_event);
  EXPECT_EQ(se.events_sent(), 1u);
}

TEST(ServiceElement, ProcessingRateBoundsThroughput) {
  sim::Simulator sim;
  auto config = se_config(ServiceType::kIntrusionDetection);
  config.processing_bps = 100e6;  // slow SE for a visible bound
  config.heartbeat_interval = 100 * kSecond;  // keep heartbeats out of the way
  ServiceElement se(sim, "se1", config);
  Collector peer(sim);
  sim::Link::Config fast;
  fast.bandwidth_bps = 10e9;
  fast.max_queue_bytes = 1 << 30;
  auto link = sim::connect(sim, se.port(0), peer.port(0), fast);
  se.start();
  settle(sim);
  peer.received.clear();

  std::uint64_t offered = 0;
  for (int i = 0; i < 500; ++i) {
    pkt::Packet p = http_packet(std::string(1300, 'x'),
                                static_cast<std::uint16_t>(30000 + i));
    p.tcp->dst_port = 9999;  // avoid HTTP deep-inspect slowdown in this test
    p.eth.dst = se.mac();
    offered += p.wire_size();
    peer.emit(pkt::finalize(std::move(p)));
  }
  peer.arrival_times.clear();
  settle(sim, 2 * kSecond);
  // Rate over the drain window (first reflection to last): the pipeline is
  // saturated in between, so this measures the SE's processing budget.
  ASSERT_EQ(peer.received.size(), 500u);
  const double seconds =
      to_seconds(peer.arrival_times.back() - peer.arrival_times.front());
  const double rate = static_cast<double>(offered) * 8.0 * (499.0 / 500.0) / seconds;
  EXPECT_LT(rate, 110e6);
  EXPECT_GT(rate, 80e6);
}

TEST(ServiceElement, OverloadDropsWhenQueueFull) {
  sim::Simulator sim;
  auto config = se_config(ServiceType::kIntrusionDetection);
  config.processing_bps = 1e6;  // pathological
  config.max_queue_packets = 10;
  ServiceElement se(sim, "se1", config);
  Collector peer(sim);
  auto link = sim::connect(sim, se.port(0), peer.port(0));
  se.start();
  settle(sim);

  for (int i = 0; i < 100; ++i) {
    pkt::Packet p = http_packet("data", static_cast<std::uint16_t>(31000 + i));
    p.eth.dst = se.mac();
    peer.emit(pkt::finalize(std::move(p)));
  }
  settle(sim);
  EXPECT_GT(se.overload_drops(), 0u);
  EXPECT_EQ(se.overload_drops() + se.processed_packets(), 100u);
}

TEST(ServiceElement, L7ElementReportsProtocolOnce) {
  sim::Simulator sim;
  ServiceElement se(sim, "se1", se_config(ServiceType::kProtocolIdentification));
  Collector peer(sim);
  auto link = sim::connect(sim, se.port(0), peer.port(0));
  se.start();
  settle(sim);
  peer.received.clear();

  for (int i = 0; i < 3; ++i) {
    pkt::Packet p = http_packet("GET /page HTTP/1.1\r\n\r\n");
    p.eth.dst = se.mac();
    peer.emit(pkt::finalize(std::move(p)));
  }
  settle(sim);
  EXPECT_EQ(se.events_sent(), 1u);  // one verdict per flow
}

TEST(ServiceElement, StopHaltsHeartbeatsAndProcessing) {
  sim::Simulator sim;
  auto config = se_config(ServiceType::kIntrusionDetection);
  config.heartbeat_interval = 100 * kMillisecond;
  ServiceElement se(sim, "se1", config);
  Collector peer(sim);
  auto link = sim::connect(sim, se.port(0), peer.port(0));
  se.start();
  sim.run_until(250 * kMillisecond);
  const std::size_t heartbeats = peer.received.size();
  EXPECT_GE(heartbeats, 2u);

  se.stop();
  sim.run_until(1 * kSecond);
  EXPECT_EQ(peer.received.size(), heartbeats);  // no more traffic

  pkt::Packet p = http_packet("x");
  p.eth.dst = se.mac();
  peer.emit(pkt::finalize(std::move(p)));
  settle(sim);
  EXPECT_EQ(se.processed_packets(), 0u);
}

// --- ServiceElement verdict emission -----------------------------------------------

std::vector<VerdictMessage> collect_verdicts(const std::vector<pkt::PacketPtr>& received) {
  std::vector<VerdictMessage> out;
  for (const auto& p : received) {
    if (!is_daemon_packet(*p)) continue;
    const auto m = DaemonMessage::decode(p->payload_view());
    if (!m.has_value()) continue;
    if (const auto* v = std::get_if<VerdictMessage>(&m->body)) out.push_back(*v);
  }
  return out;
}

TEST(ServiceElement, BenignVerdictAfterCleanBudgetOncePerFlow) {
  sim::Simulator sim;
  auto config = se_config(ServiceType::kIntrusionDetection);
  config.verdict_byte_budget = 64;
  ServiceElement se(sim, "se1", config);
  Collector peer(sim);
  auto link = sim::connect(sim, se.port(0), peer.port(0));
  se.start();
  settle(sim);
  peer.received.clear();

  pkt::Packet clean = http_packet(std::string(100, 'a'));
  clean.eth.dst = se.mac();
  peer.emit(pkt::finalize(clean));
  settle(sim);

  const auto verdicts = collect_verdicts(peer.received);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].verdict, FlowVerdict::kBenign);
  EXPECT_GE(verdicts[0].inspected_bytes, 64u);
  EXPECT_EQ(verdicts[0].byte_budget, 64u);
  // The flow key is the one observed at the SE: dl_dst already rewritten.
  EXPECT_EQ(verdicts[0].flow.dl_dst, se.mac());
  EXPECT_EQ(verdicts[0].flow.tp_dst, 80);

  // More clean traffic on the decided flow stays verdict-silent.
  peer.received.clear();
  pkt::Packet more = http_packet(std::string(100, 'b'));
  more.eth.dst = se.mac();
  peer.emit(pkt::finalize(more));
  settle(sim);
  EXPECT_TRUE(collect_verdicts(peer.received).empty());
  EXPECT_EQ(se.verdicts_sent(), 1u);
}

TEST(ServiceElement, NoVerdictsWhenBudgetDisabled) {
  sim::Simulator sim;
  ServiceElement se(sim, "se1", se_config(ServiceType::kIntrusionDetection));  // budget 0
  Collector peer(sim);
  auto link = sim::connect(sim, se.port(0), peer.port(0));
  se.start();
  settle(sim);
  peer.received.clear();

  pkt::Packet clean = http_packet(std::string(2000, 'a'));
  clean.eth.dst = se.mac();
  peer.emit(pkt::finalize(clean));
  settle(sim);
  EXPECT_TRUE(collect_verdicts(peer.received).empty());
  EXPECT_EQ(se.verdicts_sent(), 0u);
}

TEST(ServiceElement, MaliciousVerdictOnDetection) {
  sim::Simulator sim;
  auto config = se_config(ServiceType::kIntrusionDetection);
  config.verdict_byte_budget = 1 << 20;  // far away: detection decides first
  ServiceElement se(sim, "se1", config);
  Collector peer(sim);
  auto link = sim::connect(sim, se.port(0), peer.port(0));
  se.start();
  settle(sim);
  peer.received.clear();

  pkt::Packet attack = http_packet("id=1 UNION SELECT password FROM users");
  attack.eth.dst = se.mac();
  peer.emit(pkt::finalize(attack));
  settle(sim);

  const auto verdicts = collect_verdicts(peer.received);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].verdict, FlowVerdict::kMalicious);
  EXPECT_EQ(verdicts[0].rule_id, 1001u);
  EXPECT_EQ(verdicts[0].severity, 8);
  EXPECT_EQ(se.events_sent(), 1u);  // the EVENT report still goes out alongside
}

TEST(ServiceElement, L7KeepsInspectingAtBudgetThenBenignOnDecision) {
  sim::Simulator sim;
  auto config = se_config(ServiceType::kProtocolIdentification);
  config.verdict_byte_budget = 16;
  ServiceElement se(sim, "se1", config);
  Collector peer(sim);
  auto link = sim::connect(sim, se.port(0), peer.port(0));
  se.start();
  settle(sim);
  peer.received.clear();

  // Budget crossed but the classifier is still undecided: the SE asks the
  // controller to keep the flow steered instead of declaring it benign.
  pkt::Packet opaque = http_packet("preamble preamble ");
  opaque.eth.dst = se.mac();
  peer.emit(pkt::finalize(opaque));
  settle(sim);
  auto verdicts = collect_verdicts(peer.received);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].verdict, FlowVerdict::kKeepInspecting);

  // Once the classifier decides, the benign verdict follows.
  peer.received.clear();
  pkt::Packet http = http_packet("HTTP/1.1 200 OK");
  http.eth.dst = se.mac();
  peer.emit(pkt::finalize(http));
  settle(sim);
  verdicts = collect_verdicts(peer.received);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].verdict, FlowVerdict::kBenign);
  EXPECT_EQ(se.verdicts_sent(), 2u);
}

TEST(ServiceElement, FirewallVerdictsOnFirstPacket) {
  sim::Simulator sim;
  auto config = se_config(ServiceType::kFirewall);
  config.verdict_byte_budget = 1 << 20;
  fw::FwRule deny;
  deny.id = 10;
  deny.name = "deny-9999";
  deny.action = fw::FwAction::kDeny;
  deny.dst_port = 9999;
  config.firewall_rules.push_back(deny);
  ServiceElement se(sim, "se1", config);
  Collector peer(sim);
  auto link = sim::connect(sim, se.port(0), peer.port(0));
  se.start();
  settle(sim);
  peer.received.clear();

  // Header-based decision: one allowed packet settles the flow as benign,
  // long before any byte budget.
  pkt::Packet allowed = http_packet("hello");
  allowed.eth.dst = se.mac();
  peer.emit(pkt::finalize(allowed));
  settle(sim);
  auto verdicts = collect_verdicts(peer.received);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].verdict, FlowVerdict::kBenign);

  peer.received.clear();
  pkt::Packet denied = http_packet("hello", 40001);
  denied.tcp->dst_port = 9999;
  denied.eth.dst = se.mac();
  peer.emit(pkt::finalize(denied));
  settle(sim);
  verdicts = collect_verdicts(peer.received);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].verdict, FlowVerdict::kMalicious);
  EXPECT_EQ(verdicts[0].rule_id, 10u);
}

// --- ServiceElement batch-drain telemetry ------------------------------------------

TEST(ServiceElement, BatchDrainCoalescesBurstsAndCountsThem) {
  sim::Simulator sim;
  auto config = se_config(ServiceType::kIntrusionDetection);
  config.processing_bps = 100e6;          // service time >> arrival spacing
  config.heartbeat_interval = 100 * kSecond;
  ServiceElement se(sim, "se1", config);
  Collector peer(sim);
  sim::Link::Config fast;
  fast.bandwidth_bps = 10e9;
  fast.max_queue_bytes = 1 << 30;
  auto link = sim::connect(sim, se.port(0), peer.port(0), fast);
  se.start();
  settle(sim);

  for (int i = 0; i < 40; ++i) {
    pkt::Packet p = http_packet(std::string(1300, 'x'),
                                static_cast<std::uint16_t>(30000 + i));
    p.tcp->dst_port = 9999;
    p.eth.dst = se.mac();
    peer.emit(pkt::finalize(std::move(p)));
  }
  settle(sim, 2 * kSecond);

  EXPECT_EQ(se.processed_packets(), 40u);
  EXPECT_EQ(se.batch_packets_total(), 40u);
  // The burst queues behind the first (solo) batch, so later drains coalesce
  // many packets into one simulator event — up to batch_max_packets at once.
  EXPECT_GE(se.batches_total(), 2u);
  EXPECT_LE(se.batches_total(), 40u / 2);
  const auto& hist = se.batch_size_hist();
  std::uint64_t hist_sum = 0;
  for (std::uint32_t bucket : hist) hist_sum += bucket;
  EXPECT_EQ(hist_sum, se.batches_total());
  EXPECT_GE(hist[0], 1u);  // the burst-opening solo batch
  EXPECT_GE(hist[5], 1u);  // a full 32+ batch once the queue built up
  // One streaming context per distinct flow.
  EXPECT_EQ(se.flow_contexts(), 40u);
}

TEST(ServiceElement, HeartbeatReportsFastPathLoad) {
  sim::Simulator sim;
  auto config = se_config(ServiceType::kIntrusionDetection);
  config.heartbeat_interval = 50 * kMillisecond;
  config.max_flow_contexts = 2;
  ServiceElement se(sim, "se1", config);
  Collector peer(sim);
  auto link = sim::connect(sim, se.port(0), peer.port(0));
  se.start();
  settle(sim, 10 * kMillisecond);
  peer.received.clear();

  for (int i = 0; i < 3; ++i) {
    pkt::Packet p = http_packet("clean", static_cast<std::uint16_t>(32000 + i));
    p.eth.dst = se.mac();
    peer.emit(pkt::finalize(std::move(p)));
  }
  settle(sim, 200 * kMillisecond);

  std::optional<OnlineMessage> last;
  for (const auto& p : peer.received) {
    if (!is_daemon_packet(*p)) continue;
    const auto m = DaemonMessage::decode(p->payload_view());
    if (!m.has_value()) continue;
    if (const auto* o = std::get_if<OnlineMessage>(&m->body)) last = *o;
  }
  ASSERT_TRUE(last.has_value());
  // Three flows through a 2-context table: occupancy capped, eviction visible.
  EXPECT_EQ(last->flow_contexts, 2u);
  EXPECT_GE(last->context_evictions, 1u);
  EXPECT_GE(last->batches_total, 1u);
  EXPECT_EQ(last->batch_packets_total, 3u);
  std::uint64_t hist_sum = 0;
  for (std::uint32_t bucket : last->batch_size_hist) hist_sum += bucket;
  EXPECT_EQ(hist_sum, last->batches_total);
}

}  // namespace
}  // namespace livesec::svc
