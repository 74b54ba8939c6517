// Golden renderings of the event database: a fixed event stream covering
// every EventType, and the literal strings its events, queries, rollups and
// WebUI feeds render to. The literals pin the text an operator sees (log
// lines, the WebUI's JSON feed, replay, Top-K tables) across changes to how
// events are stored and encoded.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "controller/controller.h"
#include "monitor/event_pipeline.h"
#include "monitor/webui.h"
#include "sim/simulator.h"

namespace livesec::mon {
namespace {

NetworkEvent text_event(SimTime t, EventType type, std::string_view subject,
                        std::string_view detail, DatapathId dpid = 0, std::uint64_t se_id = 0,
                        std::uint8_t sev = 0) {
  NetworkEvent e;
  e.time = t;
  e.type = type;
  e.set_subject(subject);
  e.set_detail(detail);
  e.dpid = dpid;
  e.se_id = se_id;
  e.severity = sev;
  return e;
}

/// Flow events are built typed, as the controller raises them.
NetworkEvent flow_event(SimTime t, EventType type, const pkt::FlowKey& key, Detail detail,
                        DatapathId dpid) {
  NetworkEvent e;
  e.time = t;
  e.type = type;
  e.set_subject(Subject::mac(key.dl_src));
  e.set_detail(detail);
  e.dpid = dpid;
  e.flow = key;
  return e;
}

NetworkEvent flow_start(SimTime t, const pkt::FlowKey& key, std::size_t ses, DatapathId dpid) {
  return flow_event(t, EventType::kFlowStart, key, Detail::flow_path(ses), dpid);
}

NetworkEvent flow_end(SimTime t, const pkt::FlowKey& key, std::uint64_t pkts,
                      std::uint64_t bytes, DatapathId dpid) {
  return flow_event(t, EventType::kFlowEnd, key, Detail::flow_counters(pkts, bytes), dpid);
}

NetworkEvent flow_torn_down(SimTime t, const pkt::FlowKey& key, DatapathId dpid) {
  return flow_event(t, EventType::kFlowEnd, key, Detail::torn_down(), dpid);
}

const MacAddress kMacA = MacAddress::from_uint64(0x020000000001ull);
const MacAddress kMacB = MacAddress::from_uint64(0x02000000000Bull);
const MacAddress kMacC = MacAddress::from_uint64(0x02000000000Cull);

pkt::FlowKey tcp_key(MacAddress src, MacAddress dst, std::uint8_t host, std::uint16_t sport) {
  pkt::FlowKey key;
  key.dl_src = src;
  key.dl_dst = dst;
  key.dl_type = 0x0800;
  key.nw_src = Ipv4Address(10, 0, 0, host);
  key.nw_dst = Ipv4Address(10, 0, 1, 1);
  key.nw_proto = 6;
  key.tp_src = sport;
  key.tp_dst = 80;
  return key;
}

/// Every EventType once or more; FlowStart with 0, 1 and 2 SEs; FlowEnd as
/// counters and as a teardown; switch-name, "controller" and "seN" subjects;
/// a non-ASCII subject; kProtocolIdentified details; and Top-K counts that
/// tie across subject kinds (kMacC and "controller"; "se10", "se4", "se9"
/// and text subjects, where string order is not numeric order).
std::vector<NetworkEvent> golden_stream() {
  const pkt::FlowKey k1 = tcp_key(kMacA, kMacB, 1, 40001);
  const pkt::FlowKey k2 = tcp_key(kMacA, kMacB, 1, 40002);
  const pkt::FlowKey k3 = tcp_key(kMacB, kMacA, 11, 40003);
  SimTime t = 0;
  const auto next = [&t] { return t += 250 * kMillisecond; };
  std::vector<NetworkEvent> out;
  out.push_back(text_event(next(), EventType::kSwitchJoin, "sw-core", "dpid=1", 1));
  out.push_back(text_event(next(), EventType::kSwitchLeave, "sw-edge", "dpid=2", 2));
  out.push_back(text_event(next(), EventType::kHostJoin, kMacA.to_string(), "10.0.0.1", 1));
  out.push_back(text_event(next(), EventType::kHostLeave, kMacB.to_string(), "arp timeout", 1));
  out.push_back(text_event(next(), EventType::kSeOnline, "se3", "intrusion_detection", 1, 3));
  out.push_back(text_event(next(), EventType::kLinkDiscovered, "dpid1<->dpid2", "", 1));
  out.push_back(flow_start(next(), k1, 0, 1));
  out.push_back(flow_start(next(), k2, 1, 1));
  out.push_back(flow_start(next(), k3, 2, 2));
  out.push_back(flow_end(next(), k1, 12, 3400, 1));
  out.push_back(flow_torn_down(next(), k2, 1));
  out.push_back(text_event(next(), EventType::kAttackDetected, kMacA.to_string(),
                           "malicious verdict rule=7", 1, 3, 8));
  out.push_back(text_event(next(), EventType::kFlowBlocked, kMacA.to_string(),
                           "blocked at ingress dpid=1", 1, 3, 8));
  out.push_back(text_event(next(), EventType::kProtocolIdentified, kMacA.to_string(), "http", 1, 3));
  out.push_back(text_event(next(), EventType::kProtocolIdentified, kMacB.to_string(),
                           "bittorrent", 2, 3));
  out.push_back(text_event(next(), EventType::kVirusFound, kMacB.to_string(), "eicar", 2, 3, 9));
  out.push_back(text_event(next(), EventType::kContentViolation, kMacA.to_string(),
                           "keyword \"secret\"\tin body", 1, 3, 5));
  out.push_back(text_event(next(), EventType::kCertificationRejected, "se4",
                           "invalid certificate", 2, 4, 8));
  out.push_back(text_event(next(), EventType::kLoadReport, "se3", "", 1, 3));
  out.push_back(text_event(next(), EventType::kPolicyDenied, kMacB.to_string(), "deny-guests", 2,
                           0, 2));
  out.push_back(text_event(next(), EventType::kAggregateLimitHit, kMacA.to_string(), "bittorrent",
                           1, 3, 3));
  out.push_back(text_event(next(), EventType::kSeMigrated, "se3",
                           "now at dpid=2, 1 flows re-routed", 2, 3));
  out.push_back(text_event(next(), EventType::kHostMoved, kMacB.to_string(),
                           "now at dpid=1, 0 flows re-routed", 1));
  out.push_back(text_event(next(), EventType::kFailover, "controller", "promoted to active"));
  out.push_back(text_event(next(), EventType::kReconciled, "controller",
                           "4 entries audited, 1 stale removed, 0 drops reinstalled"));
  out.push_back(text_event(next(), EventType::kFlowOffloaded, kMacA.to_string(),
                           "cut through after 4096 clean bytes", 1, 3));
  out.push_back(text_event(next(), EventType::kSeOffline, "se3",
                           "intrusion_detection, 2 flows re-routed", 1, 3));
  out.push_back(text_event(next(), EventType::kHostJoin, "caf\xc3\xa9", "h\xffx", 2));
  out.push_back(text_event(next(), EventType::kProtocolIdentified, kMacB.to_string(), "http", 2, 3));
  out.push_back(text_event(next(), EventType::kHostJoin, kMacC.to_string(), "10.0.0.12", 2));
  out.push_back(text_event(next(), EventType::kHostLeave, kMacC.to_string(), "switch disconnected",
                           2));
  out.push_back(text_event(next(), EventType::kSeOnline, "se9", "firewall", 2, 9));
  out.push_back(text_event(next(), EventType::kSeOnline, "se10", "firewall", 2, 10));
  out.push_back(text_event(next(), EventType::kProtocolIdentified, kMacA.to_string(), "dns", 1, 3));
  return out;
}

/// Small segments so the stream spans sealed segments, the open segment and
/// the staging buffer.
EventPipeline golden_pipeline() {
  EventPipeline::Config config;
  config.segment_rows = 8;
  config.staging_rows = 3;
  EventPipeline pipeline(config);
  for (NetworkEvent& e : golden_stream()) pipeline.append(std::move(e));
  return pipeline;
}

constexpr SimTime kAll = std::numeric_limits<SimTime>::max();

std::string render_event_lines(const EventPipeline& pipeline) {
  std::string out;
  for (const NetworkEvent& e : pipeline.query_range(0, kAll)) {
    out += e.to_string() + "\n" + e.to_json() + "\n";
  }
  return out;
}

std::string render_replay(const EventPipeline& pipeline) {
  std::string out;
  pipeline.replay(2 * kSecond, 6 * kSecond, [&out](const NetworkEvent& e) {
    out += std::to_string(e.id) + " " + e.to_string() + "\n";
  });
  return out;
}

std::string render_subject_queries(const EventPipeline& pipeline) {
  std::string out;
  for (const std::string& subject : {kMacA.to_string(), kMacB.to_string(), std::string("se3"),
                                     std::string("controller"), std::string("sw-core"),
                                     std::string("caf\xc3\xa9"), std::string("se03"),
                                     std::string("02:00:00:00:00:0B"), std::string("missing")}) {
    out += subject + ":";
    for (const NetworkEvent& e : pipeline.query_subject(subject, 4)) {
      out += " " + std::to_string(e.id);
    }
    out += "\n";
  }
  return out;
}

std::string render_histogram(const EventPipeline& pipeline) {
  std::string out;
  for (const auto& [type, count] : pipeline.histogram()) {
    out += std::string(event_type_name(type)) + "=" + std::to_string(count) + "\n";
  }
  return out;
}

// Captured from the string-based event model (subject and detail stored as
// strings); they must not change.
const std::string kEventLines =
    "0.250000s [switch_join] sw-core (dpid=1)\n"
    "{\"id\":1,\"t\":250000000,\"type\":\"switch_join\",\"subject\":\"sw-core\",\"detail\":\""
    "dpid=1\",\"dpid\":1,\"se\":0,\"sev\":0}\n"
    "0.500000s [switch_leave] sw-edge (dpid=2)\n"
    "{\"id\":2,\"t\":500000000,\"type\":\"switch_leave\",\"subject\":\"sw-edge\",\"detail\":"
    "\"dpid=2\",\"dpid\":2,\"se\":0,\"sev\":0}\n"
    "0.750000s [host_join] 02:00:00:00:00:01 (10.0.0.1)\n"
    "{\"id\":3,\"t\":750000000,\"type\":\"host_join\",\"subject\":\"02:00:00:00:00:01\",\"det"
    "ail\":\"10.0.0.1\",\"dpid\":1,\"se\":0,\"sev\":0}\n"
    "1.000000s [host_leave] 02:00:00:00:00:0b (arp timeout)\n"
    "{\"id\":4,\"t\":1000000000,\"type\":\"host_leave\",\"subject\":\"02:00:00:00:00:0b\",\"d"
    "etail\":\"arp timeout\",\"dpid\":1,\"se\":0,\"sev\":0}\n"
    "1.250000s [se_online] se3 (intrusion_detection)\n"
    "{\"id\":5,\"t\":1250000000,\"type\":\"se_online\",\"subject\":\"se3\",\"detail\":\"intru"
    "sion_detection\",\"dpid\":1,\"se\":3,\"sev\":0}\n"
    "1.500000s [link_discovered] dpid1<->dpid2\n"
    "{\"id\":6,\"t\":1500000000,\"type\":\"link_discovered\",\"subject\":\"dpid1<->dpid2\",\""
    "detail\":\"\",\"dpid\":1,\"se\":0,\"sev\":0}\n"
    "1.750000s [flow_start] 02:00:00:00:00:01 ([02:00:00:00:00:01>02:00:00:00:00:0b 10.0.0.1:"
    "40001>10.0.1.1:80 proto=6])\n"
    "{\"id\":7,\"t\":1750000000,\"type\":\"flow_start\",\"subject\":\"02:00:00:00:00:01\",\"d"
    "etail\":\"[02:00:00:00:00:01>02:00:00:00:00:0b 10.0.0.1:40001>10.0.1.1:80 proto=6]\",\"d"
    "pid\":1,\"se\":0,\"sev\":0}\n"
    "2.000000s [flow_start] 02:00:00:00:00:01 ([02:00:00:00:00:01>02:00:00:00:00:0b 10.0.0.1:"
    "40002>10.0.1.1:80 proto=6] via 1 SE)\n"
    "{\"id\":8,\"t\":2000000000,\"type\":\"flow_start\",\"subject\":\"02:00:00:00:00:01\",\"d"
    "etail\":\"[02:00:00:00:00:01>02:00:00:00:00:0b 10.0.0.1:40002>10.0.1.1:80 proto=6] via 1"
    " SE\",\"dpid\":1,\"se\":0,\"sev\":0}\n"
    "2.250000s [flow_start] 02:00:00:00:00:0b ([02:00:00:00:00:0b>02:00:00:00:00:01 10.0.0.11"
    ":40003>10.0.1.1:80 proto=6] via 2 SE)\n"
    "{\"id\":9,\"t\":2250000000,\"type\":\"flow_start\",\"subject\":\"02:00:00:00:00:0b\",\"d"
    "etail\":\"[02:00:00:00:00:0b>02:00:00:00:00:01 10.0.0.11:40003>10.0.1.1:80 proto=6] via "
    "2 SE\",\"dpid\":2,\"se\":0,\"sev\":0}\n"
    "2.500000s [flow_end] 02:00:00:00:00:01 (pkts=12 bytes=3400)\n"
    "{\"id\":10,\"t\":2500000000,\"type\":\"flow_end\",\"subject\":\"02:00:00:00:00:01\",\"de"
    "tail\":\"pkts=12 bytes=3400\",\"dpid\":1,\"se\":0,\"sev\":0}\n"
    "2.750000s [flow_end] 02:00:00:00:00:01 (torn down)\n"
    "{\"id\":11,\"t\":2750000000,\"type\":\"flow_end\",\"subject\":\"02:00:00:00:00:01\",\"de"
    "tail\":\"torn down\",\"dpid\":1,\"se\":0,\"sev\":0}\n"
    "3.000000s [attack_detected] 02:00:00:00:00:01 (malicious verdict rule=7) sev=8\n"
    "{\"id\":12,\"t\":3000000000,\"type\":\"attack_detected\",\"subject\":\"02:00:00:00:00:01"
    "\",\"detail\":\"malicious verdict rule=7\",\"dpid\":1,\"se\":3,\"sev\":8}\n"
    "3.250000s [flow_blocked] 02:00:00:00:00:01 (blocked at ingress dpid=1) sev=8\n"
    "{\"id\":13,\"t\":3250000000,\"type\":\"flow_blocked\",\"subject\":\"02:00:00:00:00:01\","
    "\"detail\":\"blocked at ingress dpid=1\",\"dpid\":1,\"se\":3,\"sev\":8}\n"
    "3.500000s [protocol_identified] 02:00:00:00:00:01 (http)\n"
    "{\"id\":14,\"t\":3500000000,\"type\":\"protocol_identified\",\"subject\":\"02:00:00:00:0"
    "0:01\",\"detail\":\"http\",\"dpid\":1,\"se\":3,\"sev\":0}\n"
    "3.750000s [protocol_identified] 02:00:00:00:00:0b (bittorrent)\n"
    "{\"id\":15,\"t\":3750000000,\"type\":\"protocol_identified\",\"subject\":\"02:00:00:00:0"
    "0:0b\",\"detail\":\"bittorrent\",\"dpid\":2,\"se\":3,\"sev\":0}\n"
    "4.000000s [virus_found] 02:00:00:00:00:0b (eicar) sev=9\n"
    "{\"id\":16,\"t\":4000000000,\"type\":\"virus_found\",\"subject\":\"02:00:00:00:00:0b\","
    "\"detail\":\"eicar\",\"dpid\":2,\"se\":3,\"sev\":9}\n"
    "4.250000s [content_violation] 02:00:00:00:00:01 (keyword \"secret\"\tin body) sev=5\n"
    "{\"id\":17,\"t\":4250000000,\"type\":\"content_violation\",\"subject\":\"02:00:00:00:00:"
    "01\",\"detail\":\"keyword \\\"secret\\\"\\tin body\",\"dpid\":1,\"se\":3,\"sev\":5}\n"
    "4.500000s [certification_rejected] se4 (invalid certificate) sev=8\n"
    "{\"id\":18,\"t\":4500000000,\"type\":\"certification_rejected\",\"subject\":\"se4\",\"de"
    "tail\":\"invalid certificate\",\"dpid\":2,\"se\":4,\"sev\":8}\n"
    "4.750000s [load_report] se3\n"
    "{\"id\":19,\"t\":4750000000,\"type\":\"load_report\",\"subject\":\"se3\",\"detail\":\"\""
    ",\"dpid\":1,\"se\":3,\"sev\":0}\n"
    "5.000000s [policy_denied] 02:00:00:00:00:0b (deny-guests) sev=2\n"
    "{\"id\":20,\"t\":5000000000,\"type\":\"policy_denied\",\"subject\":\"02:00:00:00:00:0b\""
    ",\"detail\":\"deny-guests\",\"dpid\":2,\"se\":0,\"sev\":2}\n"
    "5.250000s [aggregate_limit_hit] 02:00:00:00:00:01 (bittorrent) sev=3\n"
    "{\"id\":21,\"t\":5250000000,\"type\":\"aggregate_limit_hit\",\"subject\":\"02:00:00:00:0"
    "0:01\",\"detail\":\"bittorrent\",\"dpid\":1,\"se\":3,\"sev\":3}\n"
    "5.500000s [se_migrated] se3 (now at dpid=2, 1 flows re-routed)\n"
    "{\"id\":22,\"t\":5500000000,\"type\":\"se_migrated\",\"subject\":\"se3\",\"detail\":\"no"
    "w at dpid=2, 1 flows re-routed\",\"dpid\":2,\"se\":3,\"sev\":0}\n"
    "5.750000s [host_moved] 02:00:00:00:00:0b (now at dpid=1, 0 flows re-routed)\n"
    "{\"id\":23,\"t\":5750000000,\"type\":\"host_moved\",\"subject\":\"02:00:00:00:00:0b\",\""
    "detail\":\"now at dpid=1, 0 flows re-routed\",\"dpid\":1,\"se\":0,\"sev\":0}\n"
    "6.000000s [failover] controller (promoted to active)\n"
    "{\"id\":24,\"t\":6000000000,\"type\":\"failover\",\"subject\":\"controller\",\"detail\":"
    "\"promoted to active\",\"dpid\":0,\"se\":0,\"sev\":0}\n"
    "6.250000s [reconciled] controller (4 entries audited, 1 stale removed, 0 drops reinstall"
    "ed)\n"
    "{\"id\":25,\"t\":6250000000,\"type\":\"reconciled\",\"subject\":\"controller\",\"detail"
    "\":\"4 entries audited, 1 stale removed, 0 drops reinstalled\",\"dpid\":0,\"se\":0,\"sev"
    "\":0}\n"
    "6.500000s [flow_offloaded] 02:00:00:00:00:01 (cut through after 4096 clean bytes)\n"
    "{\"id\":26,\"t\":6500000000,\"type\":\"flow_offloaded\",\"subject\":\"02:00:00:00:00:01"
    "\",\"detail\":\"cut through after 4096 clean bytes\",\"dpid\":1,\"se\":3,\"sev\":0}\n"
    "6.750000s [se_offline] se3 (intrusion_detection, 2 flows re-routed)\n"
    "{\"id\":27,\"t\":6750000000,\"type\":\"se_offline\",\"subject\":\"se3\",\"detail\":\"int"
    "rusion_detection, 2 flows re-routed\",\"dpid\":1,\"se\":3,\"sev\":0}\n"
    "7.000000s [host_join] caf\xc3\xa9 (h\xffx)\n"
    "{\"id\":28,\"t\":7000000000,\"type\":\"host_join\",\"subject\":\"caf\\u00c3\\u00a9\",\"d"
    "etail\":\"h\\u00ffx\",\"dpid\":2,\"se\":0,\"sev\":0}\n"
    "7.250000s [protocol_identified] 02:00:00:00:00:0b (http)\n"
    "{\"id\":29,\"t\":7250000000,\"type\":\"protocol_identified\",\"subject\":\"02:00:00:00:0"
    "0:0b\",\"detail\":\"http\",\"dpid\":2,\"se\":3,\"sev\":0}\n"
    "7.500000s [host_join] 02:00:00:00:00:0c (10.0.0.12)\n"
    "{\"id\":30,\"t\":7500000000,\"type\":\"host_join\",\"subject\":\"02:00:00:00:00:0c\",\"d"
    "etail\":\"10.0.0.12\",\"dpid\":2,\"se\":0,\"sev\":0}\n"
    "7.750000s [host_leave] 02:00:00:00:00:0c (switch disconnected)\n"
    "{\"id\":31,\"t\":7750000000,\"type\":\"host_leave\",\"subject\":\"02:00:00:00:00:0c\",\""
    "detail\":\"switch disconnected\",\"dpid\":2,\"se\":0,\"sev\":0}\n"
    "8.000000s [se_online] se9 (firewall)\n"
    "{\"id\":32,\"t\":8000000000,\"type\":\"se_online\",\"subject\":\"se9\",\"detail\":\"fire"
    "wall\",\"dpid\":2,\"se\":9,\"sev\":0}\n"
    "8.250000s [se_online] se10 (firewall)\n"
    "{\"id\":33,\"t\":8250000000,\"type\":\"se_online\",\"subject\":\"se10\",\"detail\":\"fir"
    "ewall\",\"dpid\":2,\"se\":10,\"sev\":0}\n"
    "8.500000s [protocol_identified] 02:00:00:00:00:01 (dns)\n"
    "{\"id\":34,\"t\":8500000000,\"type\":\"protocol_identified\",\"subject\":\"02:00:00:00:0"
    "0:01\",\"detail\":\"dns\",\"dpid\":1,\"se\":3,\"sev\":0}\n"
    "";

const std::string kPipelineJson =
    "[{\"id\":1,\"t\":250000000,\"type\":\"switch_join\",\"subject\":\"sw-core\",\"detail\":"
    "\"dpid=1\",\"dpid\":1,\"se\":0,\"sev\":0},{\"id\":2,\"t\":500000000,\"type\":\"switch_le"
    "ave\",\"subject\":\"sw-edge\",\"detail\":\"dpid=2\",\"dpid\":2,\"se\":0,\"sev\":0},{\"id"
    "\":3,\"t\":750000000,\"type\":\"host_join\",\"subject\":\"02:00:00:00:00:01\",\"detail\""
    ":\"10.0.0.1\",\"dpid\":1,\"se\":0,\"sev\":0},{\"id\":4,\"t\":1000000000,\"type\":\"host_"
    "leave\",\"subject\":\"02:00:00:00:00:0b\",\"detail\":\"arp timeout\",\"dpid\":1,\"se\":0"
    ",\"sev\":0},{\"id\":5,\"t\":1250000000,\"type\":\"se_online\",\"subject\":\"se3\",\"deta"
    "il\":\"intrusion_detection\",\"dpid\":1,\"se\":3,\"sev\":0},{\"id\":6,\"t\":1500000000,"
    "\"type\":\"link_discovered\",\"subject\":\"dpid1<->dpid2\",\"detail\":\"\",\"dpid\":1,\""
    "se\":0,\"sev\":0},{\"id\":7,\"t\":1750000000,\"type\":\"flow_start\",\"subject\":\"02:00"
    ":00:00:00:01\",\"detail\":\"[02:00:00:00:00:01>02:00:00:00:00:0b 10.0.0.1:40001>10.0.1.1"
    ":80 proto=6]\",\"dpid\":1,\"se\":0,\"sev\":0},{\"id\":8,\"t\":2000000000,\"type\":\"flow"
    "_start\",\"subject\":\"02:00:00:00:00:01\",\"detail\":\"[02:00:00:00:00:01>02:00:00:00:0"
    "0:0b 10.0.0.1:40002>10.0.1.1:80 proto=6] via 1 SE\",\"dpid\":1,\"se\":0,\"sev\":0},{\"id"
    "\":9,\"t\":2250000000,\"type\":\"flow_start\",\"subject\":\"02:00:00:00:00:0b\",\"detail"
    "\":\"[02:00:00:00:00:0b>02:00:00:00:00:01 10.0.0.11:40003>10.0.1.1:80 proto=6] via 2 SE"
    "\",\"dpid\":2,\"se\":0,\"sev\":0},{\"id\":10,\"t\":2500000000,\"type\":\"flow_end\",\"su"
    "bject\":\"02:00:00:00:00:01\",\"detail\":\"pkts=12 bytes=3400\",\"dpid\":1,\"se\":0,\"se"
    "v\":0},{\"id\":11,\"t\":2750000000,\"type\":\"flow_end\",\"subject\":\"02:00:00:00:00:01"
    "\",\"detail\":\"torn down\",\"dpid\":1,\"se\":0,\"sev\":0},{\"id\":12,\"t\":3000000000,"
    "\"type\":\"attack_detected\",\"subject\":\"02:00:00:00:00:01\",\"detail\":\"malicious ve"
    "rdict rule=7\",\"dpid\":1,\"se\":3,\"sev\":8},{\"id\":13,\"t\":3250000000,\"type\":\"flo"
    "w_blocked\",\"subject\":\"02:00:00:00:00:01\",\"detail\":\"blocked at ingress dpid=1\","
    "\"dpid\":1,\"se\":3,\"sev\":8},{\"id\":14,\"t\":3500000000,\"type\":\"protocol_identifie"
    "d\",\"subject\":\"02:00:00:00:00:01\",\"detail\":\"http\",\"dpid\":1,\"se\":3,\"sev\":0}"
    ",{\"id\":15,\"t\":3750000000,\"type\":\"protocol_identified\",\"subject\":\"02:00:00:00:"
    "00:0b\",\"detail\":\"bittorrent\",\"dpid\":2,\"se\":3,\"sev\":0},{\"id\":16,\"t\":400000"
    "0000,\"type\":\"virus_found\",\"subject\":\"02:00:00:00:00:0b\",\"detail\":\"eicar\",\"d"
    "pid\":2,\"se\":3,\"sev\":9},{\"id\":17,\"t\":4250000000,\"type\":\"content_violation\","
    "\"subject\":\"02:00:00:00:00:01\",\"detail\":\"keyword \\\"secret\\\"\\tin body\",\"dpid"
    "\":1,\"se\":3,\"sev\":5},{\"id\":18,\"t\":4500000000,\"type\":\"certification_rejected\""
    ",\"subject\":\"se4\",\"detail\":\"invalid certificate\",\"dpid\":2,\"se\":4,\"sev\":8},{"
    "\"id\":19,\"t\":4750000000,\"type\":\"load_report\",\"subject\":\"se3\",\"detail\":\"\","
    "\"dpid\":1,\"se\":3,\"sev\":0},{\"id\":20,\"t\":5000000000,\"type\":\"policy_denied\",\""
    "subject\":\"02:00:00:00:00:0b\",\"detail\":\"deny-guests\",\"dpid\":2,\"se\":0,\"sev\":2"
    "},{\"id\":21,\"t\":5250000000,\"type\":\"aggregate_limit_hit\",\"subject\":\"02:00:00:00"
    ":00:01\",\"detail\":\"bittorrent\",\"dpid\":1,\"se\":3,\"sev\":3},{\"id\":22,\"t\":55000"
    "00000,\"type\":\"se_migrated\",\"subject\":\"se3\",\"detail\":\"now at dpid=2, 1 flows r"
    "e-routed\",\"dpid\":2,\"se\":3,\"sev\":0},{\"id\":23,\"t\":5750000000,\"type\":\"host_mo"
    "ved\",\"subject\":\"02:00:00:00:00:0b\",\"detail\":\"now at dpid=1, 0 flows re-routed\","
    "\"dpid\":1,\"se\":0,\"sev\":0},{\"id\":24,\"t\":6000000000,\"type\":\"failover\",\"subje"
    "ct\":\"controller\",\"detail\":\"promoted to active\",\"dpid\":0,\"se\":0,\"sev\":0},{\""
    "id\":25,\"t\":6250000000,\"type\":\"reconciled\",\"subject\":\"controller\",\"detail\":"
    "\"4 entries audited, 1 stale removed, 0 drops reinstalled\",\"dpid\":0,\"se\":0,\"sev\":"
    "0},{\"id\":26,\"t\":6500000000,\"type\":\"flow_offloaded\",\"subject\":\"02:00:00:00:00:"
    "01\",\"detail\":\"cut through after 4096 clean bytes\",\"dpid\":1,\"se\":3,\"sev\":0},{"
    "\"id\":27,\"t\":6750000000,\"type\":\"se_offline\",\"subject\":\"se3\",\"detail\":\"intr"
    "usion_detection, 2 flows re-routed\",\"dpid\":1,\"se\":3,\"sev\":0},{\"id\":28,\"t\":700"
    "0000000,\"type\":\"host_join\",\"subject\":\"caf\\u00c3\\u00a9\",\"detail\":\"h\\u00ffx"
    "\",\"dpid\":2,\"se\":0,\"sev\":0},{\"id\":29,\"t\":7250000000,\"type\":\"protocol_identi"
    "fied\",\"subject\":\"02:00:00:00:00:0b\",\"detail\":\"http\",\"dpid\":2,\"se\":3,\"sev\""
    ":0},{\"id\":30,\"t\":7500000000,\"type\":\"host_join\",\"subject\":\"02:00:00:00:00:0c\""
    ",\"detail\":\"10.0.0.12\",\"dpid\":2,\"se\":0,\"sev\":0},{\"id\":31,\"t\":7750000000,\"t"
    "ype\":\"host_leave\",\"subject\":\"02:00:00:00:00:0c\",\"detail\":\"switch disconnected"
    "\",\"dpid\":2,\"se\":0,\"sev\":0},{\"id\":32,\"t\":8000000000,\"type\":\"se_online\",\"s"
    "ubject\":\"se9\",\"detail\":\"firewall\",\"dpid\":2,\"se\":9,\"sev\":0},{\"id\":33,\"t\""
    ":8250000000,\"type\":\"se_online\",\"subject\":\"se10\",\"detail\":\"firewall\",\"dpid\""
    ":2,\"se\":10,\"sev\":0},{\"id\":34,\"t\":8500000000,\"type\":\"protocol_identified\",\"s"
    "ubject\":\"02:00:00:00:00:01\",\"detail\":\"dns\",\"dpid\":1,\"se\":3,\"sev\":0}]";

const std::string kReplay =
    "8 2.000000s [flow_start] 02:00:00:00:00:01 ([02:00:00:00:00:01>02:00:00:00:00:0b 10.0.0."
    "1:40002>10.0.1.1:80 proto=6] via 1 SE)\n"
    "9 2.250000s [flow_start] 02:00:00:00:00:0b ([02:00:00:00:00:0b>02:00:00:00:00:01 10.0.0."
    "11:40003>10.0.1.1:80 proto=6] via 2 SE)\n"
    "10 2.500000s [flow_end] 02:00:00:00:00:01 (pkts=12 bytes=3400)\n"
    "11 2.750000s [flow_end] 02:00:00:00:00:01 (torn down)\n"
    "12 3.000000s [attack_detected] 02:00:00:00:00:01 (malicious verdict rule=7) sev=8\n"
    "13 3.250000s [flow_blocked] 02:00:00:00:00:01 (blocked at ingress dpid=1) sev=8\n"
    "14 3.500000s [protocol_identified] 02:00:00:00:00:01 (http)\n"
    "15 3.750000s [protocol_identified] 02:00:00:00:00:0b (bittorrent)\n"
    "16 4.000000s [virus_found] 02:00:00:00:00:0b (eicar) sev=9\n"
    "17 4.250000s [content_violation] 02:00:00:00:00:01 (keyword \"secret\"\tin body) sev=5\n"
    "18 4.500000s [certification_rejected] se4 (invalid certificate) sev=8\n"
    "19 4.750000s [load_report] se3\n"
    "20 5.000000s [policy_denied] 02:00:00:00:00:0b (deny-guests) sev=2\n"
    "21 5.250000s [aggregate_limit_hit] 02:00:00:00:00:01 (bittorrent) sev=3\n"
    "22 5.500000s [se_migrated] se3 (now at dpid=2, 1 flows re-routed)\n"
    "23 5.750000s [host_moved] 02:00:00:00:00:0b (now at dpid=1, 0 flows re-routed)\n"
    "";

const std::string kSubjectQueries =
    "02:00:00:00:00:01: 34 26 21 17\n"
    "02:00:00:00:00:0b: 29 23 20 16\n"
    "se3: 27 22 19 5\n"
    "controller: 25 24\n"
    "sw-core: 1\n"
    "caf\xc3\xa9: 28\n"
    "se03:\n"
    "02:00:00:00:00:0B:\n"
    "missing:\n"
    "";

const std::string kHistogram =
    "switch_join=1\n"
    "switch_leave=1\n"
    "host_join=3\n"
    "host_leave=2\n"
    "se_online=3\n"
    "se_offline=1\n"
    "link_discovered=1\n"
    "flow_start=3\n"
    "flow_end=2\n"
    "attack_detected=1\n"
    "flow_blocked=1\n"
    "protocol_identified=4\n"
    "virus_found=1\n"
    "content_violation=1\n"
    "certification_rejected=1\n"
    "load_report=1\n"
    "policy_denied=1\n"
    "aggregate_limit_hit=1\n"
    "se_migrated=1\n"
    "host_moved=1\n"
    "failover=1\n"
    "reconciled=1\n"
    "flow_offloaded=1\n"
    "";

const std::string kRollupJson =
    "{\"bucket_width\":1000000000,\"total\":34,\"pruned_buckets\":0,\"buckets\":[{\"t\":0,\"t"
    "otal\":3,\"sev_max\":0,\"by_type\":{\"switch_join\":1,\"switch_leave\":1,\"host_join\":1"
    "}},{\"t\":1000000000,\"total\":4,\"sev_max\":0,\"by_type\":{\"host_leave\":1,\"se_online"
    "\":1,\"link_discovered\":1,\"flow_start\":1}},{\"t\":2000000000,\"total\":4,\"sev_max\":"
    "0,\"by_type\":{\"flow_start\":2,\"flow_end\":2}},{\"t\":3000000000,\"total\":4,\"sev_max"
    "\":8,\"by_type\":{\"attack_detected\":1,\"flow_blocked\":1,\"protocol_identified\":2}},{"
    "\"t\":4000000000,\"total\":4,\"sev_max\":9,\"by_type\":{\"virus_found\":1,\"content_viol"
    "ation\":1,\"certification_rejected\":1,\"load_report\":1}},{\"t\":5000000000,\"total\":4"
    ",\"sev_max\":3,\"by_type\":{\"policy_denied\":1,\"aggregate_limit_hit\":1,\"se_migrated"
    "\":1,\"host_moved\":1}},{\"t\":6000000000,\"total\":4,\"sev_max\":0,\"by_type\":{\"se_of"
    "fline\":1,\"failover\":1,\"reconciled\":1,\"flow_offloaded\":1}},{\"t\":7000000000,\"tot"
    "al\":4,\"sev_max\":0,\"by_type\":{\"host_join\":2,\"host_leave\":1,\"protocol_identified"
    "\":1}},{\"t\":8000000000,\"total\":3,\"sev_max\":0,\"by_type\":{\"se_online\":2,\"protoc"
    "ol_identified\":1}}],\"top_subjects\":[{\"key\":\"02:00:00:00:00:01\",\"count\":12},{\"k"
    "ey\":\"02:00:00:00:00:0b\",\"count\":7},{\"key\":\"se3\",\"count\":4},{\"key\":\"02:00:0"
    "0:00:00:0c\",\"count\":2},{\"key\":\"controller\",\"count\":2},{\"key\":\"caf\\u00c3\\u0"
    "0a9\",\"count\":1},{\"key\":\"dpid1<->dpid2\",\"count\":1},{\"key\":\"se10\",\"count\":1"
    "},{\"key\":\"se4\",\"count\":1},{\"key\":\"se9\",\"count\":1},{\"key\":\"sw-core\",\"cou"
    "nt\":1},{\"key\":\"sw-edge\",\"count\":1}],\"top_protocols\":[{\"key\":\"http\",\"count"
    "\":2},{\"key\":\"bittorrent\",\"count\":1},{\"key\":\"dns\",\"count\":1}]}";

const std::string kWebUiReplayJson =
    "{\"from\":1000000000,\"to\":5000000000,\"events\":[{\"id\":4,\"t\":1000000000,\"type\":"
    "\"host_leave\",\"subject\":\"02:00:00:00:00:0b\",\"detail\":\"arp timeout\",\"dpid\":1,"
    "\"se\":0,\"sev\":0},{\"id\":5,\"t\":1250000000,\"type\":\"se_online\",\"subject\":\"se3"
    "\",\"detail\":\"intrusion_detection\",\"dpid\":1,\"se\":3,\"sev\":0},{\"id\":6,\"t\":150"
    "0000000,\"type\":\"link_discovered\",\"subject\":\"dpid1<->dpid2\",\"detail\":\"\",\"dpi"
    "d\":1,\"se\":0,\"sev\":0},{\"id\":7,\"t\":1750000000,\"type\":\"flow_start\",\"subject\""
    ":\"02:00:00:00:00:01\",\"detail\":\"[02:00:00:00:00:01>02:00:00:00:00:0b 10.0.0.1:40001>"
    "10.0.1.1:80 proto=6]\",\"dpid\":1,\"se\":0,\"sev\":0},{\"id\":8,\"t\":2000000000,\"type"
    "\":\"flow_start\",\"subject\":\"02:00:00:00:00:01\",\"detail\":\"[02:00:00:00:00:01>02:0"
    "0:00:00:00:0b 10.0.0.1:40002>10.0.1.1:80 proto=6] via 1 SE\",\"dpid\":1,\"se\":0,\"sev\""
    ":0},{\"id\":9,\"t\":2250000000,\"type\":\"flow_start\",\"subject\":\"02:00:00:00:00:0b\""
    ",\"detail\":\"[02:00:00:00:00:0b>02:00:00:00:00:01 10.0.0.11:40003>10.0.1.1:80 proto=6] "
    "via 2 SE\",\"dpid\":2,\"se\":0,\"sev\":0},{\"id\":10,\"t\":2500000000,\"type\":\"flow_en"
    "d\",\"subject\":\"02:00:00:00:00:01\",\"detail\":\"pkts=12 bytes=3400\",\"dpid\":1,\"se"
    "\":0,\"sev\":0},{\"id\":11,\"t\":2750000000,\"type\":\"flow_end\",\"subject\":\"02:00:00"
    ":00:00:01\",\"detail\":\"torn down\",\"dpid\":1,\"se\":0,\"sev\":0},{\"id\":12,\"t\":300"
    "0000000,\"type\":\"attack_detected\",\"subject\":\"02:00:00:00:00:01\",\"detail\":\"mali"
    "cious verdict rule=7\",\"dpid\":1,\"se\":3,\"sev\":8},{\"id\":13,\"t\":3250000000,\"type"
    "\":\"flow_blocked\",\"subject\":\"02:00:00:00:00:01\",\"detail\":\"blocked at ingress dp"
    "id=1\",\"dpid\":1,\"se\":3,\"sev\":8},{\"id\":14,\"t\":3500000000,\"type\":\"protocol_id"
    "entified\",\"subject\":\"02:00:00:00:00:01\",\"detail\":\"http\",\"dpid\":1,\"se\":3,\"s"
    "ev\":0},{\"id\":15,\"t\":3750000000,\"type\":\"protocol_identified\",\"subject\":\"02:00"
    ":00:00:00:0b\",\"detail\":\"bittorrent\",\"dpid\":2,\"se\":3,\"sev\":0},{\"id\":16,\"t\""
    ":4000000000,\"type\":\"virus_found\",\"subject\":\"02:00:00:00:00:0b\",\"detail\":\"eica"
    "r\",\"dpid\":2,\"se\":3,\"sev\":9},{\"id\":17,\"t\":4250000000,\"type\":\"content_violat"
    "ion\",\"subject\":\"02:00:00:00:00:01\",\"detail\":\"keyword \\\"secret\\\"\\tin body\","
    "\"dpid\":1,\"se\":3,\"sev\":5},{\"id\":18,\"t\":4500000000,\"type\":\"certification_reje"
    "cted\",\"subject\":\"se4\",\"detail\":\"invalid certificate\",\"dpid\":2,\"se\":4,\"sev"
    "\":8},{\"id\":19,\"t\":4750000000,\"type\":\"load_report\",\"subject\":\"se3\",\"detail"
    "\":\"\",\"dpid\":1,\"se\":3,\"sev\":0}]}";

const std::string kWebUiRollupJson =
    "{\"bucket_width\":1000000000,\"total\":34,\"pruned_buckets\":0,\"buckets\":[{\"t\":0,\"t"
    "otal\":3,\"sev_max\":0,\"by_type\":{\"switch_join\":1,\"switch_leave\":1,\"host_join\":1"
    "}},{\"t\":1000000000,\"total\":4,\"sev_max\":0,\"by_type\":{\"host_leave\":1,\"se_online"
    "\":1,\"link_discovered\":1,\"flow_start\":1}},{\"t\":2000000000,\"total\":4,\"sev_max\":"
    "0,\"by_type\":{\"flow_start\":2,\"flow_end\":2}},{\"t\":3000000000,\"total\":4,\"sev_max"
    "\":8,\"by_type\":{\"attack_detected\":1,\"flow_blocked\":1,\"protocol_identified\":2}}],"
    "\"top_subjects\":[{\"key\":\"02:00:00:00:00:01\",\"count\":12},{\"key\":\"02:00:00:00:00"
    ":0b\",\"count\":7},{\"key\":\"se3\",\"count\":4}],\"top_protocols\":[{\"key\":\"http\","
    "\"count\":2},{\"key\":\"bittorrent\",\"count\":1},{\"key\":\"dns\",\"count\":1}]}";

TEST(EventGolden, EventToStringAndToJson) {
  EXPECT_EQ(render_event_lines(golden_pipeline()), kEventLines);
}

TEST(EventGolden, PipelineJsonAndReplay) {
  const EventPipeline pipeline = golden_pipeline();
  EXPECT_EQ(pipeline.to_json(0, kAll), kPipelineJson);
  EXPECT_EQ(render_replay(pipeline), kReplay);
}

TEST(EventGolden, SubjectQueries) {
  EXPECT_EQ(render_subject_queries(golden_pipeline()), kSubjectQueries);
}

TEST(EventGolden, HistogramAndRollupTieOrder) {
  const EventPipeline pipeline = golden_pipeline();
  EXPECT_EQ(render_histogram(pipeline), kHistogram);
  EXPECT_EQ(pipeline.rollup_json(0, kAll, 12), kRollupJson);
}

TEST(EventGolden, WebUiEventAndRollupJson) {
  sim::Simulator sim;
  ctrl::Controller controller(sim);
  for (NetworkEvent& e : golden_stream()) controller.events().append(std::move(e));
  const WebUi ui(controller);
  EXPECT_EQ(ui.replay_json(kSecond, 5 * kSecond), kWebUiReplayJson);
  EXPECT_EQ(ui.rollup_json(0, 4 * kSecond, 3), kWebUiRollupJson);
}

// The same renderings after each codec round trip: whole-store persistence,
// the HA row-batch export/restore and a row batch.
TEST(EventGolden, CodecRoundTripsRenderIdentically) {
  const EventPipeline pipeline = golden_pipeline();
  const auto restored = EventPipeline::deserialize(pipeline.serialize(), pipeline.config());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(render_event_lines(*restored), kEventLines);
  EXPECT_EQ(restored->rollup_json(0, kAll, 12), kRollupJson);

  EventPipeline replica(pipeline.config());
  for (const auto& blob : pipeline.export_row_batches()) {
    ASSERT_TRUE(replica.restore_rows(blob));
  }
  EXPECT_EQ(render_event_lines(replica), kEventLines);
  EXPECT_EQ(replica.rollup_json(0, kAll, 12), kRollupJson);

  const auto rows = EventPipeline::decode_rows(
      EventPipeline::encode_rows(pipeline.query_range(0, kAll)));
  ASSERT_TRUE(rows.has_value());
  std::string lines;
  for (const NetworkEvent& e : *rows) lines += e.to_string() + "\n" + e.to_json() + "\n";
  EXPECT_EQ(lines, kEventLines);
}

}  // namespace
}  // namespace livesec::mon
