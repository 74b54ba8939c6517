// The controller's flow-session table: how SE reports (EVENT and VERDICT
// daemon messages) resolve the key an SE observed — forward, reverse,
// steered, steered-reverse, ICMP echo reverse, and a key that is one
// session's forward key and another's reverse key — onto a session, and a
// randomized property test of the session table against a std::map
// reference model: setups, FlowRemoved with live, stale (reused-slot) and
// foreign cookies or a mismatched match, host roams, SE migrations and
// switch disconnects; and, for every path shape, that the entries a session
// remembers are exactly the ones it installed.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "controller/controller.h"
#include "openflow/channel.h"
#include "packet/packet.h"
#include "services/l7/l7_classifier.h"
#include "services/message.h"
#include "services/service_element.h"
#include "sim/simulator.h"

namespace livesec {
namespace {

constexpr SimTime kForever = std::numeric_limits<SimTime>::max();
constexpr std::uint64_t kSeId = 7;
constexpr PortId kUplink = 9;
constexpr std::uint16_t kRedirectPort = 80;

/// Every FlowMod the controller sent, in arrival order over all switches.
using SentLog = std::vector<std::pair<DatapathId, of::FlowMod>>;

/// Records every FlowMod a switch receives, batches flattened, into its own
/// list and the shared log.
class RecordingSwitch : public of::SwitchEndpoint {
 public:
  RecordingSwitch(DatapathId dpid, SentLog& log) : dpid_(dpid), log_(log) {}
  DatapathId datapath_id() const override { return dpid_; }
  void handle_controller_message(const of::Message& m) override {
    if (const auto* fm = std::get_if<of::FlowMod>(&m)) {
      record(*fm);
    } else if (const auto* batch = std::get_if<of::FlowModBatch>(&m)) {
      for (const of::FlowMod& mod : batch->mods) record(mod);
    }
  }

  std::vector<of::FlowMod> flow_mods;

 private:
  void record(const of::FlowMod& mod) {
    flow_mods.push_back(mod);
    log_.emplace_back(dpid_, mod);
  }

  DatapathId dpid_;
  SentLog& log_;
};

struct Endpoint {
  MacAddress mac;
  Ipv4Address ip;
  DatapathId dpid = 0;
  PortId port = kInvalidPort;
};

/// What the switch reports back when an entry carrying a removal
/// notification leaves its table.
struct RemovalId {
  DatapathId dpid = 0;
  of::Match match;
  std::uint64_t cookie = 0;
};

/// Three AS switches wired straight to one controller (no data plane), six
/// hosts, and one certified IDS SE that UDP/80 is redirected through. Every
/// control message is delivered by advancing the clock 1 ms.
struct SessionNet {
  static constexpr int kSwitches = 3;
  static constexpr int kHosts = 6;

  sim::Simulator sim;
  ctrl::Controller controller{sim};
  SentLog sent;
  std::vector<std::unique_ptr<RecordingSwitch>> switches;
  std::vector<std::unique_ptr<of::SecureChannel>> channels;
  std::vector<Endpoint> hosts;
  Endpoint se{MacAddress::from_uint64(0x5E0007), Ipv4Address(10, 0, 9, 7), 3, 8};

  SessionNet() {
    for (int i = 0; i < kSwitches; ++i) {
      const auto dpid = static_cast<DatapathId>(i + 1);
      switches.push_back(std::make_unique<RecordingSwitch>(dpid, sent));
      channels.push_back(std::make_unique<of::SecureChannel>(sim, *switches.back(), controller,
                                                             10 * kMicrosecond));
      controller.attach_channel(dpid, *channels.back());
    }
    for (int i = 0; i < kSwitches; ++i) connect(static_cast<DatapathId>(i + 1));
    for (int i = 0; i < kHosts; ++i) {
      hosts.push_back(Endpoint{MacAddress::from_uint64(0x0A0000u + static_cast<unsigned>(i)),
                               Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i + 1)),
                               static_cast<DatapathId>(1 + i % kSwitches),
                               static_cast<PortId>(1 + i / kSwitches)});
      announce(hosts.back());
    }
    ctrl::Policy redirect;
    redirect.name = "udp80-via-ids";
    redirect.nw_proto = static_cast<std::uint8_t>(pkt::IpProto::kUdp);
    redirect.tp_dst = kRedirectPort;
    redirect.action = ctrl::PolicyAction::kRedirect;
    redirect.service_chain = {svc::ServiceType::kIntrusionDetection};
    controller.policies().add(redirect);
    se_online();
  }

  of::SecureChannel& channel(DatapathId dpid) { return *channels[dpid - 1]; }

  void settle() { sim.run_until(sim.now() + kMillisecond); }

  void connect(DatapathId dpid) {
    channel(dpid).connect(of::FeaturesReply{dpid, 16, "sw" + std::to_string(dpid)});
    settle();
    controller.register_ls_port(dpid, kUplink);
  }

  void packet_in(DatapathId dpid, PortId in_port, pkt::PacketPtr packet) {
    of::PacketIn pin;
    pin.in_port = in_port;
    pin.packet = std::move(packet);
    channel(dpid).send_to_controller(std::move(pin));
    settle();
  }

  void announce(const Endpoint& host) {
    packet_in(host.dpid, host.port,
              pkt::PacketBuilder()
                  .eth(host.mac, MacAddress::broadcast())
                  .arp(pkt::ArpOp::kRequest, host.mac, host.ip, MacAddress{}, host.ip)
                  .finalize());
  }

  void daemon(const decltype(svc::DaemonMessage::body)& body) { daemon_from(kSeId, se, body); }

  void daemon_from(std::uint64_t se_id, const Endpoint& from,
                   const decltype(svc::DaemonMessage::body)& body) {
    svc::DaemonMessage message;
    message.se_id = se_id;
    message.cert_token = controller.certification().issue(se_id);
    message.body = body;
    packet_in(from.dpid, from.port,
              pkt::PacketBuilder()
                  .eth(from.mac, svc::controller_service_mac())
                  .ipv4(from.ip, svc::controller_service_ip(), pkt::IpProto::kUdp)
                  .udp(svc::kLiveSecPort, svc::kLiveSecPort)
                  .payload(pkt::make_payload(message.encode()))
                  .finalize());
  }

  void se_online() {
    svc::OnlineMessage online;
    online.service = svc::ServiceType::kIntrusionDetection;
    online.capacity_bps = 1'000'000'000;
    daemon(online);
  }

  void flow_removed(const RemovalId& id) {
    of::FlowRemoved removed;
    removed.match = id.match;
    removed.cookie = id.cookie;
    removed.reason = of::RemovalReason::kIdleTimeout;
    removed.packet_count = 3;
    removed.byte_count = 300;
    channel(id.dpid).send_to_controller(std::move(removed));
    settle();
  }

  static pkt::PacketPtr udp(const Endpoint& src, const Endpoint& dst, std::uint16_t tp_src,
                            std::uint16_t tp_dst) {
    return pkt::PacketBuilder()
        .eth(src.mac, dst.mac)
        .ipv4(src.ip, dst.ip, pkt::IpProto::kUdp)
        .udp(tp_src, tp_dst)
        .finalize();
  }

  static pkt::PacketPtr icmp(const Endpoint& src, const Endpoint& dst, std::uint8_t type) {
    return pkt::PacketBuilder()
        .eth(src.mac, dst.mac)
        .ipv4(src.ip, dst.ip, pkt::IpProto::kIcmp)
        .icmp(static_cast<pkt::IcmpType>(type), 1, 1)
        .finalize();
  }

  /// Sends the packet-in from `src`'s port; returns the flow key.
  pkt::FlowKey start(const Endpoint& src, pkt::PacketPtr packet) {
    const pkt::FlowKey key = pkt::FlowKey::from_packet(*packet);
    packet_in(src.dpid, src.port, std::move(packet));
    return key;
  }

  std::size_t mods_sent() const {
    std::size_t n = 0;
    for (const auto& s : switches) n += s->flow_mods.size();
    return n;
  }

  /// Entries asking for a removal notification among the FlowMods sent
  /// since `mods_before` (per switch, in switch order).
  std::vector<RemovalId> notifying_adds_since(const std::vector<std::size_t>& mods_before) const {
    std::vector<RemovalId> out;
    for (std::size_t s = 0; s < switches.size(); ++s) {
      const auto& mods = switches[s]->flow_mods;
      for (std::size_t i = mods_before[s]; i < mods.size(); ++i) {
        if (mods[i].command == of::FlowModCommand::kAdd && mods[i].notify_on_removal) {
          out.push_back(RemovalId{static_cast<DatapathId>(s + 1), mods[i].entry.match,
                                  mods[i].entry.cookie});
        }
      }
    }
    return out;
  }

  std::vector<std::size_t> mod_marks() const {
    std::vector<std::size_t> marks;
    for (const auto& s : switches) marks.push_back(s->flow_mods.size());
    return marks;
  }

  /// The flow of the newest event of `type`.
  pkt::FlowKey last_event_flow(mon::EventType type) const {
    const auto events = controller.events().query_type(type, 0, kForever);
    EXPECT_FALSE(events.empty());
    return events.empty() ? pkt::FlowKey{} : events.back().flow;
  }

  /// The session an SE EVENT report for `reported` was attributed to.
  pkt::FlowKey event_resolves_to(const pkt::FlowKey& reported) {
    svc::EventMessage event;
    event.kind = svc::EventKind::kProtocolIdentified;
    event.rule_id = static_cast<std::uint32_t>(svc::l7::AppProtocol::kHttp);
    event.flow = reported;
    daemon(event);
    return last_event_flow(mon::EventType::kProtocolIdentified);
  }

  /// The session a malicious VERDICT for `reported` was attributed to.
  pkt::FlowKey malicious_verdict_resolves_to(const pkt::FlowKey& reported) {
    svc::VerdictMessage verdict;
    verdict.verdict = svc::FlowVerdict::kMalicious;
    verdict.flow = reported;
    verdict.rule_id = 42;
    verdict.severity = 9;
    daemon(verdict);
    return last_event_flow(mon::EventType::kAttackDetected);
  }
};

pkt::FlowKey with_dl_dst(pkt::FlowKey key, MacAddress mac) {
  key.dl_dst = mac;
  return key;
}

/// The controller's session-aware reverse: ICMP echo request <-> reply.
pkt::FlowKey session_reverse(const pkt::FlowKey& key) {
  pkt::FlowKey rev = key.reversed();
  if (key.nw_proto == static_cast<std::uint8_t>(pkt::IpProto::kIcmp)) {
    rev.tp_src = key.tp_src == 8 ? 0 : 8;
    rev.tp_dst = 0;
  }
  return rev;
}

// --- SE report key resolution -------------------------------------------------------

TEST(FlowSessionKeys, ForwardReverseAndSteeredReportsResolveToTheSession) {
  SessionNet net;
  const pkt::FlowKey key =
      net.start(net.hosts[0], SessionNet::udp(net.hosts[0], net.hosts[1], 1000, kRedirectPort));
  ASSERT_EQ(net.controller.flow_se_ids(key), std::vector<std::uint64_t>{kSeId});

  const pkt::FlowKey reverse = session_reverse(key);
  EXPECT_EQ(net.event_resolves_to(key), key);
  EXPECT_EQ(net.event_resolves_to(reverse), key);
  EXPECT_EQ(net.event_resolves_to(with_dl_dst(key, net.se.mac)), key);
  EXPECT_EQ(net.event_resolves_to(with_dl_dst(reverse, net.se.mac)), key);
  // The first identification is the one the session keeps.
  EXPECT_EQ(net.controller.events()
                .query_type(mon::EventType::kProtocolIdentified, 0, kForever)
                .size(),
            4u);

  // Verdicts take the same mapping: a malicious verdict on the SE's view of
  // the reply direction blocks the user's forward flow at its ingress.
  EXPECT_EQ(net.malicious_verdict_resolves_to(with_dl_dst(reverse, net.se.mac)), key);
  EXPECT_TRUE(net.controller.flow_blocked(key));
  EXPECT_FALSE(net.controller.flow_blocked(reverse));
  EXPECT_EQ(net.last_event_flow(mon::EventType::kFlowBlocked), key);
  EXPECT_EQ(net.controller.stats().flows_blocked_by_event, 1u);
}

TEST(FlowSessionKeys, UnknownReportKeyResolvesToItself) {
  SessionNet net;
  net.start(net.hosts[0], SessionNet::udp(net.hosts[0], net.hosts[1], 1000, kRedirectPort));
  const pkt::FlowKey stranger =
      pkt::FlowKey::from_packet(*SessionNet::udp(net.hosts[2], net.hosts[3], 5, 6));
  EXPECT_EQ(net.event_resolves_to(stranger), stranger);
  EXPECT_EQ(net.malicious_verdict_resolves_to(stranger), stranger);
  EXPECT_TRUE(net.controller.flow_blocked(stranger));
  // No session held it, so nothing was blocked at an ingress.
  EXPECT_EQ(net.controller.stats().flows_blocked_by_event, 0u);
}

TEST(FlowSessionKeys, BenignVerdictOnSteeredReverseKeyOffloadsTheSession) {
  SessionNet net;
  const pkt::FlowKey key =
      net.start(net.hosts[0], SessionNet::udp(net.hosts[0], net.hosts[1], 1000, kRedirectPort));
  svc::VerdictMessage verdict;
  verdict.verdict = svc::FlowVerdict::kBenign;
  verdict.flow = with_dl_dst(session_reverse(key), net.se.mac);
  verdict.inspected_bytes = 4096;
  verdict.byte_budget = 4096;
  net.daemon(verdict);
  EXPECT_TRUE(net.controller.flow_offloaded(key));
  EXPECT_TRUE(net.controller.flow_se_ids(key).empty());
  EXPECT_EQ(net.last_event_flow(mon::EventType::kFlowOffloaded), key);
  // The steered registration outlives the cut-through: a late alert from
  // packets still queued in the SE maps back to the flow and blocks it.
  EXPECT_EQ(net.malicious_verdict_resolves_to(with_dl_dst(key, net.se.mac)), key);
  EXPECT_TRUE(net.controller.flow_blocked(key));
  EXPECT_FALSE(net.controller.flow_offloaded(key));
}

TEST(FlowSessionKeys, IcmpEchoReverseReportResolvesToTheRequest) {
  SessionNet net;
  const pkt::FlowKey echo = net.start(net.hosts[0], SessionNet::icmp(net.hosts[0], net.hosts[1], 8));
  ASSERT_EQ(net.controller.active_flows(), 1u);
  // The reply direction carries type 0 in tp_src.
  const pkt::FlowKey reply = session_reverse(echo);
  ASSERT_EQ(reply.tp_src, 0);
  EXPECT_EQ(net.event_resolves_to(reply), echo);
  EXPECT_EQ(net.event_resolves_to(echo), echo);

  // A non-echo ICMP session's reverse is the echo-request key, which does
  // not reverse back to it: the report still finds the session.
  const pkt::FlowKey unreachable =
      net.start(net.hosts[2], SessionNet::icmp(net.hosts[2], net.hosts[3], 3));
  ASSERT_EQ(net.controller.active_flows(), 2u);
  const pkt::FlowKey unreachable_rev = session_reverse(unreachable);
  ASSERT_NE(session_reverse(unreachable_rev), unreachable);
  EXPECT_EQ(net.event_resolves_to(unreachable_rev), unreachable);
  EXPECT_EQ(net.malicious_verdict_resolves_to(unreachable_rev), unreachable);
  EXPECT_TRUE(net.controller.flow_blocked(unreachable));
}

TEST(FlowSessionKeys, KeyThatIsOneForwardAndAnothersReverseResolvesToTheReverseOwner) {
  SessionNet net;
  // Session A: host0 -> host1. Session B is A's mirror image, set up from
  // host1's side (e.g. after A's reply entries idled out): B's forward key
  // is A's reverse key and vice versa.
  const pkt::FlowKey a = net.start(net.hosts[0], SessionNet::udp(net.hosts[0], net.hosts[1], 1000, 53));
  const pkt::FlowKey b = net.start(net.hosts[1], SessionNet::udp(net.hosts[1], net.hosts[0], 53, 1000));
  ASSERT_EQ(b, session_reverse(a));
  ASSERT_EQ(net.controller.active_flows(), 2u);

  // A report folds onto the session whose *reverse* key it is.
  EXPECT_EQ(net.event_resolves_to(a), b);
  EXPECT_EQ(net.event_resolves_to(b), a);
  EXPECT_EQ(net.malicious_verdict_resolves_to(a), b);
  EXPECT_TRUE(net.controller.flow_blocked(b));
  EXPECT_FALSE(net.controller.flow_blocked(a));
}

// --- property test against a reference model ----------------------------------------

/// The reference model's view of one live session.
struct ModelFlow {
  bool via_se = false;
  RemovalId removal;
};

class FlowSessionModel {
 public:
  explicit FlowSessionModel(std::uint64_t seed) : rng_(seed) {}

  void run(int ops) {
    for (int op = 0; op < ops; ++op) {
      const std::uint32_t pick = draw(100);
      SCOPED_TRACE("op " + std::to_string(op) + " pick " + std::to_string(pick));
      if (pick < 45) {
        setup();
      } else if (pick < 65) {
        remove_live();
      } else if (pick < 73) {
        remove_stale();
      } else if (pick < 83) {
        remove_foreign();
      } else if (pick < 91) {
        roam();
      } else if (pick < 96) {
        migrate_se();
      } else {
        disconnect();
      }
      check();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  std::size_t peak_live() const { return peak_live_; }
  std::size_t removals_ignored() const { return ignored_; }
  std::size_t stale_on_reused_slot() const { return stale_on_reused_slot_; }

 private:
  std::uint32_t draw(std::uint32_t n) {
    return std::uniform_int_distribution<std::uint32_t>(0, n - 1)(rng_);
  }

  void setup() {
    const std::size_t s = draw(SessionNet::kHosts);
    std::size_t d = draw(SessionNet::kHosts - 1);
    if (d >= s) ++d;
    const Endpoint& src = net_.hosts[s];
    const Endpoint& dst = net_.hosts[d];
    pkt::PacketPtr packet;
    bool via_se = false;
    switch (draw(3)) {
      case 0:
        packet = SessionNet::udp(src, dst, static_cast<std::uint16_t>(1000 + draw(4)), kRedirectPort);
        via_se = true;
        break;
      case 1:
        packet = SessionNet::udp(src, dst, static_cast<std::uint16_t>(1000 + draw(4)), 53);
        break;
      default:
        packet = SessionNet::icmp(src, dst, draw(2) == 0 ? 8 : 0);
        break;
    }
    const auto marks = net_.mod_marks();
    const pkt::FlowKey key = net_.start(src, std::move(packet));
    const std::vector<RemovalId> adds = net_.notifying_adds_since(marks);
    if (live_.contains(key)) {
      EXPECT_TRUE(adds.empty()) << "duplicate packet-in re-installed " << key.to_string();
      return;
    }
    ASSERT_EQ(adds.size(), 1u) << key.to_string();
    ASSERT_TRUE(adds.front().match.is_exact());
    EXPECT_EQ(adds.front().match.flow_key(), key);
    EXPECT_NE(adds.front().cookie, 0u);
    live_[key] = ModelFlow{via_se, adds.front()};
    peak_live_ = std::max(peak_live_, live_.size());
  }

  /// Sends a FlowRemoved and checks that the controller either closed
  /// `expect_closed` (raising exactly its FlowEnd) or changed nothing.
  void send_removal(const RemovalId& id, const pkt::FlowKey* expect_closed) {
    const std::size_t events_before = net_.controller.events().counters().appended;
    const std::size_t mods_before = net_.mods_sent();
    net_.flow_removed(id);
    if (expect_closed == nullptr) {
      ++ignored_;
      EXPECT_EQ(net_.controller.events().counters().appended, events_before);
    } else {
      EXPECT_EQ(net_.controller.events().counters().appended, events_before + 1);
      EXPECT_EQ(net_.last_event_flow(mon::EventType::kFlowEnd), *expect_closed);
      dead_.push_back(live_.at(*expect_closed).removal);
      live_.erase(*expect_closed);
    }
    // A switch reports its own removal: nothing is sent back.
    EXPECT_EQ(net_.mods_sent(), mods_before);
  }

  void remove_live() {
    if (live_.empty()) return;
    auto it = std::next(live_.begin(), static_cast<std::ptrdiff_t>(draw(static_cast<std::uint32_t>(live_.size()))));
    const pkt::FlowKey key = it->first;
    send_removal(it->second.removal, &key);
  }

  /// A FlowRemoved for a session that is already closed: its slot may have
  /// been reused by a newer session since.
  void remove_stale() {
    if (dead_.empty()) return;
    const RemovalId& stale = dead_[draw(static_cast<std::uint32_t>(dead_.size()))];
    // The low 32 cookie bits are the slab slot.
    for (const auto& [key, flow] : live_) {
      if (static_cast<std::uint32_t>(flow.removal.cookie) == static_cast<std::uint32_t>(stale.cookie)) {
        ++stale_on_reused_slot_;
      }
    }
    send_removal(stale, nullptr);
  }

  /// A cookie this controller never issued for the match it comes with:
  /// a live cookie with another flow's match, a live match with another
  /// generation, or a previous active's cookie numbering.
  void remove_foreign() {
    if (live_.empty()) return;
    const RemovalId& victim =
        std::next(live_.begin(), static_cast<std::ptrdiff_t>(draw(static_cast<std::uint32_t>(live_.size()))))->second.removal;
    RemovalId forged = victim;
    switch (draw(3)) {
      case 0:
        forged.match = of::Match::exact(kUplink, pkt::FlowKey::from_packet(
                                                     *SessionNet::udp(net_.hosts[0], net_.hosts[1], 7, 7)));
        break;
      case 1:
        forged.cookie ^= std::uint64_t{1} << (32 + draw(8));
        break;
      default:
        forged.cookie = 1 + draw(64);
        forged.match = of::Match::exact(1, pkt::FlowKey::from_packet(
                                               *SessionNet::udp(net_.hosts[2], net_.hosts[4], 9, 9)));
        break;
    }
    send_removal(forged, nullptr);
  }

  void roam() {
    Endpoint& host = net_.hosts[draw(SessionNet::kHosts)];
    const auto dpid = static_cast<DatapathId>(1 + draw(SessionNet::kSwitches));
    const auto port = static_cast<PortId>(1 + draw(6));
    if (dpid == host.dpid && port == host.port) return;
    expect_teardown([&] {
      host.dpid = dpid;
      host.port = port;
      net_.announce(host);
    }, [&](const pkt::FlowKey& key, const ModelFlow&) {
      return key.dl_src == host.mac || key.dl_dst == host.mac;
    });
  }

  void migrate_se() {
    const auto dpid = static_cast<DatapathId>(1 + draw(SessionNet::kSwitches));
    const PortId port = draw(2) == 0 ? 8 : 7;
    if (dpid == net_.se.dpid && port == net_.se.port) return;
    expect_teardown([&] {
      net_.se.dpid = dpid;
      net_.se.port = port;
      net_.se_online();
    }, [](const pkt::FlowKey&, const ModelFlow& flow) { return flow.via_se; });
  }

  void disconnect() {
    const auto dpid = static_cast<DatapathId>(1 + draw(SessionNet::kSwitches));
    std::set<MacAddress> gone;
    for (const Endpoint& host : net_.hosts) {
      if (host.dpid == dpid) gone.insert(host.mac);
    }
    const bool se_gone = net_.se.dpid == dpid;
    expect_teardown([&] {
      net_.channel(dpid).disconnect();
      net_.settle();
    }, [&](const pkt::FlowKey& key, const ModelFlow& flow) {
      return gone.contains(key.dl_src) || gone.contains(key.dl_dst) || (se_gone && flow.via_se);
    });
    // The switch comes back and its hosts (and the SE) re-announce.
    net_.connect(dpid);
    for (const Endpoint& host : net_.hosts) {
      if (host.dpid == dpid) net_.announce(host);
    }
    if (se_gone) net_.se_online();
  }

  /// Runs `action` and checks that exactly the live flows `doomed` selects
  /// were torn down (each raising one "torn down" FlowEnd), in any order.
  template <typename Action, typename Doomed>
  void expect_teardown(Action&& action, Doomed&& doomed) {
    std::set<pkt::FlowKey> expected;
    for (const auto& [key, flow] : live_) {
      if (doomed(key, flow)) expected.insert(key);
    }
    const SimTime from = net_.sim.now() + 1;
    action();
    std::multiset<pkt::FlowKey> torn;
    for (const auto& event : net_.controller.events().query_type(mon::EventType::kFlowEnd, from, kForever)) {
      EXPECT_EQ(event.detail_string(), "torn down");
      torn.insert(event.flow);
    }
    EXPECT_EQ(torn, std::multiset<pkt::FlowKey>(expected.begin(), expected.end()));
    for (const pkt::FlowKey& key : expected) {
      dead_.push_back(live_.at(key).removal);
      live_.erase(key);
    }
  }

  void check() {
    ctrl::Controller& c = net_.controller;
    ASSERT_EQ(c.active_flows(), live_.size());
    std::set<MacAddress> endpoints;
    for (const auto& [key, flow] : live_) {
      endpoints.insert(key.dl_src);
      endpoints.insert(key.dl_dst);
      const auto entries = c.flow_entries(key);
      ASSERT_FALSE(entries.empty()) << key.to_string();
      // The cookie-carrying ingress entry is among the installed ones.
      EXPECT_NE(std::find(entries.begin(), entries.end(),
                          std::make_pair(flow.removal.dpid, flow.removal.match)),
                entries.end())
          << key.to_string();
      EXPECT_EQ(c.flow_se_ids(key),
                flow.via_se ? std::vector<std::uint64_t>{kSeId} : std::vector<std::uint64_t>{})
          << key.to_string();
    }
    EXPECT_EQ(c.host_flow_index_size(), endpoints.size());
    for (const RemovalId& id : dead_) {
      const pkt::FlowKey key = id.match.flow_key();
      if (!live_.contains(key)) {
        EXPECT_TRUE(c.flow_entries(key).empty()) << key.to_string();
        EXPECT_TRUE(c.flow_se_ids(key).empty()) << key.to_string();
      }
    }
  }

  std::mt19937_64 rng_;
  SessionNet net_;
  std::map<pkt::FlowKey, ModelFlow> live_;
  std::vector<RemovalId> dead_;
  std::size_t peak_live_ = 0;
  std::size_t ignored_ = 0;
  std::size_t stale_on_reused_slot_ = 0;
};

// A teardown's DeleteStrict makes the switch report the entry's removal
// later. If the flow is set up again meanwhile — in the slot the teardown
// freed, with the same ingress entry — that late report must not close the
// new session: the slot's generation, and so its cookie, moved on.
TEST(FlowSessionModel, LateRemovalAfterTeardownSparesTheReSetupFlow) {
  SessionNet net;
  const auto packet = [&] { return SessionNet::udp(net.hosts[0], net.hosts[1], 1000, kRedirectPort); };
  auto marks = net.mod_marks();
  const pkt::FlowKey key = net.start(net.hosts[0], packet());
  const std::vector<RemovalId> first = net.notifying_adds_since(marks);
  ASSERT_EQ(first.size(), 1u);

  // The SE moves to another port: the steered flow is torn down, and its
  // next packet sets it up again through the new port.
  net.se.port = 7;
  net.se_online();
  ASSERT_EQ(net.controller.active_flows(), 0u);
  marks = net.mod_marks();
  net.start(net.hosts[0], packet());
  const std::vector<RemovalId> second = net.notifying_adds_since(marks);
  ASSERT_EQ(second.size(), 1u);
  ASSERT_EQ(second.front().dpid, first.front().dpid);
  ASSERT_EQ(second.front().match, first.front().match);
  // Same slot (the low 32 cookie bits), new generation.
  EXPECT_EQ(static_cast<std::uint32_t>(second.front().cookie),
            static_cast<std::uint32_t>(first.front().cookie));
  EXPECT_NE(second.front().cookie, first.front().cookie);

  const std::uint64_t events_before = net.controller.events().counters().appended;
  net.flow_removed(first.front());
  EXPECT_EQ(net.controller.active_flows(), 1u);
  EXPECT_FALSE(net.controller.flow_entries(key).empty());
  EXPECT_EQ(net.controller.events().counters().appended, events_before);

  net.flow_removed(second.front());
  EXPECT_EQ(net.controller.active_flows(), 0u);
}

TEST(FlowSessionModel, RandomChurnMatchesReferenceModel) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FlowSessionModel model(seed);
    model.run(400);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    // The run exercised slot reuse and ignored removals, not just setups.
    EXPECT_GT(model.peak_live(), 8u);
    EXPECT_GT(model.removals_ignored(), 20u);
    EXPECT_GT(model.stale_on_reused_slot(), 0u);
  }
}

// --- path steps rebuild the installed matches ----------------------------------------
//
// A session remembers each installed entry as a path step and rebuilds its
// match on demand. For each path shape the rebuilt matches — flow_entries()
// and the DeleteStricts of a teardown — must be the sent ones, entry for
// entry, in the order they were sent.

using Entries = std::vector<std::pair<DatapathId, of::Match>>;

/// (dpid, match) of the FlowMods in `log` from `from` on whose command is
/// one of `commands`.
Entries sent_matches(const SentLog& log, std::size_t from,
                     std::initializer_list<of::FlowModCommand> commands) {
  Entries out;
  for (std::size_t i = from; i < log.size(); ++i) {
    const auto& [dpid, mod] = log[i];
    if (std::find(commands.begin(), commands.end(), mod.command) != commands.end()) {
      out.emplace_back(dpid, mod.entry.match);
    }
  }
  return out;
}

constexpr std::uint64_t kFirewallId = 8;
constexpr std::uint16_t kChainPort = 443;

/// SessionNet plus a firewall SE on switch 2 and a UDP/443 policy steering
/// through the IDS (switch 3) and then the firewall.
struct ChainNet : SessionNet {
  Endpoint firewall{MacAddress::from_uint64(0x5E0008), Ipv4Address(10, 0, 9, 8), 2, 8};

  ChainNet() {
    svc::OnlineMessage online;
    online.service = svc::ServiceType::kFirewall;
    online.capacity_bps = 1'000'000'000;
    daemon_from(kFirewallId, firewall, online);
    ctrl::Policy chain;
    chain.name = "udp443-via-ids-and-firewall";
    chain.nw_proto = static_cast<std::uint8_t>(pkt::IpProto::kUdp);
    chain.tp_dst = kChainPort;
    chain.action = ctrl::PolicyAction::kRedirect;
    chain.service_chain = {svc::ServiceType::kIntrusionDetection, svc::ServiceType::kFirewall};
    controller.policies().add(chain);
  }
};

/// Moves `host` to a spare port, which tears down every session it is an
/// endpoint of, and returns the DeleteStrict matches that teardown sent.
Entries roam_and_collect_deletes(SessionNet& net, Endpoint& host) {
  const std::size_t mark = net.sent.size();
  host.port += 5;
  net.announce(host);
  EXPECT_EQ(net.controller.active_flows(), 0u);
  return sent_matches(net.sent, mark, {of::FlowModCommand::kDeleteStrict});
}

/// Sets up one flow from `src`, checks its remembered entries against the
/// sent Adds (`entries` of them), then tears it down and checks the deletes.
void expect_steps_rebuild_sent(SessionNet& net, Endpoint& src, pkt::PacketPtr packet,
                               std::size_t entries, std::size_t chain) {
  const std::size_t mark = net.sent.size();
  const pkt::FlowKey key = net.start(src, std::move(packet));
  ASSERT_EQ(net.controller.active_flows(), 1u);
  ASSERT_EQ(net.controller.flow_se_ids(key).size(), chain);
  const Entries added = sent_matches(net.sent, mark, {of::FlowModCommand::kAdd});
  ASSERT_EQ(added.size(), entries);
  EXPECT_EQ(net.controller.flow_entries(key), added);
  EXPECT_EQ(roam_and_collect_deletes(net, src), added);
}

TEST(FlowSessionSteps, DirectOnOneSwitch) {
  SessionNet net;
  expect_steps_rebuild_sent(net, net.hosts[0],
                            SessionNet::udp(net.hosts[0], net.hosts[3], 1000, 53), 2, 0);
}

TEST(FlowSessionSteps, DirectAcrossSwitches) {
  SessionNet net;
  expect_steps_rebuild_sent(net, net.hosts[0],
                            SessionNet::udp(net.hosts[0], net.hosts[1], 1000, 53), 4, 0);
}

TEST(FlowSessionSteps, OneSeOnTheIngressSwitch) {
  SessionNet net;
  // hosts[2] shares switch 3 with the SE; the destination is on switch 1.
  expect_steps_rebuild_sent(net, net.hosts[2],
                            SessionNet::udp(net.hosts[2], net.hosts[0], 1000, kRedirectPort), 6, 1);
}

TEST(FlowSessionSteps, OneSeOnTheFarSwitch) {
  SessionNet net;
  expect_steps_rebuild_sent(net, net.hosts[0],
                            SessionNet::udp(net.hosts[0], net.hosts[1], 1000, kRedirectPort), 8, 1);
}

TEST(FlowSessionSteps, TwoSeChainAcrossSwitches) {
  // Leaving the IDS's switch toward the firewall's, frames carry the IDS's
  // MAC as dl_src, so the firewall switch's arrival entry matches on it.
  ChainNet net;
  expect_steps_rebuild_sent(net, net.hosts[0],
                            SessionNet::udp(net.hosts[0], net.hosts[3], 1000, kChainPort), 12, 2);
}

TEST(FlowSessionSteps, IcmpEcho) {
  SessionNet net;
  expect_steps_rebuild_sent(net, net.hosts[0], SessionNet::icmp(net.hosts[0], net.hosts[1], 8), 4,
                            0);
}

TEST(FlowSessionSteps, CachedDecisionReplay) {
  // The second flow of a class replays the first one's templates with its
  // own source port patched in. Per-user balancing makes the redirect
  // decision cacheable.
  constexpr std::uint16_t kPerUserPort = 8080;
  SessionNet net;
  ctrl::Policy per_user;
  per_user.name = "udp8080-via-ids-per-user";
  per_user.nw_proto = static_cast<std::uint8_t>(pkt::IpProto::kUdp);
  per_user.tp_dst = kPerUserPort;
  per_user.action = ctrl::PolicyAction::kRedirect;
  per_user.service_chain = {svc::ServiceType::kIntrusionDetection};
  per_user.granularity = ctrl::LbGranularity::kPerUser;
  net.controller.policies().add(per_user);
  Endpoint& src = net.hosts[0];
  Entries added;
  std::vector<pkt::FlowKey> keys;
  for (std::uint16_t tp_src : {1000, 1001}) {
    const std::size_t mark = net.sent.size();
    keys.push_back(net.start(src, SessionNet::udp(src, net.hosts[1], tp_src, kPerUserPort)));
    const Entries flow = sent_matches(net.sent, mark, {of::FlowModCommand::kAdd});
    ASSERT_EQ(flow.size(), 8u);
    EXPECT_EQ(net.controller.flow_entries(keys.back()), flow);
    added.insert(added.end(), flow.begin(), flow.end());
  }
  EXPECT_EQ(net.controller.stats().fastpath.decision_cache_hits, 1u);
  // The two sessions are torn down in host-index order.
  const Entries deleted = roam_and_collect_deletes(net, src);
  EXPECT_TRUE(std::is_permutation(deleted.begin(), deleted.end(), added.begin(), added.end()));
}

TEST(FlowSessionSteps, AfterOffload) {
  SessionNet net;
  Endpoint& src = net.hosts[0];
  const pkt::FlowKey key = net.start(src, SessionNet::udp(src, net.hosts[1], 1000, kRedirectPort));
  const Entries steered = net.controller.flow_entries(key);
  ASSERT_EQ(steered.size(), 8u);

  const std::size_t mark = net.sent.size();
  svc::VerdictMessage verdict;
  verdict.verdict = svc::FlowVerdict::kBenign;
  verdict.flow = with_dl_dst(key, net.se.mac);
  verdict.inspected_bytes = 4096;
  verdict.byte_budget = 4096;
  net.daemon(verdict);
  ASSERT_TRUE(net.controller.flow_offloaded(key));
  // The rewrite modifies the entries the direct path keeps, adds the new
  // ones and deletes the rest: every steered entry is modified or deleted.
  const Entries kept = sent_matches(
      net.sent, mark, {of::FlowModCommand::kAdd, of::FlowModCommand::kModifyStrict});
  ASSERT_EQ(kept.size(), 4u);
  const Entries replaced = sent_matches(
      net.sent, mark, {of::FlowModCommand::kModifyStrict, of::FlowModCommand::kDeleteStrict});
  EXPECT_TRUE(
      std::is_permutation(replaced.begin(), replaced.end(), steered.begin(), steered.end()));
  EXPECT_EQ(net.controller.flow_entries(key), kept);
  EXPECT_EQ(roam_and_collect_deletes(net, src), kept);
}

}  // namespace
}  // namespace livesec
