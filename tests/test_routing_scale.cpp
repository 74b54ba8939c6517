// Campus-at-scale routing table: regression tests for the two staleness
// bugs (stale IP index on DHCP reassignment; missing version bump on an
// IP-only change), the batched-expiry caller audit, and a property test
// driving random churn against a reference map model.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "controller/controller.h"
#include "controller/routing_table.h"
#include "openflow/channel.h"
#include "packet/packet.h"
#include "scenario/campus.h"
#include "sim/simulator.h"
#include "topology/lldp.h"

namespace livesec {
namespace {

MacAddress mac(std::uint64_t v) { return MacAddress::from_uint64(v); }
Ipv4Address ip(std::uint32_t v) { return Ipv4Address(v); }

// --- staleness bug 1: IP reassignment left the loser's record holding the
// address, so removing the loser erased the new owner's index entry --------

TEST(RoutingTableStaleness, IpReassignmentSurvivesLoserRemoval) {
  ctrl::RoutingTable table;
  const Ipv4Address addr = ip(0x0A000001);
  table.learn(mac(0xA), addr, 1, 1, 0);
  // DHCP re-lease: the same address now belongs to B.
  table.learn(mac(0xB), addr, 2, 1, kSecond);
  ASSERT_NE(table.find_by_ip(addr), nullptr);
  EXPECT_EQ(table.find_by_ip(addr)->mac, mac(0xB));

  // Removing the previous holder must not take the address down with it.
  table.remove(mac(0xA));
  const ctrl::HostLocation* owner = table.find_by_ip(addr);
  ASSERT_NE(owner, nullptr) << "loser removal erased the winner's IP entry";
  EXPECT_EQ(owner->mac, mac(0xB));
}

TEST(RoutingTableStaleness, IpReassignmentSurvivesLoserExpiry) {
  ctrl::RoutingTable table(10 * kSecond);
  const Ipv4Address addr = ip(0x0A000002);
  table.learn(mac(0xA), addr, 1, 1, 0);
  table.learn(mac(0xB), addr, 2, 1, 9 * kSecond);

  const auto removed = table.expire(11 * kSecond);  // only A is idle past 10s
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].mac, mac(0xA));
  const ctrl::HostLocation* owner = table.find_by_ip(addr);
  ASSERT_NE(owner, nullptr) << "loser expiry erased the winner's IP entry";
  EXPECT_EQ(owner->mac, mac(0xB));
}

TEST(RoutingTableStaleness, IpReassignmentSurvivesLoserSwitchRemoval) {
  ctrl::RoutingTable table;
  const Ipv4Address addr = ip(0x0A000003);
  table.learn(mac(0xA), addr, 1, 1, 0);
  table.learn(mac(0xB), addr, 2, 1, kSecond);
  table.remove_switch(1);  // takes A down
  const ctrl::HostLocation* owner = table.find_by_ip(addr);
  ASSERT_NE(owner, nullptr);
  EXPECT_EQ(owner->mac, mac(0xB));
}

// --- staleness bug 2: learn() returned false and left version_ unchanged
// when only the IP changed, so IP-keyed consumers kept stale decisions ------

TEST(RoutingTableStaleness, VersionMovesOnIpOnlyChange) {
  ctrl::RoutingTable table;
  table.learn(mac(0xA), ip(1), 1, 1, 0);
  const std::uint64_t before = table.version();

  // Same attachment point, new address: not a move, but a mapping change.
  const bool moved = table.learn(mac(0xA), ip(2), 1, 1, kSecond);
  EXPECT_FALSE(moved);
  EXPECT_GT(table.version(), before) << "IP re-lease must invalidate IP-keyed consumers";

  // A no-op refresh (same everything) must NOT burn a version.
  const std::uint64_t after = table.version();
  EXPECT_FALSE(table.learn(mac(0xA), ip(2), 1, 1, 2 * kSecond));
  EXPECT_EQ(table.version(), after);
  table.touch(mac(0xA), 3 * kSecond);
  EXPECT_EQ(table.version(), after);
}

// --- controller level: a memoized flow decision must not be replayed across
// a DHCP re-lease (the stamp includes the routing version) ------------------

pkt::PacketPtr gratuitous_arp(MacAddress sender, Ipv4Address sender_ip) {
  return pkt::PacketBuilder()
      .eth(sender, MacAddress::broadcast())
      .arp(pkt::ArpOp::kRequest, sender, sender_ip, MacAddress{}, sender_ip)
      .finalize();
}

class SilentSwitch : public of::SwitchEndpoint {
 public:
  explicit SilentSwitch(DatapathId dpid) : dpid_(dpid) {}
  DatapathId datapath_id() const override { return dpid_; }
  void handle_controller_message(const of::Message&) override {}

 private:
  DatapathId dpid_;
};

struct CacheHarness {
  sim::Simulator sim;
  ctrl::Controller controller{sim};
  SilentSwitch sw1{1};
  SilentSwitch sw2{2};
  of::SecureChannel ch1{sim, sw1, controller, 0};
  of::SecureChannel ch2{sim, sw2, controller, 0};

  MacAddress alice = mac(0xA11CE);
  MacAddress bob = mac(0xB0B);
  MacAddress carol = mac(0xCA401);
  Ipv4Address alice_ip{10, 0, 0, 1};
  Ipv4Address bob_ip{10, 0, 0, 2};
  Ipv4Address carol_ip{10, 0, 0, 3};

  CacheHarness() {
    controller.attach_channel(1, ch1);
    controller.attach_channel(2, ch2);
    ch1.connect(of::FeaturesReply{1, 8, "sw1"});
    ch2.connect(of::FeaturesReply{2, 8, "sw2"});
    sim.run();
    topo::LldpInfo info;
    info.chassis_id = 2;
    info.port_id = 4;
    packet_in(1, 3, pkt::finalize(info.to_packet()));
    packet_in(1, 0, gratuitous_arp(alice, alice_ip));
    packet_in(2, 0, gratuitous_arp(bob, bob_ip));
    packet_in(2, 1, gratuitous_arp(carol, carol_ip));
  }

  void packet_in(DatapathId dpid, PortId in_port, pkt::PacketPtr packet) {
    of::PacketIn pin;
    pin.in_port = in_port;
    pin.buffer_id = of::PacketOut::kNoBuffer;
    pin.packet = std::move(packet);
    controller.handle_switch_message(dpid, of::Message{std::move(pin)});
    sim.run();
  }

  void start_flow(std::uint16_t tp_src) {
    packet_in(1, 0,
              pkt::PacketBuilder()
                  .eth(alice, bob)
                  .ipv4(alice_ip, bob_ip, pkt::IpProto::kUdp)
                  .udp(tp_src, 80)
                  .finalize());
  }
};

TEST(ControllerStaleness, DhcpReLeaseFlushesMemoizedDecisions) {
  CacheHarness net;
  net.start_flow(1000);  // cold: decision computed and cached
  const auto& fp = net.controller.stats().fastpath;
  ASSERT_EQ(fp.decision_cache_misses, 1u);
  net.start_flow(1001);  // warm: same class, served from the cache
  ASSERT_EQ(fp.decision_cache_hits, 1u);

  // Bob's address is re-leased to carol — an already-known host at an
  // unchanged attachment point, so nothing but the ip->mac binding moves.
  // The routing version must still advance and flush the decision cache
  // (bug: an IP-only change left version_ alone and the memo replayed).
  net.packet_in(2, 1, gratuitous_arp(net.carol, net.bob_ip));

  net.start_flow(1002);
  EXPECT_EQ(fp.decision_cache_hits, 1u) << "stale decision replayed across a re-lease";
  EXPECT_EQ(fp.decision_cache_misses, 2u);
  EXPECT_GE(fp.decision_cache_invalidations, 1u);
}

// --- satellite audit: one batched expire() sweep at scale must raise the
// leave event and tear down the flow state of every removed host, once -----

TEST(RoutingScaleChurn, BatchedExpirySweepsTenThousandIdleHosts) {
  scenario::CampusConfig campus_config;
  campus_config.hosts = 10'000;
  campus_config.hosts_per_switch = 2'500;
  scenario::CampusGenerator campus(campus_config);

  sim::Simulator sim;
  ctrl::Controller::Config config;
  config.host_timeout = 10 * kSecond;
  ctrl::Controller controller(sim, config);

  std::vector<std::unique_ptr<SilentSwitch>> switches;
  std::vector<std::unique_ptr<of::SecureChannel>> channels;
  for (std::uint32_t s = 0; s < campus.switch_count(); ++s) {
    const DatapathId dpid = 1 + s;
    switches.push_back(std::make_unique<SilentSwitch>(dpid));
    channels.push_back(std::make_unique<of::SecureChannel>(sim, *switches.back(), controller, 0));
    controller.attach_channel(dpid, *channels.back());
    channels.back()->connect(of::FeaturesReply{dpid, 4, "as" + std::to_string(dpid)});
    controller.register_ls_port(dpid, campus.ls_uplink_port());
  }
  sim.run();

  const auto inject = [&](DatapathId dpid, PortId in_port, pkt::PacketPtr packet) {
    of::PacketIn pin;
    pin.in_port = in_port;
    pin.buffer_id = of::PacketOut::kNoBuffer;
    pin.packet = std::move(packet);
    controller.handle_switch_message(dpid, of::Message{std::move(pin)});
  };

  for (std::uint32_t i = 0; i < campus_config.hosts; ++i) {
    const scenario::CampusHost h = campus.host(i);
    inject(h.dpid, h.port, gratuitous_arp(h.mac, h.ip));
    if ((i & 511) == 511) sim.run();
  }
  sim.run();
  ASSERT_EQ(controller.routing().size(), campus_config.hosts);

  // Open flows between cross-switch pairs so expiry has state to tear down.
  constexpr std::uint32_t kFlows = 200;
  for (std::uint32_t f = 0; f < kFlows; ++f) {
    const scenario::CampusHost src = campus.host(f);
    const scenario::CampusHost dst = campus.host(f + 5'000);
    inject(src.dpid, src.port,
           pkt::PacketBuilder()
               .eth(src.mac, dst.mac)
               .ipv4(src.ip, dst.ip, pkt::IpProto::kUdp)
               .udp(static_cast<std::uint16_t>(2000 + f), 443)
               .finalize());
  }
  sim.run();
  ASSERT_EQ(controller.active_flows(), kFlows);
  ASSERT_EQ(controller.host_flow_index_size(), 2 * kFlows);

  // Every host is idle; one housekeeping expire() past the timeout removes
  // the whole campus in a single batched sweep.
  controller.start_housekeeping();
  sim.run_until(15 * kSecond);

  EXPECT_EQ(controller.routing().size(), 0u);
  EXPECT_EQ(controller.active_flows(), 0u) << "expired hosts left flow records behind";
  EXPECT_EQ(controller.host_flow_index_size(), 0u);

  // Exactly one leave event per host — no host skipped, none doubled.
  const auto leaves =
      controller.events().query_type(mon::EventType::kHostLeave, 0, 1'000 * kSecond);
  EXPECT_EQ(leaves.size(), campus_config.hosts);
  std::set<std::string> subjects;
  for (const auto& event : leaves) subjects.insert(event.subject_string());
  EXPECT_EQ(subjects.size(), campus_config.hosts);
}

// --- mechanics of the arena, chains and wheel -------------------------------

TEST(RoutingTableWheel, TouchedHostsSurviveTheSweepUntilIdle) {
  ctrl::RoutingTable table(10 * kSecond);
  table.learn(mac(0xA), ip(1), 1, 1, 0);
  table.learn(mac(0xB), ip(2), 1, 2, 0);
  table.touch(mac(0xA), 5 * kSecond);  // refreshed lazily, no re-file

  auto removed = table.expire(10 * kSecond);  // B hits exactly the timeout
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].mac, mac(0xB));
  EXPECT_NE(table.find(mac(0xA)), nullptr);

  removed = table.expire(15 * kSecond);  // now A is idle 10s too
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].mac, mac(0xA));
  EXPECT_EQ(table.size(), 0u);
}

TEST(RoutingTableWheel, ExpireReturnsHostsInDeadlineOrder) {
  ctrl::RoutingTable table(10 * kSecond);
  for (std::uint32_t i = 0; i < 64; ++i) {
    table.learn(mac(0x100 + i), ip(0x100 + i), 1 + i % 4, 1 + i, i * (kSecond / 2));
  }

  const auto removed = table.expire(100 * kSecond);
  ASSERT_EQ(removed.size(), 64u);
  for (std::size_t i = 1; i < removed.size(); ++i) {
    EXPECT_LE(removed[i - 1].last_seen, removed[i].last_seen) << "at " << i;
  }
}

TEST(RoutingTableShards, RemoveSwitchDrainsExactlyThatSwitch) {
  ctrl::RoutingTable table(120 * kSecond);
  for (std::uint32_t i = 0; i < 100; ++i) {
    table.learn(mac(100 + i), ip(100 + i), 1 + i % 4, 1 + i, 0);
  }
  EXPECT_EQ(table.size_on_switch(2), 25u);

  const auto removed = table.remove_switch(2);
  EXPECT_EQ(removed.size(), 25u);
  for (const auto& loc : removed) EXPECT_EQ(loc.dpid, 2u);
  EXPECT_EQ(table.size(), 75u);
  EXPECT_EQ(table.size_on_switch(2), 0u);
  for (const auto& loc : removed) {
    EXPECT_EQ(table.find(loc.mac), nullptr);
    EXPECT_EQ(table.find_by_ip(loc.ip), nullptr);
  }
}

TEST(RoutingTableShards, StatsAccountForEveryHostAndPointersStayStable) {
  ctrl::RoutingTable table(120 * kSecond);
  table.learn(mac(0x5AB1E), ip(0x7F00007F), 3, 9, kSecond);
  const ctrl::HostLocation* pinned = table.find(mac(0x5AB1E));
  ASSERT_NE(pinned, nullptr);

  for (std::uint32_t i = 0; i < 5'000; ++i) table.learn(mac(i), ip(i + 1), 1 + i % 7, 1, 0);

  // Arena chunks never move: the record pointer survives table growth.
  EXPECT_EQ(pinned->mac, mac(0x5AB1E));
  EXPECT_EQ(pinned->ip, ip(0x7F00007F));
  EXPECT_EQ(pinned->dpid, 3u);

  std::size_t hosts = 0;
  table.for_each([&hosts](const ctrl::HostLocation&) { ++hosts; });
  EXPECT_EQ(hosts, 5'001u);
  EXPECT_EQ(hosts, table.size());
  EXPECT_GT(table.memory_bytes(), table.size() * sizeof(ctrl::HostLocation));
}

// --- property test: random churn against a reference map model -------------
//
// The model is a plain pair of maps with the *intended* semantics written
// out longhand; the table must agree with it after any sequence of learn /
// touch / move / re-lease / remove / expire / remove_switch. Runs under the
// ASan/UBSan CI job, where a stale slot or index would light up.

struct ReferenceModel {
  struct Entry {
    Ipv4Address ip;
    DatapathId dpid = 0;
    PortId port = kInvalidPort;
    SimTime last_seen = 0;
  };
  std::unordered_map<std::uint64_t, Entry> by_mac;
  std::unordered_map<std::uint32_t, std::uint64_t> by_ip;

  void assign_ip(Ipv4Address addr, std::uint64_t mac48) {
    if (addr.is_zero()) return;
    auto it = by_ip.find(addr.value());
    if (it != by_ip.end() && it->second != mac48) {
      auto loser = by_mac.find(it->second);
      if (loser != by_mac.end()) loser->second.ip = Ipv4Address();
    }
    by_ip[addr.value()] = mac48;
  }

  void learn(std::uint64_t mac48, Ipv4Address addr, DatapathId dpid, PortId port, SimTime now) {
    auto it = by_mac.find(mac48);
    if (it != by_mac.end()) {
      if (!addr.is_zero() && it->second.ip != addr) {
        if (auto owned = by_ip.find(it->second.ip.value());
            owned != by_ip.end() && owned->second == mac48) {
          by_ip.erase(owned);
        }
        it->second.ip = addr;
        assign_ip(addr, mac48);
      }
      it->second.dpid = dpid;
      it->second.port = port;
      it->second.last_seen = now;
      return;
    }
    by_mac[mac48] = Entry{addr, dpid, port, now};
    assign_ip(addr, mac48);
  }

  void remove(std::uint64_t mac48) {
    auto it = by_mac.find(mac48);
    if (it == by_mac.end()) return;
    if (auto owned = by_ip.find(it->second.ip.value());
        owned != by_ip.end() && owned->second == mac48) {
      by_ip.erase(owned);
    }
    by_mac.erase(it);
  }

  std::vector<std::uint64_t> expire(SimTime now, SimTime timeout) {
    std::vector<std::uint64_t> gone;
    for (const auto& [mac48, entry] : by_mac) {
      if (now - entry.last_seen >= timeout) gone.push_back(mac48);
    }
    for (std::uint64_t mac48 : gone) remove(mac48);
    return gone;
  }

  std::vector<std::uint64_t> remove_switch(DatapathId dpid) {
    std::vector<std::uint64_t> gone;
    for (const auto& [mac48, entry] : by_mac) {
      if (entry.dpid == dpid) gone.push_back(mac48);
    }
    for (std::uint64_t mac48 : gone) remove(mac48);
    return gone;
  }
};

void expect_agreement(const ctrl::RoutingTable& table, const ReferenceModel& model) {
  ASSERT_EQ(table.size(), model.by_mac.size());
  for (const auto& [mac48, entry] : model.by_mac) {
    const ctrl::HostLocation* loc = table.find(mac(mac48));
    ASSERT_NE(loc, nullptr) << "host " << mac48 << " missing from table";
    EXPECT_EQ(loc->ip, entry.ip);
    EXPECT_EQ(loc->dpid, entry.dpid);
    EXPECT_EQ(loc->port, entry.port);
    EXPECT_EQ(loc->last_seen, entry.last_seen);
  }
  for (const auto& [addr, mac48] : model.by_ip) {
    const ctrl::HostLocation* loc = table.find_by_ip(ip(addr));
    ASSERT_NE(loc, nullptr) << "ip " << addr << " missing from index";
    EXPECT_EQ(loc->mac.to_uint64(), mac48);
  }
  // And nothing extra: an IP the model doesn't know must miss.
  for (std::uint32_t probe = 1; probe < 8; ++probe) {
    const std::uint32_t addr = 0x0B000000u + probe * 37;
    if (!model.by_ip.contains(addr)) {
      EXPECT_EQ(table.find_by_ip(ip(addr)), nullptr);
    }
  }
}

TEST(RoutingTableProperty, RandomChurnAgreesWithReferenceModel) {
  constexpr SimTime kTimeout = 60 * kSecond;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ctrl::RoutingTable table(kTimeout);
    ReferenceModel model;
    std::uint64_t counter = 0;
    const auto rnd = [&]() { return splitmix64(seed * 0x9E3779B97F4A7C15ull + ++counter); };
    SimTime now = 0;
    std::uint64_t last_version = table.version();

    for (int op = 0; op < 4'000; ++op) {
      now += static_cast<SimTime>(rnd() % (8 * kSecond));
      const std::uint64_t mac48 = 1 + rnd() % 160;  // small pools force reuse
      const std::uint32_t addr = static_cast<std::uint32_t>(1 + rnd() % 96);
      const DatapathId dpid = 1 + rnd() % 6;
      const PortId port = static_cast<PortId>(1 + rnd() % 12);

      switch (rnd() % 10) {
        case 0:
        case 1:
        case 2:
        case 3:  // learn (fresh, move or re-lease, depending on the draws)
          table.learn(mac(mac48), ip(addr), dpid, port, now);
          model.learn(mac48, ip(addr), dpid, port, now);
          break;
        case 4:  // learn with no address (pre-DHCP announcement)
          table.learn(mac(mac48), Ipv4Address(), dpid, port, now);
          model.learn(mac48, Ipv4Address(), dpid, port, now);
          break;
        case 5:  // liveness refresh
          table.touch(mac(mac48), now);
          if (auto it = model.by_mac.find(mac48); it != model.by_mac.end()) {
            it->second.last_seen = now;
          }
          break;
        case 6:  // explicit leave
          table.remove(mac(mac48));
          model.remove(mac48);
          break;
        case 7: {  // batched idle expiry
          auto removed = table.expire(now);
          auto expected = model.expire(now, kTimeout);
          std::vector<std::uint64_t> got;
          for (const auto& loc : removed) got.push_back(loc.mac.to_uint64());
          std::sort(got.begin(), got.end());
          std::sort(expected.begin(), expected.end());
          EXPECT_EQ(got, expected) << "expiry diverged at op " << op << " seed " << seed;
          break;
        }
        case 8: {  // switch failure
          auto removed = table.remove_switch(dpid);
          auto expected = model.remove_switch(dpid);
          EXPECT_EQ(removed.size(), expected.size());
          break;
        }
        case 9:  // re-lease pressure: a specific contested address
          table.learn(mac(mac48), ip(7), dpid, port, now);
          model.learn(mac48, ip(7), dpid, port, now);
          break;
      }

      EXPECT_GE(table.version(), last_version);
      last_version = table.version();
      if ((op & 63) == 63) {
        expect_agreement(table, model);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    expect_agreement(table, model);
  }
}

}  // namespace
}  // namespace livesec
