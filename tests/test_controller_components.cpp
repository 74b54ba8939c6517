// The controller's state components on their own: the session table's
// host and SE queries against a brute-force scan under seeded open/close
// churn, and its FlowRemoved ownership test across slot reuse; the decision
// cache's stamp-driven flushes, its capacity flush and its offload memo; and
// LLDP discovery's uplink bookkeeping and probe parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <vector>

#include "controller/controller.h"
#include "controller/decision_cache.h"
#include "controller/discovery.h"
#include "controller/session_table.h"
#include "sim/simulator.h"
#include "topology/lldp.h"

namespace livesec {
namespace {

using ctrl::CachedDecision;
using ctrl::DecisionCache;
using ctrl::DecisionKey;
using ctrl::DecisionStamp;
using ctrl::Discovery;
using ctrl::FlowRecord;
using ctrl::OffloadEntry;
using ctrl::PathStep;
using ctrl::SessionTable;

pkt::FlowKey udp_key(std::uint64_t src, std::uint64_t dst, std::uint16_t tp_src) {
  pkt::FlowKey key;
  key.dl_src = MacAddress::from_uint64(src);
  key.dl_dst = MacAddress::from_uint64(dst);
  key.dl_type = 0x0800;
  key.nw_src = Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(src));
  key.nw_dst = Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(dst));
  key.nw_proto = static_cast<std::uint8_t>(pkt::IpProto::kUdp);
  key.tp_src = tp_src;
  key.tp_dst = 80;
  return key;
}

// --- SessionTable ------------------------------------------------------------------

TEST(SessionTable, SeededChurnQueriesMatchABruteForceScan) {
  constexpr std::uint64_t kHosts = 12;
  constexpr std::uint64_t kSes = 4;
  SessionTable table;
  // Reference: live slot -> (key, chain).
  struct Live {
    pkt::FlowKey key;
    std::vector<std::uint64_t> se_ids;
  };
  std::map<std::uint32_t, Live> model;
  std::mt19937_64 rng(1001);
  std::uint16_t next_port = 1;

  const auto check = [&]() {
    ASSERT_EQ(table.size(), model.size());
    for (std::uint64_t h = 1; h <= kHosts; ++h) {
      const MacAddress mac = MacAddress::from_uint64(h);
      std::vector<std::uint32_t> expected;
      for (const auto& [slot, live] : model) {
        if (live.key.dl_src == mac || live.key.dl_dst == mac) expected.push_back(slot);
      }
      std::vector<std::uint32_t> got = table.slots_of_host(mac);
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, expected) << "host " << h;
    }
    for (std::uint64_t se = 1; se <= kSes; ++se) {
      std::vector<std::uint32_t> expected;
      for (const auto& [slot, live] : model) {
        if (std::find(live.se_ids.begin(), live.se_ids.end(), se) != live.se_ids.end()) {
          expected.push_back(slot);
        }
      }
      ASSERT_EQ(table.slots_through_se(se), expected) << "se " << se;
    }
  };

  constexpr int kOps = 12000;
  for (int op = 0; op < kOps; ++op) {
    if (model.empty() || rng() % 5 < 3) {  // the table grows: hot hosts spill
      const std::uint64_t src = 1 + rng() % kHosts;
      const std::uint64_t dst = 1 + rng() % kHosts;  // may equal src
      const pkt::FlowKey key = udp_key(src, dst, next_port++);
      // Steered through up to three SEs (repeats allowed).
      std::vector<std::uint64_t> chain(rng() % 4);
      std::vector<MacAddress> macs;
      for (std::uint64_t& se : chain) {
        se = 1 + rng() % kSes;
        macs.push_back(MacAddress::from_uint64(0x5E00 + se));
      }
      const std::uint32_t slot = table.open(key, macs);
      for (std::uint64_t se : chain) table.at(slot).se_ids.push_back(se);
      ASSERT_FALSE(model.contains(slot));
      model[slot] = Live{key, chain};
    } else {
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng() % model.size()));
      table.close(it->first);
      model.erase(it);
    }
    if (op % 97 == 0) check();
  }
  check();
  // Steered reports, forward and reverse, still resolve after the churn.
  for (const auto& [slot, live] : model) {
    if (live.se_ids.empty()) continue;
    pkt::FlowKey steered = live.key;
    steered.dl_dst = MacAddress::from_uint64(0x5E00 + live.se_ids.front());
    ASSERT_EQ(table.resolve_reported(steered), &table.at(slot));
    EXPECT_EQ(steered, live.key);
    pkt::FlowKey steered_reverse = SessionTable::session_reverse(live.key);
    steered_reverse.dl_dst = MacAddress::from_uint64(0x5E00 + live.se_ids.back());
    ASSERT_EQ(table.resolve_reported(steered_reverse), &table.at(slot));
    EXPECT_EQ(steered_reverse, live.key);
  }
}

TEST(SessionTable, ReusedSlotRejectsTheOldCookie) {
  SessionTable table;
  const auto install_ingress = [&table](std::uint32_t slot, DatapathId dpid, PortId in_port) {
    FlowRecord& record = table.at(slot);
    record.installed.push_back(PathStep{dpid, in_port});
    return SessionTable::entry_match(record, record.installed.front());
  };

  const std::uint32_t first = table.open(udp_key(1, 2, 1000));
  const of::Match first_match = install_ingress(first, 1, 0);
  const std::uint64_t first_cookie = table.at(first).cookie;
  EXPECT_EQ(table.removal_owner(first_cookie, 1, first_match), first);
  // Another switch's entry, or another match, is not the ingress entry.
  EXPECT_EQ(table.removal_owner(first_cookie, 2, first_match), SessionTable::kNoSlot);
  EXPECT_EQ(table.removal_owner(first_cookie, 1, of::Match::exact(0, udp_key(1, 2, 1001))),
            SessionTable::kNoSlot);

  table.close(first);
  EXPECT_EQ(table.removal_owner(first_cookie, 1, first_match), SessionTable::kNoSlot);

  // The freed slot is reused for the next session with a new generation.
  const std::uint32_t second = table.open(udp_key(3, 4, 2000));
  ASSERT_EQ(second, first);
  const of::Match second_match = install_ingress(second, 1, 0);
  const std::uint64_t second_cookie = table.at(second).cookie;
  EXPECT_NE(second_cookie, first_cookie);
  EXPECT_EQ(table.removal_owner(first_cookie, 1, first_match), SessionTable::kNoSlot);
  EXPECT_EQ(table.removal_owner(first_cookie, 1, second_match), SessionTable::kNoSlot);
  EXPECT_EQ(table.removal_owner(second_cookie, 1, second_match), second);
  // A cookie naming a slot never allocated names nothing.
  EXPECT_EQ(table.removal_owner(std::uint64_t{1} << 32 | 77, 1, second_match),
            SessionTable::kNoSlot);
}

// --- DecisionCache -----------------------------------------------------------------

DecisionKey class_key(std::uint64_t n) {
  return DecisionKey{DecisionCache::decision_class(udp_key(1, 2, 0)), n, 0};
}

TEST(DecisionCache, EachStampInputFlushesANonEmptyCacheOnce) {
  const DecisionStamp base{1, 1, 1, 0};
  // Moving any one input of the stamp flushes the cache exactly once.
  for (int input = 0; input < 3; ++input) {
    DecisionCache cache;
    ASSERT_FALSE(cache.validate(cache.stamp(1, 1, 1)));
    cache.insert(class_key(1), CachedDecision{});
    DecisionStamp moved = base;
    if (input == 0) ++moved.policy;
    if (input == 1) ++moved.routing;
    if (input == 2) ++moved.registry;
    EXPECT_TRUE(cache.validate(moved)) << "input " << input;
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.validate(moved)) << "input " << input;
  }
  // invalidate() moves the epoch, the fourth input.
  DecisionCache cache;
  cache.validate(cache.stamp(1, 1, 1));
  cache.insert(class_key(1), CachedDecision{});
  const std::uint64_t epoch = cache.epoch();
  cache.invalidate();
  EXPECT_EQ(cache.epoch(), epoch + 1);
  EXPECT_TRUE(cache.validate(cache.stamp(1, 1, 1)));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.validate(cache.stamp(1, 1, 1)));
}

TEST(DecisionCache, FlushOfAnEmptyCacheCountsNone) {
  DecisionCache cache;
  EXPECT_FALSE(cache.validate(DecisionStamp{1, 2, 3, 0}));
  cache.invalidate();
  EXPECT_FALSE(cache.validate(cache.stamp(1, 2, 3)));
  EXPECT_FALSE(cache.validate(DecisionStamp{4, 5, 6, 7}));
}

TEST(DecisionCache, FullCacheIsFlushedWhole) {
  DecisionCache cache;
  for (std::uint64_t i = 0; i < DecisionCache::kCapacity; ++i) {
    cache.insert(class_key(i), CachedDecision{});
  }
  EXPECT_EQ(cache.size(), 8192u);
  ASSERT_NE(cache.find(class_key(0)), nullptr);
  cache.insert(class_key(DecisionCache::kCapacity), CachedDecision{});
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.find(class_key(0)), nullptr);
  EXPECT_NE(cache.find(class_key(DecisionCache::kCapacity)), nullptr);
}

TEST(DecisionCache, OffloadMemoTakenBeforeInvalidateIsDroppedOnLookup) {
  DecisionCache cache;
  const pkt::FlowKey key = udp_key(1, 2, 1000);
  EXPECT_EQ(cache.check_offload(key, cache.stamp(1, 1, 1)), DecisionCache::Memo::kNone);
  cache.remember_offload(key, OffloadEntry{cache.stamp(1, 1, 1), 4096});
  EXPECT_EQ(cache.check_offload(key, cache.stamp(1, 1, 1)), DecisionCache::Memo::kHeld);
  EXPECT_TRUE(cache.offloads().contains(key));

  cache.invalidate();
  EXPECT_EQ(cache.check_offload(key, cache.stamp(1, 1, 1)), DecisionCache::Memo::kDropped);
  EXPECT_FALSE(cache.offloads().contains(key));
  EXPECT_EQ(cache.check_offload(key, cache.stamp(1, 1, 1)), DecisionCache::Memo::kNone);
}

TEST(DecisionCache, FullOffloadMemoIsFlushedWhole) {
  DecisionCache cache;
  const DecisionStamp stamp = cache.stamp(1, 1, 1);
  for (std::uint16_t i = 0; i < DecisionCache::kCapacity; ++i) {
    cache.remember_offload(udp_key(1, 2, i), OffloadEntry{stamp, 0});
  }
  EXPECT_EQ(cache.offloads().size(), DecisionCache::kCapacity);
  // Re-remembering a held key keeps the memo; a new key flushes it first.
  cache.remember_offload(udp_key(1, 2, 0), OffloadEntry{stamp, 1});
  EXPECT_EQ(cache.offloads().size(), DecisionCache::kCapacity);
  cache.remember_offload(udp_key(1, 2, 0xFFFF), OffloadEntry{stamp, 0});
  EXPECT_EQ(cache.offloads().size(), 1u);
}

// --- Discovery ---------------------------------------------------------------------

/// Counts the records a controller replicates, by kind.
class CountingSink : public ha::ReplicationSink {
 public:
  void replicate(ha::RecordBody body) override {
    if (std::holds_alternative<ha::LsPortRecord>(body)) ++ls_port_records;
  }
  int ls_port_records = 0;
};

TEST(Discovery, ReRegisteringTheSameUplinkNeitherInvalidatesNorReplicates) {
  Discovery discovery;
  EXPECT_TRUE(discovery.set_uplink(1, 3));
  EXPECT_FALSE(discovery.set_uplink(1, 3));

  sim::Simulator sim;
  ctrl::Controller controller(sim);
  CountingSink sink;
  controller.set_replication_sink(&sink);
  controller.register_ls_port(1, 3);
  const std::uint64_t epoch = controller.epoch();
  EXPECT_EQ(sink.ls_port_records, 1);

  controller.register_ls_port(1, 3);
  EXPECT_EQ(controller.epoch(), epoch);
  EXPECT_EQ(sink.ls_port_records, 1);

  controller.register_ls_port(1, 4);
  EXPECT_EQ(controller.epoch(), epoch + 1);
  EXPECT_EQ(sink.ls_port_records, 2);
}

TEST(Discovery, ProbeFromTheReceivingSwitchIsIgnored) {
  const std::vector<of::PacketOut> probes = Discovery::probes(2, 3);
  ASSERT_EQ(probes.size(), 3u);
  for (PortId port = 0; port < 3; ++port) {
    ASSERT_EQ(probes[port].actions, of::output_to(port));
    // Looped back into its own switch: no link.
    EXPECT_EQ(Discovery::parse_probe(2, 1, *probes[port].packet), std::nullopt);
  }
  // Crossing the fabric to switch 1's port 5: switch 1's uplink is 5, and
  // switch 2's is the port the probe left from.
  const auto link = Discovery::parse_probe(1, 5, *probes[2].packet);
  ASSERT_TRUE(link.has_value());
  EXPECT_EQ(*link, (topo::AsLink{2, 2, 1, 5}));

  // A frame that is no probe is ignored too.
  const pkt::PacketPtr other =
      pkt::PacketBuilder().eth(MacAddress::from_uint64(1), MacAddress::from_uint64(2)).finalize();
  EXPECT_EQ(Discovery::parse_probe(1, 5, *other), std::nullopt);
}

TEST(Discovery, RecabledUplinkOverwritesTheOldOne) {
  Discovery discovery;
  EXPECT_EQ(discovery.uplink(1), std::nullopt);
  EXPECT_TRUE(discovery.set_uplink(1, 3));
  EXPECT_TRUE(discovery.set_uplink(2, 4));
  EXPECT_TRUE(discovery.set_uplink(1, 7));
  EXPECT_EQ(discovery.uplink(1), std::optional<PortId>{7});
  EXPECT_EQ(discovery.uplink(2), std::optional<PortId>{4});
  EXPECT_EQ(discovery.uplinks().size(), 2u);
  discovery.forget(1);
  EXPECT_EQ(discovery.uplink(1), std::nullopt);
}

}  // namespace
}  // namespace livesec
