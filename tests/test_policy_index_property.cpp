// Property test for the indexed PolicyTable: the two-tier hash lookup must
// be observationally identical to the priority-ordered linear scan it
// replaced, across randomized policy mixes, interleaved add/remove, and
// randomized flow keys.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <vector>

#include "controller/policy.h"
#include "packet/flow_key.h"

namespace livesec::ctrl {
namespace {

/// The reference semantics: first match in the (priority desc, insertion
/// asc) sorted vector wins. This is exactly what PolicyTable::lookup did
/// before the exact-match tiers existed.
const Policy* reference_lookup(const PolicyTable& table, const pkt::FlowKey& key) {
  for (const Policy& p : table.policies()) {
    if (p.matches(key)) return &p;
  }
  return nullptr;
}

MacAddress mac_from_pool(std::mt19937& rng, int pool) {
  return MacAddress::from_uint64(0x111100ull + std::uniform_int_distribution<int>(0, pool - 1)(rng));
}

Policy random_policy(std::mt19937& rng) {
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> pct(0, 99);
  Policy p;
  p.priority = std::uniform_int_distribution<int>(-5, 5)(rng);  // many ties
  // Mix of fully pinned, partially pinned and wildcard policies, so every
  // tier (mac-pair, mac-port, wildcard scan) gets populated.
  if (pct(rng) < 70) p.src_mac = mac_from_pool(rng, 6);
  if (pct(rng) < 50) p.dst_mac = mac_from_pool(rng, 6);
  if (pct(rng) < 40) p.tp_dst = static_cast<std::uint16_t>(std::uniform_int_distribution<int>(1, 4)(rng));
  if (pct(rng) < 25) {
    p.nw_src = Ipv4Address(10, 0, static_cast<std::uint8_t>(coin(rng)), 0);
    p.nw_src_prefix = 24;
  }
  if (pct(rng) < 20) p.nw_proto = static_cast<std::uint8_t>(coin(rng) ? 6 : 17);
  p.action = pct(rng) < 50 ? PolicyAction::kAllow
             : pct(rng) < 50 ? PolicyAction::kDeny
                             : PolicyAction::kRedirect;
  return p;
}

pkt::FlowKey random_key(std::mt19937& rng) {
  std::uniform_int_distribution<int> coin(0, 1);
  pkt::FlowKey key;
  key.dl_src = mac_from_pool(rng, 6);
  key.dl_dst = mac_from_pool(rng, 6);
  key.dl_type = 0x0800;
  key.nw_src = Ipv4Address(10, 0, static_cast<std::uint8_t>(coin(rng)),
                           static_cast<std::uint8_t>(std::uniform_int_distribution<int>(1, 9)(rng)));
  key.nw_dst = Ipv4Address(10, 0, 9, 9);
  key.nw_proto = static_cast<std::uint8_t>(coin(rng) ? 6 : 17);
  key.tp_src = static_cast<std::uint16_t>(std::uniform_int_distribution<int>(1000, 1005)(rng));
  key.tp_dst = static_cast<std::uint16_t>(std::uniform_int_distribution<int>(1, 5)(rng));
  return key;
}

TEST(PolicyIndexProperty, IndexedLookupMatchesLinearScan) {
  std::mt19937 rng(0xC0FFEE);
  for (int round = 0; round < 30; ++round) {
    PolicyTable table;
    const int policy_count = std::uniform_int_distribution<int>(0, 40)(rng);
    std::vector<std::uint32_t> ids;
    for (int i = 0; i < policy_count; ++i) ids.push_back(table.add(random_policy(rng)));

    for (int probe = 0; probe < 200; ++probe) {
      const pkt::FlowKey key = random_key(rng);
      const Policy* fast = table.lookup(key);
      const Policy* ref = reference_lookup(table, key);
      ASSERT_EQ(fast == nullptr, ref == nullptr) << "round " << round << " probe " << probe;
      if (fast != nullptr) {
        EXPECT_EQ(fast->id, ref->id) << "round " << round << " probe " << probe;
      }
    }

    // Interleave removals and re-check: the index must track the reordered
    // vector exactly.
    std::shuffle(ids.begin(), ids.end(), rng);
    const std::size_t keep = ids.size() / 2;
    for (std::size_t i = keep; i < ids.size(); ++i) EXPECT_TRUE(table.remove(ids[i]));
    for (int probe = 0; probe < 100; ++probe) {
      const pkt::FlowKey key = random_key(rng);
      const Policy* fast = table.lookup(key);
      const Policy* ref = reference_lookup(table, key);
      ASSERT_EQ(fast == nullptr, ref == nullptr);
      if (fast != nullptr) {
        EXPECT_EQ(fast->id, ref->id);
      }
    }
  }
}

TEST(PolicyIndexProperty, FindIsConsistentAcrossMutations) {
  std::mt19937 rng(42);
  PolicyTable table;
  std::vector<std::uint32_t> ids;
  for (int i = 0; i < 64; ++i) ids.push_back(table.add(random_policy(rng)));
  for (std::uint32_t id : ids) {
    const Policy* p = table.find(id);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->id, id);
  }
  EXPECT_EQ(table.find(9999), nullptr);

  // Remove half; find() must forget exactly those.
  for (std::size_t i = 0; i < ids.size(); i += 2) EXPECT_TRUE(table.remove(ids[i]));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Policy* p = table.find(ids[i]);
    if (i % 2 == 0) {
      EXPECT_EQ(p, nullptr);
    } else {
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(p->id, ids[i]);
    }
  }
  EXPECT_FALSE(table.remove(ids[0]));  // already gone

  // Version moves on every mutation (decision caches depend on it).
  const std::uint64_t v = table.version();
  table.add(random_policy(rng));
  EXPECT_GT(table.version(), v);
}

}  // namespace
}  // namespace livesec::ctrl
