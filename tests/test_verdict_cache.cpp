// Shared fuzzy-hash verdict cache (DESIGN.md §11): FuzzyDigest units, the
// store's hit/miss/invalidate semantics, payload digest memoization,
// and the end-to-end behavior — the Nth flow carrying known content skips the
// SE's engines, malicious content learned on one flow blocks the next at
// ingress, and policy mutation / signature reload / HA failover all flush
// the cache.
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <vector>

#include "common/fuzzy_digest.h"
#include "controller/controller.h"
#include "ha/cluster.h"
#include "monitor/event.h"
#include "ha/fault_plan.h"
#include "net/network.h"
#include "net/traffic.h"
#include "packet/packet.h"
#include "services/service_element.h"
#include "services/verdict_cache.h"

namespace livesec {
namespace {

using net::Network;

std::vector<std::uint8_t> patterned_bytes(std::size_t n, std::uint8_t mul,
                                          std::uint8_t add) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(i * mul + add);
  }
  return out;
}

// --- FuzzyDigest -------------------------------------------------------------------

TEST(FuzzyDigest, OfIsDeterministicAndContentSensitive) {
  const auto a = patterned_bytes(4096, 131, 7);
  const FuzzyDigest da = FuzzyDigest::of(a);
  EXPECT_EQ(da, FuzzyDigest::of(a));
  EXPECT_EQ(da.bytes, 4096u);
  EXPECT_FALSE(da.empty());
  EXPECT_TRUE(FuzzyDigest{}.empty());

  // One flipped byte changes the exact hash (and thus the store key) even
  // though the sketch barely moves.
  auto edited = a;
  edited[100] ^= 0xFF;
  const FuzzyDigest de = FuzzyDigest::of(edited);
  EXPECT_NE(da.exact, de.exact);
  EXPECT_NE(da.key(), de.key());
  EXPECT_EQ(da.bytes, de.bytes);
}

TEST(FuzzyDigest, ChunkedComposeIsDeterministicAndOrderSensitive) {
  const auto a = patterned_bytes(1400, 31, 3);
  const auto b = patterned_bytes(1400, 57, 11);
  const FuzzyDigest da = FuzzyDigest::of(a);
  const FuzzyDigest db = FuzzyDigest::of(b);

  // Same chunk sequence -> same flow digest, every time. This is what makes
  // two flows carrying the same content packet-by-packet collide in the
  // cache even though neither ever sees the whole stream in one buffer.
  FuzzyDigest ab1, ab2, ba;
  ab1.merge(da);
  ab1.merge(db);
  ab2.merge(da);
  ab2.merge(db);
  ba.merge(db);
  ba.merge(da);
  EXPECT_EQ(ab1, ab2);
  EXPECT_EQ(ab1.bytes, 2800u);

  // The exact hash is order-sensitive: a benign verdict for content "AB"
  // must not be served to a flow that carried "BA".
  EXPECT_NE(ab1.exact, ba.exact);
  EXPECT_NE(ab1.key(), ba.key());
}

TEST(FuzzyDigest, DistanceSeparatesNearDuplicatesFromUnrelatedContent) {
  const auto a = patterned_bytes(4096, 131, 7);
  auto edited = a;
  edited[100] ^= 0xFF;  // a few flipped bytes: an exploit variant
  edited[2000] ^= 0x55;
  const auto unrelated = patterned_bytes(4096, 31, 3);

  const FuzzyDigest da = FuzzyDigest::of(a);
  const FuzzyDigest de = FuzzyDigest::of(edited);
  const FuzzyDigest du = FuzzyDigest::of(unrelated);

  EXPECT_EQ(FuzzyDigest::distance(da, da), 0u);
  // A small edit leaves most lane minima intact; unrelated content of the
  // same length disagrees on essentially every lane.
  const std::uint32_t near = FuzzyDigest::distance(da, de);
  const std::uint32_t far = FuzzyDigest::distance(da, du);
  EXPECT_LE(near, 2u);
  EXPECT_GE(far, FuzzyDigest::kLanes - 1);

  // And at least one LSH band survives the edit, so the variant is findable.
  const auto band_a = da.band_keys();
  const auto band_e = de.band_keys();
  int shared = 0;
  for (std::size_t i = 0; i < band_a.size(); ++i) {
    if (band_a[i] == band_e[i]) ++shared;
  }
  EXPECT_GE(shared, 1);
}

// --- the store ---------------------------------------------------------------------

TEST(VerdictCache, BenignIsServedOnExactMatchOnly) {
  svc::VerdictCache cache;
  const auto content = patterned_bytes(4096, 131, 7);
  const FuzzyDigest digest = FuzzyDigest::of(content);
  ASSERT_TRUE(cache.insert(digest, svc::CachedVerdict::kBenign, 0, 0, 262144));

  const auto hit = cache.lookup(digest);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->verdict, svc::CachedVerdict::kBenign);
  EXPECT_EQ(hit->inspected_bytes, 262144u);
  EXPECT_EQ(hit->distance, 0u);

  // The near-duplicate (sketch distance 0, different exact hash) must NOT
  // ride the benign verdict past inspection.
  auto edited = content;
  edited[100] ^= 0xFF;
  const FuzzyDigest variant = FuzzyDigest::of(edited);
  ASSERT_LE(FuzzyDigest::distance(digest, variant), 2u);
  EXPECT_FALSE(cache.lookup(variant).has_value());

  const auto c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.benign_hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.fuzzy_hits, 0u);
}

TEST(VerdictCache, MaliciousIsAlsoServedOnFuzzyMatch) {
  svc::VerdictCache cache;
  const auto content = patterned_bytes(4096, 131, 7);
  const FuzzyDigest digest = FuzzyDigest::of(content);
  ASSERT_TRUE(cache.insert(digest, svc::CachedVerdict::kMalicious, 1013, 8, 4096));

  // The byte-variant of the exploit payload — a handful of edits spread
  // through the content, enough to disturb a sketch lane — is still blocked.
  auto edited = content;
  for (int k = 0; k < 4; ++k) edited[100 + k * 128] ^= 0xA5;
  const FuzzyDigest variant = FuzzyDigest::of(edited);
  ASSERT_NE(variant.key(), digest.key());
  const std::uint32_t dist = FuzzyDigest::distance(digest, variant);
  ASSERT_GE(dist, 1u);
  ASSERT_LE(dist, 2u);
  const auto hit = cache.lookup(variant);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->verdict, svc::CachedVerdict::kMalicious);
  EXPECT_EQ(hit->rule_id, 1013u);
  EXPECT_EQ(hit->severity, 8);

  // Unrelated content of the same length shares no band and stays a miss.
  const FuzzyDigest unrelated = FuzzyDigest::of(patterned_bytes(4096, 31, 3));
  EXPECT_FALSE(cache.lookup(unrelated).has_value());

  // Content of a different length never matches, however similar.
  FuzzyDigest longer = digest;
  longer.merge(FuzzyDigest::of(patterned_bytes(64, 1, 1)));
  EXPECT_FALSE(cache.lookup(longer).has_value());

  const auto c = cache.counters();
  EXPECT_EQ(c.malicious_hits, 1u);
  EXPECT_EQ(c.fuzzy_hits, 1u);
  EXPECT_EQ(c.misses, 2u);
}

TEST(VerdictCache, InsertRefusesEmptyDigestAndUnderInspectedBenign) {
  svc::VerdictCache::Config config;
  config.min_benign_bytes = 4096;
  svc::VerdictCache cache(config);

  EXPECT_FALSE(cache.insert(FuzzyDigest{}, svc::CachedVerdict::kBenign, 0, 0, 1 << 20));

  const FuzzyDigest digest = FuzzyDigest::of(patterned_bytes(512, 3, 1));
  // A flow that only cleared 512 bytes of a 4 KiB budget proves nothing.
  EXPECT_FALSE(cache.insert(digest, svc::CachedVerdict::kBenign, 0, 0, 512));
  EXPECT_EQ(cache.size(), 0u);
  // Malicious needs no minimum: the signature match is the proof.
  EXPECT_TRUE(cache.insert(digest, svc::CachedVerdict::kMalicious, 7, 5, 512));

  const auto c = cache.counters();
  EXPECT_EQ(c.rejected_insertions, 2u);
  EXPECT_EQ(c.insertions, 1u);
}

TEST(VerdictCache, EpochBumpInvalidatesLazilyAndCountersTrackIt) {
  svc::VerdictCache cache;
  const FuzzyDigest a = FuzzyDigest::of(patterned_bytes(1024, 3, 1));
  const FuzzyDigest b = FuzzyDigest::of(patterned_bytes(1024, 5, 2));
  ASSERT_TRUE(cache.insert(a, svc::CachedVerdict::kBenign, 0, 0, 1024));
  ASSERT_TRUE(cache.insert(b, svc::CachedVerdict::kMalicious, 9, 9, 1024));
  ASSERT_TRUE(cache.lookup(a).has_value());
  EXPECT_EQ(cache.size(), 2u);

  const std::uint64_t epoch = cache.bump_epoch("test");
  EXPECT_EQ(cache.epoch(), epoch);
  // Entries stay resident until their next lookup runs into them...
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.lookup(a).has_value());
  EXPECT_FALSE(cache.lookup(b).has_value());
  // ...at which point they are erased and counted as invalidations.
  EXPECT_EQ(cache.size(), 0u);
  const auto c = cache.counters();
  EXPECT_EQ(c.invalidations, 2u);

  // Re-learning under the new epoch works immediately.
  ASSERT_TRUE(cache.insert(a, svc::CachedVerdict::kBenign, 0, 0, 1024));
  EXPECT_TRUE(cache.lookup(a).has_value());
}

TEST(VerdictCache, AdvanceEpochToIsMonotonicAndIdempotent) {
  svc::VerdictCache cache;
  cache.advance_epoch_to(5);
  EXPECT_EQ(cache.epoch(), 5u);
  cache.advance_epoch_to(5);  // replicated record applied twice
  EXPECT_EQ(cache.epoch(), 5u);
  cache.advance_epoch_to(3);  // stale record must never lower the epoch
  EXPECT_EQ(cache.epoch(), 5u);
  EXPECT_GT(cache.bump_epoch("test"), 5u);
}

TEST(VerdictCache, FullStoreFlushesWholesale) {
  svc::VerdictCache::Config config;
  config.capacity = 4;
  svc::VerdictCache cache(config);

  // Inserts 5 and 9 each find the store full and flush it first.
  for (std::uint8_t i = 0; i < 9; ++i) {
    const FuzzyDigest d = FuzzyDigest::of(patterned_bytes(256, 3, i));
    ASSERT_TRUE(cache.insert(d, svc::CachedVerdict::kBenign, 0, 0, 256));
  }
  EXPECT_EQ(cache.size(), 1u);
  const auto c = cache.counters();
  EXPECT_EQ(c.flushes, 2u);
  EXPECT_EQ(c.insertions, 9u);
  EXPECT_EQ(c.entries, 1u);
}

TEST(VerdictCache, ExportEntriesCoversCurrentEpochOnly) {
  svc::VerdictCache cache;
  const FuzzyDigest stale = FuzzyDigest::of(patterned_bytes(128, 3, 1));
  ASSERT_TRUE(cache.insert(stale, svc::CachedVerdict::kBenign, 0, 0, 128));
  cache.bump_epoch("test");
  const FuzzyDigest live = FuzzyDigest::of(patterned_bytes(128, 5, 2));
  ASSERT_TRUE(cache.insert(live, svc::CachedVerdict::kMalicious, 42, 6, 128));

  const auto exported = cache.export_entries();
  ASSERT_EQ(exported.size(), 1u);
  EXPECT_EQ(exported[0].digest, live);
  EXPECT_EQ(exported[0].verdict, svc::CachedVerdict::kMalicious);
  EXPECT_EQ(exported[0].rule_id, 42u);
}

// --- payload digest memoization ----------------------------------------------------

TEST(VerdictCache, PayloadDigestIsComputedOncePerAllocation) {
  const auto payload = pkt::make_payload(patterned_bytes(1400, 31, 3));
  const std::uint64_t before = pkt::Payload::digest_computations();

  const FuzzyDigest& first = payload->fuzzy_digest();
  const FuzzyDigest& again = payload->fuzzy_digest();
  EXPECT_EQ(pkt::Payload::digest_computations(), before + 1);
  EXPECT_EQ(&first, &again);  // the memo, not a recomputation
  EXPECT_EQ(first, FuzzyDigest::of(payload->bytes()));

  // A distinct allocation of the same bytes digests once more — the memo is
  // per-allocation, and equal bytes still produce an equal digest.
  const auto copy = pkt::make_payload(patterned_bytes(1400, 31, 3));
  EXPECT_EQ(copy->fuzzy_digest(), first);
  EXPECT_EQ(pkt::Payload::digest_computations(), before + 2);
}

// --- end to end --------------------------------------------------------------------

constexpr SimTime kForever = std::numeric_limits<SimTime>::max();

/// src hosts on ovs1, server on ovs2, the IDS on a third switch — the same
/// steering geometry as the offload tests, plus a second client so "content
/// learned on flow A serves flow B" crosses hosts, not just ports.
struct CacheNet {
  Network network;
  sw::EthernetSwitch& backbone;
  sw::OpenFlowSwitch& ovs1;
  sw::OpenFlowSwitch& ovs2;
  sw::OpenFlowSwitch& ovs3;
  net::Host& alice;
  net::Host& carol;
  net::Host& bob;

  explicit CacheNet(std::size_t ha_standbys = 0, ha::FaultPlan plan = {})
      : network(),
        backbone((maybe_enable_ha(ha_standbys, plan),
                  network.add_legacy_switch("backbone"))),
        ovs1(network.add_as_switch("ovs1", backbone)),
        ovs2(network.add_as_switch("ovs2", backbone)),
        ovs3(network.add_as_switch("ovs3", backbone)),
        alice(network.add_host("alice", ovs1)),
        carol(network.add_host("carol", ovs1)),
        bob(network.add_host("bob", ovs2)) {}

  void maybe_enable_ha(std::size_t standbys, ha::FaultPlan plan) {
    if (standbys > 0) network.enable_ha(standbys, {}, plan);
  }

  svc::ServiceElement& add_ids(std::uint64_t verdict_byte_budget) {
    svc::ServiceElement::Config config;
    config.verdict_byte_budget = verdict_byte_budget;
    return network.add_service_element(svc::ServiceType::kIntrusionDetection, ovs3, config);
  }

  void add_udp_redirect_policy() {
    ctrl::Policy policy;
    policy.name = "udp-via-ids";
    policy.nw_proto = 17;
    policy.tp_dst = 9000;
    policy.action = ctrl::PolicyAction::kRedirect;
    policy.service_chain = {svc::ServiceType::kIntrusionDetection};
    network.controller().policies().add(policy);
  }

  svc::VerdictCache& cache() { return *network.verdict_cache(); }
};

TEST(VerdictCacheE2E, SecondFlowWithKnownContentOffloadsWithoutInspection) {
  CacheNet net;
  svc::ServiceElement& ids = net.add_ids(4096);
  net.add_udp_redirect_policy();
  net.network.start();

  // Both flows stream the *same* content (one shared payload allocation):
  // the viral-download shape.
  const auto content = pkt::make_payload(patterned_bytes(1400, 131, 7));

  net::UdpCbrApp first(net.alice, {.dst = net.bob.ip(), .rate_bps = 2e6,
                                   .duration = 400 * kMillisecond, .content = content});
  first.start();
  net.network.run_for(600 * kMillisecond);

  // Flow 1 was inspected the hard way, offloaded, and its benign verdict
  // (with the flow's content digest) was learned into the shared cache.
  auto& ctrl = net.network.controller();
  ASSERT_EQ(ctrl.stats().flows_offloaded, 1u);
  EXPECT_EQ(ctrl.stats().verdict_cache_inserts, 1u);
  EXPECT_EQ(net.cache().size(), 1u);
  EXPECT_EQ(ids.cache_hit_flows(), 0u);

  net::UdpCbrApp second(net.carol, {.dst = net.bob.ip(), .rate_bps = 2e6,
                                    .duration = 400 * kMillisecond, .content = content});
  second.start();
  net.network.run_for(600 * kMillisecond);

  // Flow 2 hit the cache as soon as its digest window filled (~3 packets)
  // and was offloaded off a from-cache verdict — no second inspection pass.
  EXPECT_EQ(ctrl.stats().flows_offloaded, 2u);
  EXPECT_GE(ctrl.stats().cached_verdict_messages, 1u);
  EXPECT_EQ(ctrl.stats().verdict_cache_inserts, 1u);  // nothing re-learned
  EXPECT_EQ(ids.cache_hit_flows(), 1u);
  const auto c = net.cache().counters();
  EXPECT_GE(c.hits, 1u);
  EXPECT_GE(c.benign_hits, 1u);
  EXPECT_GT(c.bytes_saved, 0u);
  EXPECT_GT(ids.cache_bytes_saved(), 0u);
}

TEST(VerdictCacheE2E, NearDuplicateContentIsNotServedTheBenignVerdict) {
  CacheNet net;
  svc::ServiceElement& ids = net.add_ids(4096);
  net.add_udp_redirect_policy();
  net.network.start();

  auto bytes = patterned_bytes(1400, 131, 7);
  const auto content = pkt::make_payload(bytes);
  bytes[100] ^= 0xFF;  // near-duplicate: same length, one byte off
  const auto variant = pkt::make_payload(std::move(bytes));

  net::UdpCbrApp first(net.alice, {.dst = net.bob.ip(), .rate_bps = 2e6,
                                   .duration = 400 * kMillisecond, .content = content});
  first.start();
  net.network.run_for(600 * kMillisecond);
  ASSERT_EQ(net.network.controller().stats().verdict_cache_inserts, 1u);

  net::UdpCbrApp second(net.carol, {.dst = net.bob.ip(), .rate_bps = 2e6,
                                    .duration = 400 * kMillisecond, .content = variant});
  second.start();
  net.network.run_for(600 * kMillisecond);

  // The variant never rode flow 1's benign verdict: it was inspected in
  // full and earned its own (firsthand, second) cache entry.
  EXPECT_EQ(ids.cache_hit_flows(), 0u);
  EXPECT_EQ(net.cache().counters().benign_hits, 0u);
  EXPECT_EQ(net.network.controller().stats().cached_verdict_messages, 0u);
  EXPECT_EQ(net.network.controller().stats().verdict_cache_inserts, 2u);
}

TEST(VerdictCacheE2E, MaliciousContentLearnedOnFlowABlocksFlowBAtIngress) {
  CacheNet net;
  svc::ServiceElement& ids = net.add_ids(512);
  ctrl::Policy policy;
  policy.name = "web-via-ids";
  policy.tp_dst = 80;
  policy.action = ctrl::PolicyAction::kRedirect;
  policy.service_chain = {svc::ServiceType::kIntrusionDetection};
  net.network.controller().policies().add(policy);
  const std::size_t server_window = 16;
  net::HttpServerApp server(net.bob, {.port = 80, .window = server_window});
  net.network.start();

  // Flow A: alice attacks; the IDS flags it firsthand and the malicious
  // verdict (with its content digest) lands in the shared cache.
  net::AttackApp attacker_a(net.alice, {.server = net.bob.ip(), .packets = 20,
                                        .interval = 20 * kMillisecond});
  attacker_a.start();
  net.network.run_for(1 * kSecond);
  auto& ctrl = net.network.controller();
  ASSERT_GE(ctrl.blocked_flow_count(), 1u);
  ASSERT_GE(ctrl.stats().verdict_cache_inserts, 1u);
  const std::uint64_t engine_packets_a = ids.processed_packets();

  // Flow B: carol replays the same exploit bytes. Her first inspected
  // packet hits the cache — blocked without an Aho-Corasick pass.
  net::AttackApp attacker_b(net.carol, {.server = net.bob.ip(), .packets = 20,
                                        .interval = 20 * kMillisecond});
  attacker_b.start();
  net.network.run_for(1 * kSecond);

  EXPECT_GE(ctrl.blocked_flow_count(), 2u);
  EXPECT_GE(ids.cache_hit_flows(), 1u);
  const auto c = net.cache().counters();
  EXPECT_GE(c.malicious_hits, 1u);
  EXPECT_GE(ctrl.stats().cached_verdict_messages, 1u);
  // Flow B's hit fired on its first probed packet; everything else the SE
  // saw afterwards is the in-flight reverse-direction response window (one
  // request reached the server before the block landed), not a second
  // inspection of the exploit stream.
  EXPECT_LE(ids.processed_packets() - engine_packets_a,
            1 + server_window);
  EXPECT_LT(server.requests_served(), 10u);
}

/// Runs one benign viral flow to completion and returns the cache epoch it
/// was learned under.
std::uint64_t learn_benign_flow(CacheNet& net, net::Host& src, pkt::PayloadPtr content,
                                std::uint16_t src_port) {
  net::UdpCbrApp flow(src, {.dst = net.bob.ip(), .src_port = src_port, .rate_bps = 2e6,
                            .duration = 400 * kMillisecond, .content = std::move(content)});
  flow.start();
  net.network.run_for(600 * kMillisecond);
  return net.cache().epoch();
}

TEST(VerdictCacheE2E, PolicyMutationInvalidatesCachedVerdicts) {
  CacheNet net;
  net.add_ids(4096);
  net.add_udp_redirect_policy();
  net.network.start();

  const auto content = pkt::make_payload(patterned_bytes(1400, 131, 7));
  const std::uint64_t epoch = learn_benign_flow(net, net.alice, content, 40000);
  ASSERT_EQ(net.cache().size(), 1u);

  // Any policy mutation reshapes what "benign under the current policy"
  // means — the entire cache generation dies with it.
  ctrl::Policy extra;
  extra.name = "deny-telnet";
  extra.tp_dst = 23;
  extra.action = ctrl::PolicyAction::kDeny;
  net.network.controller().policies().add(extra);
  EXPECT_GT(net.cache().epoch(), epoch);

  // The same content now misses, is re-inspected, and is re-learned under
  // the new epoch.
  learn_benign_flow(net, net.carol, content, 41000);
  const auto c = net.cache().counters();
  EXPECT_GE(c.invalidations, 1u);
  EXPECT_EQ(net.network.controller().stats().verdict_cache_inserts, 2u);
  EXPECT_EQ(net.network.controller().stats().cached_verdict_messages, 0u);
}

TEST(VerdictCacheE2E, SignatureReloadInvalidatesCachedVerdicts) {
  CacheNet net;
  svc::ServiceElement& se = net.add_ids(4096);
  net.add_udp_redirect_policy();
  net.network.start();

  const auto content = pkt::make_payload(patterned_bytes(1400, 131, 7));
  const std::uint64_t epoch = learn_benign_flow(net, net.alice, content, 40000);

  // A signature-set update means yesterday's "clean" may match today's
  // rules: the SE-side reload bumps the shared epoch itself.
  svc::ids::Signature rule;
  rule.id = 9001;
  rule.name = "new-threat-intel";
  rule.contents = {"EVIL-PATTERN-NOT-IN-STREAM"};
  rule.severity = 9;
  se.set_ids_rules({rule});
  EXPECT_GT(net.cache().epoch(), epoch);

  learn_benign_flow(net, net.carol, content, 41000);
  EXPECT_GE(net.cache().counters().invalidations, 1u);
  EXPECT_EQ(net.network.controller().stats().verdict_cache_inserts, 2u);
}

TEST(VerdictCacheE2E, HaFailoverInvalidatesCachedVerdicts) {
  ha::FaultPlan plan;
  plan.crash_active_at = 800 * kMillisecond;
  CacheNet net(1, plan);
  net.add_ids(4096);
  net.add_udp_redirect_policy();
  net.network.start();

  const auto content = pkt::make_payload(patterned_bytes(1400, 131, 7));
  const std::uint64_t epoch = learn_benign_flow(net, net.alice, content, 40000);
  ASSERT_GE(net.cache().counters().insertions, 1u);

  // Ride past the crash: the standby promotes and, not knowing which
  // verdicts were in flight at the instant of death, starts a new cache
  // generation (same rule as its offload memos).
  net.network.run_for(1 * kSecond);
  ASSERT_EQ(net.network.ha_cluster()->stats().failovers, 1u);
  EXPECT_GT(net.cache().epoch(), epoch);

  // Post-failover the content is re-inspected and re-learned.
  const std::uint64_t inserts_before = net.cache().counters().insertions;
  learn_benign_flow(net, net.carol, content, 41000);
  const auto c = net.cache().counters();
  EXPECT_GE(c.invalidations, 1u);
  EXPECT_GT(c.insertions, inserts_before);
}

TEST(VerdictCacheE2E, OptOutSeBypassesTheSharedCache) {
  CacheNet net;
  svc::ServiceElement::Config config;
  config.verdict_byte_budget = 4096;
  config.use_verdict_cache = false;  // the bench's no-cache A/B arm
  svc::ServiceElement& ids =
      net.network.add_service_element(svc::ServiceType::kIntrusionDetection, net.ovs3, config);
  net.add_udp_redirect_policy();
  net.network.start();

  EXPECT_EQ(ids.verdict_cache(), nullptr);
  const auto content = pkt::make_payload(patterned_bytes(1400, 131, 7));
  learn_benign_flow(net, net.alice, content, 40000);
  learn_benign_flow(net, net.carol, content, 41000);

  // Verdicts still flow and offload still works — but nothing was probed
  // or learned, and both flows were inspected in full.
  EXPECT_EQ(net.network.controller().stats().flows_offloaded, 2u);
  EXPECT_EQ(ids.cache_hit_flows(), 0u);
  const auto c = net.cache().counters();
  EXPECT_EQ(c.hits + c.misses, 0u);
}

TEST(VerdictCacheE2E, EventsQueryStillCleanWithCacheInPlay) {
  // Regression guard: from-cache verdicts must produce the same observable
  // event stream shape as firsthand ones (offload events, no duplicates).
  CacheNet net;
  net.add_ids(4096);
  net.add_udp_redirect_policy();
  net.network.start();

  const auto content = pkt::make_payload(patterned_bytes(1400, 131, 7));
  learn_benign_flow(net, net.alice, content, 40000);
  learn_benign_flow(net, net.carol, content, 41000);

  const auto offloads =
      net.network.controller().events().query_type(mon::EventType::kFlowOffloaded, 0, kForever);
  EXPECT_EQ(offloads.size(), 2u);
}

}  // namespace
}  // namespace livesec
