// The controller's flow-decision fast path (DESIGN.md §6): memoized
// per-class decisions, the benign cut-through memo, and the stamp both are
// checked against.
//
// A flow *class* is the FlowKey with tp_src zeroed for TCP/UDP (no policy
// predicate reads tp_src, and the path is port-agnostic); ICMP and other
// protocols keep the full key, because their tp_src carries semantics (echo
// type). All flows of one class share a memoized decision: the policy
// verdict, the SE chain, and per-switch flow-mod templates built against
// the class key, replayed per flow with only the transport-port fields,
// cookie and buffer id patched. The controller builds decisions; this class
// only stores them and decides when they stop being valid.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/ip_address.h"
#include "common/mac_address.h"
#include "controller/policy.h"
#include "controller/session_table.h"
#include "openflow/messages.h"
#include "packet/flow_key.h"

namespace livesec::ctrl {

/// Flow-mod templates of one switch's share of a class's path.
struct SwitchMods {
  DatapathId dpid = 0;
  std::vector<of::FlowMod> mods;  // class-keyed templates, in order
  std::vector<PathStep> steps;    // parallel: each template's path step
  int ingress_mod = -1;  // patched with cookie + buffer id (forward ingress)
};

struct CachedDecision {
  PolicyAction action = PolicyAction::kAllow;
  std::string policy_name;  // deny-event detail
  std::vector<std::uint64_t> se_ids;
  std::vector<MacAddress> se_macs;  // steered-key registration
  std::vector<SwitchMods> switches;
  of::ActionList ingress_actions;
  /// Fabric-priming targets (destination + chain SEs).
  std::vector<std::tuple<MacAddress, Ipv4Address, DatapathId>> prime;
  /// Per-flow-granularity redirects re-balance on every setup and must not
  /// be memoized.
  bool cacheable = true;
};

struct DecisionKey {
  pkt::FlowKey cls;
  DatapathId dpid = 0;
  PortId in_port = kInvalidPort;
  bool operator==(const DecisionKey&) const = default;
};
struct DecisionKeyHash {
  std::size_t operator()(const DecisionKey& k) const noexcept {
    return static_cast<std::size_t>(hash_combine(hash_combine(k.cls.hash(), k.dpid), k.in_port));
  }
};

/// Everything a memoized decision depends on: the versions of the policy
/// table, the routing table and the SE registry, and the cache's own epoch.
/// Any component moving flushes the whole cache (invalidation is rare;
/// per-entry stamps are not worth the bytes).
struct DecisionStamp {
  std::uint64_t policy = 0;
  std::uint64_t routing = 0;
  std::uint64_t registry = 0;
  std::uint64_t epoch = 0;
  bool operator==(const DecisionStamp&) const = default;
};

/// One flow's benign cut-through memo.
struct OffloadEntry {
  DecisionStamp stamp;                // world the verdict was taken in
  std::uint64_t inspected_bytes = 0;  // payload cleared before the verdict
};

class DecisionCache {
 public:
  /// Bound of the decision map and, separately, of the offload memo. A full
  /// one is flushed whole: simpler than LRU, and it refills fast.
  static constexpr std::size_t kCapacity = 8192;

  DecisionCache() { decisions_.reserve(kCapacity / 2); }

  /// The class `key` shares its decision with.
  static pkt::FlowKey decision_class(const pkt::FlowKey& key);

  /// Moves the epoch: every decision and offload memo taken so far is stale.
  /// The one way to invalidate what the versioned tables do not cover
  /// (channels, switches, uplinks, mirror ports, failover, snapshot import).
  void invalidate() { ++epoch_; }
  std::uint64_t epoch() const { return epoch_; }

  /// The stamp of a decision taken now, given the tables' versions.
  DecisionStamp stamp(std::uint64_t policy, std::uint64_t routing, std::uint64_t registry) const {
    return DecisionStamp{policy, routing, registry, epoch_};
  }

  /// Flushes the decisions when `now` differs from the stamp they were
  /// computed under. Returns true when that flush emptied a non-empty map.
  bool validate(const DecisionStamp& now) {
    if (now == stamp_) return false;
    stamp_ = now;
    if (decisions_.empty()) return false;
    decisions_.clear();
    return true;
  }

  CachedDecision* find(const DecisionKey& key) {
    auto it = decisions_.find(key);
    return it == decisions_.end() ? nullptr : &it->second;
  }
  /// Memoizes a decision `key` does not hold yet, flushing a full map first.
  CachedDecision& insert(const DecisionKey& key, CachedDecision decision);
  std::size_t size() const { return decisions_.size(); }

  // --- benign cut-through memo ----------------------------------------------

  enum class Memo { kNone, kHeld, kDropped };
  /// Whether `key` holds a memo taken under `now`. A memo taken under
  /// another stamp is dropped here and reported as kDropped.
  Memo check_offload(const pkt::FlowKey& key, const DecisionStamp& now) {
    if (offloads_.empty()) return Memo::kNone;
    auto it = offloads_.find(key);
    if (it == offloads_.end()) return Memo::kNone;
    if (it->second.stamp == now) return Memo::kHeld;
    offloads_.erase(it);
    return Memo::kDropped;
  }
  /// Stores `key`'s memo, flushing a full memo first.
  void remember_offload(const pkt::FlowKey& key, const OffloadEntry& entry);
  /// Drops `key`'s memo; returns whether it held one.
  bool forget_offload(const pkt::FlowKey& key) { return offloads_.erase(key) > 0; }
  /// Memos in key order (snapshot export is deterministic).
  const std::map<pkt::FlowKey, OffloadEntry>& offloads() const { return offloads_; }
  void clear_offloads() { offloads_.clear(); }

 private:
  std::unordered_map<DecisionKey, CachedDecision, DecisionKeyHash> decisions_;
  /// Stamp the decisions were computed under.
  DecisionStamp stamp_;
  std::uint64_t epoch_ = 0;
  std::map<pkt::FlowKey, OffloadEntry> offloads_;
};

}  // namespace livesec::ctrl
