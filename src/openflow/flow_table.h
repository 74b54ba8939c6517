// Flow entries and the per-switch flow table.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_hash.h"
#include "common/small_vector.h"
#include "common/types.h"
#include "openflow/action.h"
#include "openflow/match.h"

namespace livesec::of {

/// One rule in a switch's flow table: match + actions + counters + timeouts.
struct FlowEntry {
  Match match;
  ActionList actions;
  std::uint16_t priority = 100;
  /// Entry is evicted if unmatched for this long (0 = never).
  SimTime idle_timeout = 0;
  /// Entry is evicted this long after installation regardless of use (0 = never).
  SimTime hard_timeout = 0;
  /// Opaque cookie chosen by the controller to recognize its own entries.
  std::uint64_t cookie = 0;

  // Counters (maintained by the flow table on each hit).
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;
  SimTime installed_at = 0;
  SimTime last_hit = 0;

  std::string to_string() const;
};

/// Reason codes reported when an entry is removed (OFPRR_*).
enum class RemovalReason { kIdleTimeout, kHardTimeout, kDelete };

/// Flow table with exact OpenFlow 1.0 semantics: highest priority wins;
/// among equal priorities the most specific match wins; ties broken by
/// install order (oldest first).
///
/// Internally two-tier, OvS-microflow-cache style:
///  - an exact tier: hash index on (in_port, 9-tuple) serving fully-exact
///    entries (everything the controller's path/drop installation emits) in
///    O(1) regardless of table size;
///  - a wildcard tier: the classic priority/specificity-ordered list,
///    scanned only when the exact tier misses or a strictly-higher-priority
///    wildcard entry could shadow the exact hit.
/// Timeout eviction uses a deadline-bucketed timer wheel instead of a
/// per-lookup full-table sweep, so expiry cost is proportional to the
/// entries actually expiring, not to table size. Idle-timeout refreshes are
/// lazy: a hit only bumps `last_hit`; the stale wheel record re-files itself
/// when its bucket fires.
class FlowTable {
 public:
  /// Called when an entry with `notify_on_removal` expires or is deleted.
  using RemovalCallback = std::function<void(const FlowEntry&, RemovalReason)>;

  /// Adds an entry. An existing entry with identical match & priority is
  /// replaced (counters reset), per OFPFC_ADD semantics.
  void add(FlowEntry entry, SimTime now);

  /// Updates actions of entries whose match equals `match` exactly
  /// (OFPFC_MODIFY_STRICT). Returns number updated.
  std::size_t modify_strict(const Match& match, std::uint16_t priority, const ActionList& actions);

  /// Removes entries whose match equals `match` exactly (OFPFC_DELETE_STRICT).
  std::size_t remove_strict(const Match& match, std::uint16_t priority, SimTime now);

  /// Removes every entry matched-or-wildcard-covered by `match`
  /// (OFPFC_DELETE, non-strict: `match` must be equal or more general).
  std::size_t remove_matching(const Match& match, SimTime now);

  /// Looks up the best entry for a packet; bumps counters on hit. Expired
  /// entries are lazily evicted during lookup (timer wheel, amortized O(1)).
  const FlowEntry* lookup(PortId in_port, const pkt::FlowKey& key, std::size_t packet_bytes,
                          SimTime now);

  /// Non-mutating lookup (no counter bump, no eviction) for diagnostics.
  const FlowEntry* peek(PortId in_port, const pkt::FlowKey& key, SimTime now) const;

  /// Evicts all entries that have timed out as of `now`. Returns the count.
  std::size_t expire(SimTime now);

  void set_removal_callback(RemovalCallback cb) { on_removal_ = std::move(cb); }

  std::size_t size() const { return slots_.size(); }

  /// Snapshot of all entries in table order (priority desc, specificity
  /// desc, install order asc). Materialized on demand — diagnostics/stats
  /// path, not per-packet.
  std::vector<FlowEntry> entries() const;

  /// Visits every entry (unordered) without materializing a snapshot.
  template <typename F>
  void for_each_entry(F&& fn) const {
    for (const auto& [id, slot] : slots_) fn(slot.entry);
  }

  std::uint64_t lookups() const { return lookups_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return lookups_ - hits_; }
  /// Hits served by the O(1) exact tier (no wildcard scan involved).
  std::uint64_t exact_hits() const { return exact_hits_; }
  /// Hits resolved by scanning the wildcard tier.
  std::uint64_t wildcard_hits() const { return hits_ - exact_hits_; }
  /// Entries currently in the wildcard (linear-scan) tier.
  std::size_t wildcard_size() const { return wild_order_.size(); }

  std::string dump() const;

 private:
  /// Hash key of the exact tier: switch ingress port + the 9-tuple.
  struct ExactKey {
    PortId in_port = 0;
    pkt::FlowKey key;
    friend bool operator==(const ExactKey&, const ExactKey&) = default;
  };
  /// Word-wise pre-hash: MACs loaded as words, one multiply per word.
  /// FlatHashMap finishes it with splitmix64, so this only has to spread
  /// every field into the word (FlowKey::hash() mixes fully on its own).
  struct ExactKeyHash {
    static std::uint64_t mac_word(const MacAddress& mac) {
      std::uint64_t w = 0;
      std::memcpy(&w, mac.bytes().data(), 6);
      return w;
    }
    std::uint64_t operator()(const ExactKey& k) const noexcept {
      const pkt::FlowKey& f = k.key;
      const std::uint64_t w0 = mac_word(f.dl_src) | (std::uint64_t{f.vlan_id} << 48);
      const std::uint64_t w1 = mac_word(f.dl_dst) | (std::uint64_t{f.dl_type} << 48);
      const std::uint64_t w2 = (std::uint64_t{f.nw_src.value()} << 32) | f.nw_dst.value();
      const std::uint64_t w3 = (std::uint64_t{k.in_port} << 40) |
                               (std::uint64_t{f.nw_proto} << 32) |
                               (std::uint64_t{f.tp_src} << 16) | f.tp_dst;
      std::uint64_t h = w0 * 0x9e3779b97f4a7c15ull;
      h = (h ^ w1) * 0xbf58476d1ce4e5b9ull;
      h = (h ^ w2) * 0x94d049bb133111ebull;
      return h ^ w3;
    }
  };

  struct Slot {
    FlowEntry entry;
    /// Install order, stable across OFPFC_ADD replace; also the slot's key
    /// in `slots_`.
    std::uint64_t seq = 0;
    bool exact = false;
    /// Epoch of this slot's live timer-wheel record; a fired record whose
    /// epoch doesn't match is stale (entry was replaced) and is skipped.
    std::uint32_t wheel_epoch = 0;
  };

  bool expired(const FlowEntry& e, SimTime now) const;
  /// True when `general` covers every packet `specific` could match.
  static bool covers(const Match& general, const Match& specific);
  /// Earliest time `e` could expire given its current clocks (0 = never).
  static SimTime next_deadline(const FlowEntry& e);
  /// (Re-)files the slot's timer-wheel record at its current deadline.
  void file_in_wheel(std::uint64_t id, Slot& slot);
  /// Fires every due wheel bucket: evicts entries expired as of `now`,
  /// re-files entries whose idle clock was refreshed since filing.
  std::size_t advance(SimTime now);
  /// Unlinks a slot from its tier index (exact hash or wildcard order).
  void detach(const Slot* slot);
  /// Removes one entry, firing the removal callback with `reason`.
  void remove_slot(std::uint64_t id, RemovalReason reason);
  /// Table-order comparison (priority desc, specificity desc, seq asc).
  bool ordered_before(const Slot& a, const Slot& b) const;

  /// All live entries, keyed by a unique install id. Nodes are stable, so
  /// both tiers index them by pointer.
  std::unordered_map<std::uint64_t, Slot> slots_;
  /// Exact tier: (in_port, 9-tuple) -> slots, sorted by priority desc, so a
  /// lookup is one open-addressing probe that lands on the winner. Almost
  /// always one slot; a second appears when e.g. a security drop (priority
  /// 200) overlays a forwarding entry (priority 100) for the same flow.
  FlatHashMap<ExactKey, SmallVector<Slot*, 2>, ExactKeyHash> exact_index_;
  /// Wildcard tier in table order (priority desc, specificity desc, seq asc).
  std::vector<Slot*> wild_order_;
  /// Timer wheel: deadline -> (id, epoch) records filed at that deadline.
  std::map<SimTime, std::vector<std::pair<std::uint64_t, std::uint32_t>>> wheel_;

  RemovalCallback on_removal_;
  std::uint64_t lookups_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t exact_hits_ = 0;
  std::uint64_t next_id_ = 0;
};

}  // namespace livesec::of
