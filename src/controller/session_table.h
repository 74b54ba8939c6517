// The controller's flow sessions (DESIGN.md §9): one record per installed
// end-to-end flow, held in a chunked slab, plus the indexes that map a
// reported key, an endpoint MAC or a FlowRemoved cookie back to it. The
// table answers "which sessions?"; the controller decides what to send
// (setup, teardown and blocking FlowMods stay with it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/flat_hash.h"
#include "common/small_vector.h"
#include "common/types.h"
#include "openflow/action.h"
#include "openflow/match.h"
#include "packet/flow_key.h"
#include "services/l7/l7_classifier.h"

namespace livesec::ctrl {

/// One installed entry of a session. It matches Match::exact(in_port, k)
/// on switch dpid, where k is the session's key (or its session_reverse)
/// with dl_src and/or dl_dst replaced by a chain SE's MAC (DESIGN.md §9).
struct PathStep {
  static constexpr std::uint8_t kKeyMac = 0xFF;  // the key's own MAC
  DatapathId dpid = 0;
  PortId in_port = kInvalidPort;
  std::uint8_t reverse = 0;       // 1 = k derives from session_reverse(key)
  std::uint8_t src_se = kKeyMac;  // se_macs index carried as dl_src
  std::uint8_t dst_se = kKeyMac;  // se_macs index carried as dl_dst
};
static_assert(sizeof(PathStep) == 16);

/// Controller-side record of one installed end-to-end session: the forward
/// flow plus its pre-installed reverse direction. Records live in the
/// session slab; their inline capacities follow the path shapes the
/// controller's build_path emits, so a session steered through one SE is
/// set up and torn down without a heap allocation.
struct FlowRecord {
  /// Per direction build_path emits one steering entry per SE (plus its
  /// arrival entry when the SE sits on another switch) and one delivery
  /// entry (plus the egress entry when the destination sits on another
  /// switch): at most 2 * (chain length + 1), so 4 for a one-SE chain
  /// (paper §IV.A). Longer chains spill to the heap.
  static constexpr std::size_t kInlineEntries = 8;
  /// Longest SE chain a session is steered through: a PathStep names an SE
  /// by a one-byte index and benign_mask holds one bit per position.
  static constexpr std::size_t kMaxChain = 32;

  pkt::FlowKey key;  // original 9-tuple (forward direction); dl_src is the user
  /// Cookie stamped on the ingress entry: (slot generation << 32) | slot.
  std::uint64_t cookie = 0;
  DatapathId ingress_dpid = 0;
  PortId ingress_port = kInvalidPort;
  svc::l7::AppProtocol app = svc::l7::AppProtocol::kUnknown;
  bool blocked = false;
  /// Chain positions whose SE issued a benign VERDICT for this flow. The
  /// cut-through fires only once every position of se_ids is set.
  std::uint32_t benign_mask = 0;
  SmallVector<std::uint64_t, 1> se_ids;  // traversed chain
  /// MACs of the chain's SEs, in chain order. The steered variants of the
  /// key and of its reverse (dl_dst = SE MAC) are filed by SessionTable::open
  /// and re-derived from these for cleanup; path steps index them.
  SmallVector<MacAddress, 1> se_macs;
  /// Every entry installed for this flow, so that blocking / teardown can
  /// address them (entry_match rebuilds each match). The first is the
  /// ingress entry, which carries the cookie: build_path emits the forward
  /// path first, starting at the ingress switch.
  SmallVector<PathStep, kInlineEntries> installed;
  /// Actions of the ingress entry — used to release packets that raced to
  /// the controller before the entries landed (duplicate packet-ins).
  of::ActionList ingress_actions;
};

/// Open-addressing index from a key's hash to the session slot filed under
/// the key. It stores no key: an entry is the low 32 bits of the key's hash
/// and the slot, 8 bytes. A probe that meets an equal hash asks the caller's
/// `derives(slot)` whether that slot's session derives the key sought, so a
/// lookup of an absent key never leaves the index and a hit reads only the
/// session it returns. Robin-hood probing with backward-shift delete; an
/// entry's probe distance follows from its hash, so none is stored.
///
/// A key is filed at most once: assign() over a key already filed replaces
/// its slot, as insert_or_assign does, and erase() unfiles the key whichever
/// slot holds it. Every filed slot must stay answerable by `derives` until
/// its key is erased.
class SlotIndex {
 public:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  std::size_t size() const { return size_; }
  std::size_t memory_bytes() const { return entries_.capacity() * sizeof(Entry); }

  /// The slot filed under the key, or kNoSlot.
  template <typename Derives>
  std::uint32_t find(std::uint32_t hash, Derives&& derives) const {
    const std::size_t at = locate(hash, derives);
    return at == kAbsent ? kNoSlot : entries_[at].slot;
  }

  /// Files `slot` under the key, replacing the slot it was filed under.
  template <typename Derives>
  void assign(std::uint32_t hash, std::uint32_t slot, Derives&& derives) {
    if (const std::size_t at = locate(hash, derives); at != kAbsent) {
      entries_[at].slot = slot;
      return;
    }
    if ((size_ + 1) * 4 > entries_.size() * 3) grow();
    insert(Entry{hash, slot});
    ++size_;
  }

  /// Unfiles the key; false when it was not filed.
  template <typename Derives>
  bool erase(std::uint32_t hash, Derives&& derives) {
    std::size_t at = locate(hash, derives);
    if (at == kAbsent) return false;
    for (std::size_t next = (at + 1) & mask_;
         entries_[next].slot != kNoSlot && distance(next) != 0; next = (next + 1) & mask_) {
      entries_[at] = entries_[next];
      at = next;
    }
    entries_[at].slot = kNoSlot;
    --size_;
    return true;
  }

 private:
  struct Entry {
    std::uint32_t hash = 0;
    std::uint32_t slot = kNoSlot;  // kNoSlot = empty
  };
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  std::size_t distance(std::size_t at) const { return (at - entries_[at].hash) & mask_; }

  template <typename Derives>
  std::size_t locate(std::uint32_t hash, Derives& derives) const {
    if (size_ == 0) return kAbsent;
    std::size_t at = hash & mask_;
    // Robin-hood invariant: the key sought would have displaced any entry
    // closer to its home than the probe has travelled, so the scan stops
    // at the first such entry.
    for (std::size_t travelled = 0;; ++travelled, at = (at + 1) & mask_) {
      const Entry& entry = entries_[at];
      if (entry.slot == kNoSlot || distance(at) < travelled) return kAbsent;
      if (entry.hash == hash && derives(entry.slot)) return at;
    }
  }

  /// Places an entry whose key is not filed; the table has room.
  void insert(Entry carry) {
    std::size_t at = carry.hash & mask_;
    for (std::size_t travelled = 0;; ++travelled, at = (at + 1) & mask_) {
      Entry& entry = entries_[at];
      if (entry.slot == kNoSlot) {
        entry = carry;
        return;
      }
      if (const std::size_t dist = distance(at); dist < travelled) {
        std::swap(entry, carry);  // rob the richer entry, carry it on
        travelled = dist;
      }
    }
  }

  void grow() {
    std::vector<Entry> old = std::move(entries_);
    entries_.assign(old.empty() ? 16 : old.size() * 2, Entry{});
    mask_ = entries_.size() - 1;
    for (const Entry& entry : old) {
      if (entry.slot != kNoSlot) insert(entry);
    }
  }

  std::vector<Entry> entries_;  // 0 or a power of two
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// The session slab and its indexes.
///
/// Sessions live in fixed 64-record chunks that never move, addressed by a
/// 32-bit slot; a freed slot goes on an intrusive free list and bumps its
/// generation. The ingress entry's cookie is (generation << 32) | slot, so a
/// FlowRemoved finds its session without a lookup. It names its session
/// only when the cookie is the slot's current one and its (dpid, match) is
/// the session's ingress entry: a late removal for a freed or reused slot,
/// or one for an entry another controller installed, names none.
///
/// The key indexes are SlotIndexes that verify a hash match against the
/// slab, and each endpoint MAC heads an intrusive list of its sessions
/// threaded through the slots, so a setup and its FlowRemoved touch little
/// beyond the session's own slot.
class SessionTable {
 public:
  static constexpr std::uint32_t kNoSlot = SlotIndex::kNoSlot;

  /// Session-aware reverse key (ICMP echo request <-> reply, §III.C.3).
  static pkt::FlowKey session_reverse(const pkt::FlowKey& key);
  /// The match of one installed entry of `record`, as the controller sent
  /// it: the class templates' zeroed source port is the key's own again.
  static of::Match entry_match(const FlowRecord& record, const PathStep& step);

  /// Live sessions.
  std::size_t size() const { return sessions_.size(); }
  /// Hosts with at least one live session.
  std::size_t host_count() const { return host_heads_.size(); }

  FlowRecord& at(std::uint32_t slot) { return slot_at(slot).record; }
  /// The live session whose forward key is `key`, or nullptr.
  FlowRecord* find(const pkt::FlowKey& key);
  const FlowRecord* find(const pkt::FlowKey& key) const {
    return const_cast<SessionTable*>(this)->find(key);
  }

  /// Allocates a slot for a new session of `key` steered through the SEs
  /// whose MACs are `se_macs`, stamps its cookie and files it in every
  /// index: the steered variants (dl_dst = an SE MAC) of its key and of its
  /// reverse are filed so that SE reports resolve to it.
  std::uint32_t open(const pkt::FlowKey& key, std::span<const MacAddress> se_macs = {});
  /// Unfiles a session from every index and frees its slot.
  void close(std::uint32_t slot);
  /// Folds a key an SE reported — steered (dl_dst = SE MAC) and/or the
  /// reverse direction — onto its session's forward key, in place, and
  /// returns that session (nullptr when none is live; an unknown key is
  /// left as it is).
  FlowRecord* resolve_reported(pkt::FlowKey& key);

  /// Slots of the live sessions with `mac` as either endpoint, newest
  /// first.
  std::vector<std::uint32_t> slots_of_host(const MacAddress& mac) const;
  /// Slots of the live sessions steered through `se_id`, in slot order.
  std::vector<std::uint32_t> slots_through_se(std::uint64_t se_id) const;
  /// The slot a FlowRemoved of (cookie, dpid, match) ends, or kNoSlot when
  /// the removal is not the current ingress entry of a live session.
  std::uint32_t removal_owner(std::uint64_t cookie, DatapathId dpid,
                              const of::Match& match) const;

  /// Bytes of the slab (live and free slots, host-list links included),
  /// its three key indexes and the host heads. A record's spilled vectors
  /// (chains of two or more SEs) are not counted.
  std::size_t memory_bytes() const {
    return chunks_.size() * sizeof(Chunk) + chunks_.capacity() * sizeof(chunks_[0]) +
           sessions_.memory_bytes() + steered_.memory_bytes() + icmp_reverse_.memory_bytes() +
           host_heads_.memory_bytes();
  }

 private:
  /// Small chunks: a controller with a handful of flows holds one ~22 KB
  /// chunk, and growth never copies or reallocates records.
  static constexpr std::uint32_t kChunk = 64;
  static constexpr std::uint32_t kLive = 0xFFFFFFFEu;
  /// A host-list link names a slot and the side of its key the host is:
  /// (slot << 1) | side, side 0 for dl_src and 1 for dl_dst. Slots stay
  /// below 2^31 (that many would take ~750 GB of slab).
  static constexpr std::uint32_t kNoLink = 0xFFFFFFFFu;

  struct Slot {
    FlowRecord record;                  // the session while live(), else empty
    std::uint32_t generation = 1;       // never 0: cookie 0 is "not ours"
    std::uint32_t next_free = kNoSlot;  // kLive while the slot holds a session

    bool live() const { return next_free == kLive; }
  };
  // The slot is the per-live-flow cost of the controller; DESIGN.md §9
  // gives its layout. Growing it is a memory regression at campus scale.
  static_assert(sizeof(Slot) <= 352);
  /// Neighbours of one session in one host's list, as links.
  struct HostLink {
    std::uint32_t prev = kNoLink;
    std::uint32_t next = kNoLink;
  };
  /// The host links sit apart from the records, two per slot (sides 0 and
  /// 1) and indexed by link, so that list updates touch 16 B per session
  /// rather than a line of a ~350 B record. A session whose two endpoints
  /// are one host is listed on side 0 only.
  struct Chunk {
    Slot slots[kChunk];
    HostLink links[2 * kChunk];
  };
  // With its links a session still costs at most 352 B of slab.
  static_assert(sizeof(Chunk) <= 352 * kChunk);

  static std::uint32_t hash32(const pkt::FlowKey& key) {
    return static_cast<std::uint32_t>(key.hash());
  }

  Slot& slot_at(std::uint32_t slot) { return chunks_[slot / kChunk]->slots[slot % kChunk]; }
  const Slot& slot_at(std::uint32_t slot) const {
    return chunks_[slot / kChunk]->slots[slot % kChunk];
  }
  HostLink& link_at(std::uint32_t link) {
    return chunks_[link / (2 * kChunk)]->links[link % (2 * kChunk)];
  }
  const HostLink& link_at(std::uint32_t link) const {
    return chunks_[link / (2 * kChunk)]->links[link % (2 * kChunk)];
  }

  /// `derives` predicates of the three indexes: whether a slot's session
  /// files `key` as its forward key, as a steered variant, or as its ICMP
  /// reverse key.
  auto forward_of(const pkt::FlowKey& key) const {
    return [this, &key](std::uint32_t slot) { return slot_at(slot).record.key == key; };
  }
  auto steered_of(const pkt::FlowKey& key) const {
    return [this, &key](std::uint32_t slot) { return steers(slot_at(slot).record, key); };
  }
  auto icmp_reverse_of(const pkt::FlowKey& key) const {
    return [this, &key](std::uint32_t slot) {
      return session_reverse(slot_at(slot).record.key) == key;
    };
  }
  static bool steers(const FlowRecord& record, const pkt::FlowKey& key);

  void link_host(std::uint32_t link, const MacAddress& host);
  void unlink_host(std::uint32_t link, const MacAddress& host);

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::uint32_t slots_ = 0;  // slots ever allocated
  std::uint32_t free_ = kNoSlot;
  /// Forward 9-tuple -> slot of its live session.
  SlotIndex sessions_;
  /// Steered 9-tuple (dl_dst rewritten to an SE MAC, either direction) ->
  /// slot, so SE event reports map back to the user flow.
  SlotIndex steered_;
  /// ICMP sessions' reverse key -> slot. Other reverse keys need no entry:
  /// session_reverse is an involution there, so sessions_ finds them. The
  /// ICMP one is not: it drops the code and maps every type but the echo
  /// request onto the request, so several sessions can share a reverse key.
  SlotIndex icmp_reverse_;
  /// Endpoint MAC -> first link of its host list; a host's entry goes with
  /// its last session.
  FlatHashMap<std::uint64_t, std::uint32_t> host_heads_;
};

inline FlowRecord* SessionTable::find(const pkt::FlowKey& key) {
  const std::uint32_t slot = sessions_.find(hash32(key), forward_of(key));
  return slot == kNoSlot ? nullptr : &at(slot);
}

}  // namespace livesec::ctrl
