// The controller's flow sessions (DESIGN.md §9): one record per installed
// end-to-end flow, held in a chunked slab, plus the indexes that map a
// reported key, an endpoint MAC or a FlowRemoved cookie back to it. The
// table answers "which sessions?"; the controller decides what to send
// (setup, teardown and blocking FlowMods stay with it).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
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

/// Slots of one host's sessions. The common case (a host with a few active
/// flows) stays inline with no per-flow node; a hot host (a server
/// terminating thousands of flows) spills into an open-addressing set, so
/// add/remove stay O(1) instead of degrading to a linear scan per flow.
class SlotSet {
 public:
  /// Inserts `slot` (a no-op when it is present).
  void insert(std::uint32_t slot) {
    if (large_ == nullptr) {
      if (std::find(small_.begin(), small_.end(), slot) != small_.end()) return;
      if (small_.size() < kSpillThreshold) {
        small_.push_back(slot);
        return;
      }
      spill();
    }
    large_->insert_or_assign(slot, 0);
  }

  /// Removes `slot`; returns false when it was not present. A spilled set
  /// never shrinks back inline — a host that was hot tends to stay hot.
  bool erase(std::uint32_t slot) {
    if (large_) return large_->erase(slot);
    for (std::size_t i = 0; i < small_.size(); ++i) {
      if (small_[i] == slot) {
        small_[i] = small_.back();
        small_.pop_back();
        return true;
      }
    }
    return false;
  }

  std::size_t size() const { return large_ ? large_->size() : small_.size(); }
  bool empty() const { return size() == 0; }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (large_) {
      large_->for_each([&fn](std::uint32_t slot, char) { fn(slot); });
      return;
    }
    for (std::uint32_t slot : small_) fn(slot);
  }

 private:
  static constexpr std::size_t kInline = 4;
  static constexpr std::size_t kSpillThreshold = 16;

  void spill() {
    large_ = std::make_unique<LargeSet>();
    large_->reserve(2 * kSpillThreshold);
    for (std::uint32_t slot : small_) large_->insert_or_assign(slot, 0);
    small_ = SmallVector<std::uint32_t, kInline>();
  }

  using LargeSet = FlatHashMap<std::uint32_t, char>;

  SmallVector<std::uint32_t, kInline> small_;
  std::unique_ptr<LargeSet> large_;
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
class SessionTable {
 public:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// Session-aware reverse key (ICMP echo request <-> reply, §III.C.3).
  static pkt::FlowKey session_reverse(const pkt::FlowKey& key);
  /// The match of one installed entry of `record`, as the controller sent
  /// it: the class templates' zeroed source port is the key's own again.
  static of::Match entry_match(const FlowRecord& record, const PathStep& step);

  /// Live sessions.
  std::size_t size() const { return sessions_.size(); }
  /// Hosts with at least one live session.
  std::size_t host_count() const { return flows_by_host_.size(); }

  FlowRecord& at(std::uint32_t slot) { return *slot_at(slot).record; }
  /// The live session whose forward key is `key`, or nullptr.
  FlowRecord* find(const pkt::FlowKey& key) {
    const std::uint32_t* slot = sessions_.find(key);
    return slot == nullptr ? nullptr : &at(*slot);
  }
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

  /// Slots of the live sessions with `mac` as either endpoint.
  std::vector<std::uint32_t> slots_of_host(const MacAddress& mac) const;
  /// Slots of the live sessions steered through `se_id`, in slot order.
  std::vector<std::uint32_t> slots_through_se(std::uint64_t se_id) const;
  /// The slot a FlowRemoved of (cookie, dpid, match) ends, or kNoSlot when
  /// the removal is not the current ingress entry of a live session.
  std::uint32_t removal_owner(std::uint64_t cookie, DatapathId dpid,
                              const of::Match& match) const;

  /// Bytes of the slab (live and free slots) and its three key indexes.
  std::size_t memory_bytes() const {
    return chunks_.size() * kChunk * sizeof(Slot) + chunks_.capacity() * sizeof(chunks_[0]) +
           sessions_.memory_bytes() + steered_.memory_bytes() + icmp_reverse_.memory_bytes();
  }

 private:
  /// Small chunks: a controller with a handful of flows holds one ~22 KB
  /// chunk, and growth never copies or reallocates records.
  static constexpr std::uint32_t kChunk = 64;

  struct Slot {
    std::optional<FlowRecord> record;  // engaged while the session is live
    std::uint32_t generation = 1;      // never 0: cookie 0 is "not ours"
    std::uint32_t next_free = kNoSlot;
  };
  // The slot is the per-live-flow cost of the controller; DESIGN.md §9
  // gives its layout. Growing it is a memory regression at campus scale.
  static_assert(sizeof(Slot) <= 352);

  Slot& slot_at(std::uint32_t slot) { return chunks_[slot / kChunk][slot % kChunk]; }
  const Slot& slot_at(std::uint32_t slot) const { return chunks_[slot / kChunk][slot % kChunk]; }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slots_ = 0;  // slots ever allocated
  std::uint32_t free_ = kNoSlot;
  /// Forward 9-tuple -> slot of its live session.
  FlatHashMap<pkt::FlowKey, std::uint32_t> sessions_;
  /// Steered 9-tuple (dl_dst rewritten to an SE MAC, either direction) ->
  /// slot, so SE event reports map back to the user flow.
  FlatHashMap<pkt::FlowKey, std::uint32_t> steered_;
  /// ICMP sessions' reverse key -> slot. Other reverse keys need no entry:
  /// session_reverse is an involution there, so sessions_ finds them. The
  /// ICMP one is not: it drops the code and maps every type but the echo
  /// request onto the request, so several sessions can share a reverse key.
  FlatHashMap<pkt::FlowKey, std::uint32_t> icmp_reverse_;
  /// Endpoint MAC -> slots of live sessions touching it; a host's entry
  /// goes with its last session.
  FlatHashMap<std::uint64_t, SlotSet> flows_by_host_;
};

}  // namespace livesec::ctrl
