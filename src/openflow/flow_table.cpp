#include "openflow/flow_table.h"

#include <algorithm>
#include <sstream>

namespace livesec::of {

std::string FlowEntry::to_string() const {
  std::ostringstream out;
  out << "prio=" << priority << " " << match.to_string() << " -> " << of::to_string(actions)
      << " pkts=" << packet_count << " bytes=" << byte_count;
  return out.str();
}

bool FlowTable::ordered_before(const Slot& a, const Slot& b) const {
  if (a.entry.priority != b.entry.priority) return a.entry.priority > b.entry.priority;
  const int sa = a.entry.match.specificity();
  const int sb = b.entry.match.specificity();
  if (sa != sb) return sa > sb;
  return a.seq < b.seq;
}

SimTime FlowTable::next_deadline(const FlowEntry& e) {
  SimTime deadline = 0;
  if (e.hard_timeout > 0) deadline = e.installed_at + e.hard_timeout;
  if (e.idle_timeout > 0) {
    const SimTime idle = e.last_hit + e.idle_timeout;
    deadline = deadline == 0 ? idle : std::min(deadline, idle);
  }
  return deadline;
}

void FlowTable::file_in_wheel(std::uint64_t id, Slot& slot) {
  ++slot.wheel_epoch;  // invalidate any record filed for the previous state
  const SimTime deadline = next_deadline(slot.entry);
  if (deadline == 0) return;  // no timeouts: never expires
  wheel_[deadline].emplace_back(id, slot.wheel_epoch);
}

void FlowTable::add(FlowEntry entry, SimTime now) {
  entry.installed_at = now;
  entry.last_hit = now;

  if (entry.match.is_exact()) {
    const ExactKey key{entry.match.in_port_value(), entry.match.flow_key()};
    SmallVector<Slot*, 2>& ranked = exact_index_[key];
    // OFPFC_ADD: identical (match, priority) replaces in place.
    for (Slot* slot : ranked) {
      if (slot->entry.priority == entry.priority) {
        slot->entry = std::move(entry);
        file_in_wheel(slot->seq, *slot);
        return;
      }
    }
    const std::uint64_t id = next_id_++;
    Slot& slot = slots_.emplace(id, Slot{std::move(entry), id, /*exact=*/true, 0}).first->second;
    // Keep slots ordered by priority desc so front() is the lookup winner
    // (priorities are distinct here: equal priority replaced above).
    auto pos = ranked.begin();
    while (pos != ranked.end() && (*pos)->entry.priority > slot.entry.priority) ++pos;
    ranked.insert(pos, &slot);
    file_in_wheel(id, slot);
    return;
  }

  for (Slot* slot : wild_order_) {
    if (slot->entry.priority == entry.priority && slot->entry.match == entry.match) {
      slot->entry = std::move(entry);
      file_in_wheel(slot->seq, *slot);
      return;
    }
  }
  const std::uint64_t id = next_id_++;
  Slot& slot = slots_.emplace(id, Slot{std::move(entry), id, /*exact=*/false, 0}).first->second;
  // Insert keeping order: priority desc, specificity desc, install order asc
  // (the new entry is youngest, so it goes after equal (priority, spec)).
  auto pos = wild_order_.begin();
  while (pos != wild_order_.end() && ordered_before(**pos, slot)) ++pos;
  wild_order_.insert(pos, &slot);
  file_in_wheel(id, slot);
}

std::size_t FlowTable::modify_strict(const Match& match, std::uint16_t priority,
                                     const ActionList& actions) {
  std::size_t updated = 0;
  if (match.is_exact()) {
    const auto* ranked = exact_index_.find(ExactKey{match.in_port_value(), match.flow_key()});
    if (ranked == nullptr) return 0;
    for (Slot* slot : *ranked) {
      if (slot->entry.priority == priority) {
        slot->entry.actions = actions;
        ++updated;
      }
    }
    return updated;
  }
  for (Slot* slot : wild_order_) {
    if (slot->entry.priority == priority && slot->entry.match == match) {
      slot->entry.actions = actions;
      ++updated;
    }
  }
  return updated;
}

void FlowTable::detach(const Slot* slot) {
  if (slot->exact) {
    const ExactKey key{slot->entry.match.in_port_value(), slot->entry.match.flow_key()};
    auto* ranked = exact_index_.find(key);
    if (ranked != nullptr) {
      if (ranked->size() == 1) {
        exact_index_.erase(key);
      } else {
        ranked->erase(std::find(ranked->begin(), ranked->end(), slot));
      }
    }
  } else {
    std::erase(wild_order_, slot);
  }
  // Any pending wheel record becomes a tombstone: its id no longer resolves.
}

void FlowTable::remove_slot(std::uint64_t id, RemovalReason reason) {
  const auto it = slots_.find(id);
  if (it == slots_.end()) return;
  if (on_removal_) on_removal_(it->second.entry, reason);
  detach(&it->second);
  slots_.erase(it);
}

std::size_t FlowTable::remove_strict(const Match& match, std::uint16_t priority, SimTime now) {
  (void)now;
  std::vector<std::uint64_t> victims;
  if (match.is_exact()) {
    const auto* ranked = exact_index_.find(ExactKey{match.in_port_value(), match.flow_key()});
    if (ranked == nullptr) return 0;
    for (const Slot* slot : *ranked) {
      if (slot->entry.priority == priority) victims.push_back(slot->seq);
    }
  } else {
    for (const Slot* slot : wild_order_) {
      if (slot->entry.priority == priority && slot->entry.match == match) {
        victims.push_back(slot->seq);
      }
    }
  }
  for (std::uint64_t id : victims) remove_slot(id, RemovalReason::kDelete);
  return victims.size();
}

bool FlowTable::covers(const Match& general, const Match& specific) {
  // Every field constrained by `general` must be constrained by `specific`
  // to the same value; then anything `specific` matches, `general` matches.
  const std::uint32_t gw = general.wildcards();
  const std::uint32_t sw = specific.wildcards();
  // A field exact in general but wildcarded in specific => not covered.
  if ((~gw & sw) != 0) return false;
  auto exact = [gw](Wildcard w) { return (gw & static_cast<std::uint32_t>(w)) == 0; };
  if (exact(Wildcard::kInPort) && general.in_port_value() != specific.in_port_value()) return false;
  if (exact(Wildcard::kDlVlan) && general.dl_vlan_value() != specific.dl_vlan_value()) return false;
  if (exact(Wildcard::kDlSrc) && general.dl_src_value() != specific.dl_src_value()) return false;
  if (exact(Wildcard::kDlDst) && general.dl_dst_value() != specific.dl_dst_value()) return false;
  if (exact(Wildcard::kDlType) && general.dl_type_value() != specific.dl_type_value()) return false;
  if (exact(Wildcard::kNwSrc) && general.nw_src_value() != specific.nw_src_value()) return false;
  if (exact(Wildcard::kNwDst) && general.nw_dst_value() != specific.nw_dst_value()) return false;
  if (exact(Wildcard::kNwProto) && general.nw_proto_value() != specific.nw_proto_value())
    return false;
  if (exact(Wildcard::kTpSrc) && general.tp_src_value() != specific.tp_src_value()) return false;
  if (exact(Wildcard::kTpDst) && general.tp_dst_value() != specific.tp_dst_value()) return false;
  return true;
}

std::size_t FlowTable::remove_matching(const Match& match, SimTime now) {
  (void)now;
  std::vector<std::uint64_t> victims;
  if (match.is_exact()) {
    // A fully-exact filter covers only identical exact entries (any priority).
    const auto* ranked = exact_index_.find(ExactKey{match.in_port_value(), match.flow_key()});
    if (ranked == nullptr) return 0;
    for (const Slot* slot : *ranked) victims.push_back(slot->seq);
  } else {
    for (const auto& [id, slot] : slots_) {
      if (covers(match, slot.entry.match)) victims.push_back(id);
    }
    // Fire removal callbacks in deterministic table order.
    std::sort(victims.begin(), victims.end(), [this](std::uint64_t a, std::uint64_t b) {
      return ordered_before(slots_.at(a), slots_.at(b));
    });
  }
  for (std::uint64_t id : victims) remove_slot(id, RemovalReason::kDelete);
  return victims.size();
}

bool FlowTable::expired(const FlowEntry& e, SimTime now) const {
  if (e.hard_timeout > 0 && now - e.installed_at >= e.hard_timeout) return true;
  if (e.idle_timeout > 0 && now - e.last_hit >= e.idle_timeout) return true;
  return false;
}

std::size_t FlowTable::advance(SimTime now) {
  std::size_t removed = 0;
  while (!wheel_.empty() && wheel_.begin()->first <= now) {
    const auto records = std::move(wheel_.begin()->second);
    wheel_.erase(wheel_.begin());
    for (const auto& [id, epoch] : records) {
      const auto it = slots_.find(id);
      if (it == slots_.end() || it->second.wheel_epoch != epoch) continue;  // stale record
      Slot& slot = it->second;
      if (!expired(slot.entry, now)) {
        // Idle clock was refreshed by hits since filing: re-file at the new
        // deadline (strictly in the future, since the entry is not expired).
        file_in_wheel(id, slot);
        continue;
      }
      const bool hard =
          slot.entry.hard_timeout > 0 && now - slot.entry.installed_at >= slot.entry.hard_timeout;
      remove_slot(id, hard ? RemovalReason::kHardTimeout : RemovalReason::kIdleTimeout);
      ++removed;
    }
  }
  return removed;
}

const FlowEntry* FlowTable::lookup(PortId in_port, const pkt::FlowKey& key,
                                   std::size_t packet_bytes, SimTime now) {
  ++lookups_;
  advance(now);

  FlowEntry* exact_hit = nullptr;
  if (const auto* ranked = exact_index_.find(ExactKey{in_port, key})) {
    exact_hit = &ranked->front()->entry;  // highest priority first; never empty
  }

  FlowEntry* winner = nullptr;
  bool via_exact = false;
  if (exact_hit != nullptr) {
    // A fully-exact hit has maximal specificity, so it can only be shadowed
    // by a strictly-higher-priority wildcard entry. The common case — no
    // wildcard outranks it — resolves with one comparison against the
    // wildcard tier's head (kept priority-sorted).
    winner = exact_hit;
    via_exact = true;
    for (Slot* slot : wild_order_) {
      FlowEntry& wild = slot->entry;
      if (wild.priority <= exact_hit->priority) break;
      if (wild.match.matches(in_port, key)) {
        winner = &wild;
        via_exact = false;
        break;
      }
    }
  } else {
    for (Slot* slot : wild_order_) {
      FlowEntry& wild = slot->entry;
      if (wild.match.matches(in_port, key)) {
        winner = &wild;
        break;
      }
    }
  }
  if (winner == nullptr) return nullptr;
  ++hits_;
  if (via_exact) ++exact_hits_;
  ++winner->packet_count;
  winner->byte_count += packet_bytes;
  winner->last_hit = now;
  return winner;
}

const FlowEntry* FlowTable::peek(PortId in_port, const pkt::FlowKey& key, SimTime now) const {
  const FlowEntry* best_exact = nullptr;
  if (const auto* ranked = exact_index_.find(ExactKey{in_port, key})) {
    for (const Slot* slot : *ranked) {
      if (!expired(slot->entry, now)) {
        best_exact = &slot->entry;  // priority-sorted: first live one wins
        break;
      }
    }
  }
  for (const Slot* slot : wild_order_) {
    const FlowEntry& wild = slot->entry;
    if (best_exact != nullptr && wild.priority <= best_exact->priority) break;
    if (expired(wild, now)) continue;
    if (wild.match.matches(in_port, key)) return &wild;
  }
  return best_exact;
}

std::size_t FlowTable::expire(SimTime now) { return advance(now); }

std::vector<FlowEntry> FlowTable::entries() const {
  std::vector<const Slot*> ordered;
  ordered.reserve(slots_.size());
  for (const auto& [id, slot] : slots_) ordered.push_back(&slot);
  std::sort(ordered.begin(), ordered.end(),
            [this](const Slot* a, const Slot* b) { return ordered_before(*a, *b); });
  std::vector<FlowEntry> out;
  out.reserve(ordered.size());
  for (const Slot* slot : ordered) out.push_back(slot->entry);
  return out;
}

std::string FlowTable::dump() const {
  std::ostringstream out;
  out << "flow_table(" << slots_.size() << " entries [" << wild_order_.size() << " wildcard], "
      << hits_ << "/" << lookups_ << " hits, " << exact_hits_ << " exact-tier)\n";
  for (const FlowEntry& e : entries()) out << "  " << e.to_string() << "\n";
  return out.str();
}

}  // namespace livesec::of
