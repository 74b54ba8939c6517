#include "controller/session_table.h"

#include <algorithm>

namespace livesec::ctrl {

namespace {
/// Keys whose session_reverse is not an involution (see icmp_reverse_).
bool is_icmp(const pkt::FlowKey& key) {
  return key.nw_proto == static_cast<std::uint8_t>(pkt::IpProto::kIcmp);
}

pkt::FlowKey with_dl_dst(pkt::FlowKey key, const MacAddress& mac) {
  key.dl_dst = mac;
  return key;
}
}  // namespace

pkt::FlowKey SessionTable::session_reverse(const pkt::FlowKey& key) {
  pkt::FlowKey rev = key.reversed();
  if (is_icmp(key)) {
    // ICMP echo: the reply is type 0, the request type 8 (stored in tp_src).
    rev.tp_src = key.tp_src == 8 ? 0 : 8;
    rev.tp_dst = 0;
  }
  return rev;
}

of::Match SessionTable::entry_match(const FlowRecord& record, const PathStep& step) {
  pkt::FlowKey k = step.reverse != 0 ? session_reverse(record.key) : record.key;
  if (step.src_se != PathStep::kKeyMac) k.dl_src = record.se_macs[step.src_se];
  if (step.dst_se != PathStep::kKeyMac) k.dl_dst = record.se_macs[step.dst_se];
  return of::Match::exact(step.in_port, k);
}

std::uint32_t SessionTable::open(const pkt::FlowKey& key, std::span<const MacAddress> se_macs) {
  std::uint32_t slot = free_;
  if (slot != kNoSlot) {
    free_ = slot_at(slot).next_free;
  } else {
    if (slots_ % kChunk == 0) chunks_.push_back(std::make_unique<Slot[]>(kChunk));
    slot = slots_++;
  }
  Slot& entry = slot_at(slot);
  FlowRecord& record = entry.record.emplace();
  record.key = key;
  record.cookie = (std::uint64_t{entry.generation} << 32) | slot;
  sessions_.insert_or_assign(key, slot);
  const pkt::FlowKey reverse = session_reverse(key);
  if (is_icmp(key)) icmp_reverse_.insert_or_assign(reverse, slot);
  for (const MacAddress& se_mac : se_macs) {
    steered_.insert_or_assign(with_dl_dst(key, se_mac), slot);
    steered_.insert_or_assign(with_dl_dst(reverse, se_mac), slot);
    record.se_macs.push_back(se_mac);
  }
  for (const MacAddress& host : {key.dl_src, key.dl_dst}) {
    flows_by_host_[host.to_uint64()].insert(slot);
  }
  return slot;
}

void SessionTable::close(std::uint32_t slot) {
  Slot& entry = slot_at(slot);
  const FlowRecord& record = *entry.record;
  const pkt::FlowKey& key = record.key;
  const pkt::FlowKey reverse = session_reverse(key);
  sessions_.erase(key);
  if (is_icmp(key)) icmp_reverse_.erase(reverse);
  for (const MacAddress& se_mac : record.se_macs) {
    steered_.erase(with_dl_dst(key, se_mac));
    steered_.erase(with_dl_dst(reverse, se_mac));
  }
  for (const MacAddress& host : {key.dl_src, key.dl_dst}) {
    SlotSet* set = flows_by_host_.find(host.to_uint64());
    if (set != nullptr && set->erase(slot) && set->empty()) flows_by_host_.erase(host.to_uint64());
  }
  entry.record.reset();
  // Every cookie this slot handed out so far goes stale.
  if (++entry.generation == 0) entry.generation = 1;
  entry.next_free = free_;
  free_ = slot;
}

FlowRecord* SessionTable::resolve_reported(pkt::FlowKey& key) {
  if (const std::uint32_t* slot = steered_.find(key)) key = at(*slot).key;
  // Fold the reverse direction onto the forward key. Outside ICMP the
  // session owning reverse key R is the one filed under session_reverse(R),
  // which is R.reversed().
  const std::uint32_t* owner =
      is_icmp(key) ? icmp_reverse_.find(key) : sessions_.find(key.reversed());
  if (owner == nullptr) return find(key);
  FlowRecord& record = at(*owner);
  key = record.key;
  return &record;
}

std::vector<std::uint32_t> SessionTable::slots_of_host(const MacAddress& mac) const {
  std::vector<std::uint32_t> slots;
  const SlotSet* flows = flows_by_host_.find(mac.to_uint64());
  if (flows == nullptr) return slots;
  slots.reserve(flows->size());
  flows->for_each([&slots](std::uint32_t slot) { slots.push_back(slot); });
  return slots;
}

std::vector<std::uint32_t> SessionTable::slots_through_se(std::uint64_t se_id) const {
  std::vector<std::uint32_t> slots;
  for (std::uint32_t slot = 0; slot < slots_; ++slot) {
    const std::optional<FlowRecord>& record = slot_at(slot).record;
    if (record && std::find(record->se_ids.begin(), record->se_ids.end(), se_id) !=
                      record->se_ids.end()) {
      slots.push_back(slot);
    }
  }
  return slots;
}

std::uint32_t SessionTable::removal_owner(std::uint64_t cookie, DatapathId dpid,
                                          const of::Match& match) const {
  const auto slot = static_cast<std::uint32_t>(cookie);
  if (slot >= slots_) return kNoSlot;
  const std::optional<FlowRecord>& live = slot_at(slot).record;
  if (!live || live->cookie != cookie || live->installed.empty() ||
      live->installed.front().dpid != dpid ||
      entry_match(*live, live->installed.front()) != match) {
    return kNoSlot;
  }
  return slot;
}

}  // namespace livesec::ctrl
