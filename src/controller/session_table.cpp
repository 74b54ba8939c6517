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

bool SessionTable::steers(const FlowRecord& record, const pkt::FlowKey& key) {
  // with_dl_dst(k, mac) == key exactly when mac is key.dl_dst and k agrees
  // with key outside dl_dst.
  if (std::find(record.se_macs.begin(), record.se_macs.end(), key.dl_dst) ==
      record.se_macs.end()) {
    return false;
  }
  if (with_dl_dst(record.key, key.dl_dst) == key) return true;
  return with_dl_dst(session_reverse(record.key), key.dl_dst) == key;
}

void SessionTable::link_host(std::uint32_t link, const MacAddress& host) {
  HostLink& entry = link_at(link);
  entry.prev = kNoLink;
  std::uint32_t* head = host_heads_.find(host.to_uint64());
  if (head == nullptr) {
    entry.next = kNoLink;
    host_heads_.insert_or_assign(host.to_uint64(), link);
    return;
  }
  entry.next = *head;
  link_at(*head).prev = link;
  *head = link;
}

void SessionTable::unlink_host(std::uint32_t link, const MacAddress& host) {
  const HostLink entry = link_at(link);
  if (entry.next != kNoLink) link_at(entry.next).prev = entry.prev;
  if (entry.prev != kNoLink) {
    link_at(entry.prev).next = entry.next;
  } else if (entry.next != kNoLink) {
    *host_heads_.find(host.to_uint64()) = entry.next;
  } else {
    host_heads_.erase(host.to_uint64());
  }
}

std::uint32_t SessionTable::open(const pkt::FlowKey& key, std::span<const MacAddress> se_macs) {
  std::uint32_t slot = free_;
  if (slot != kNoSlot) {
    free_ = slot_at(slot).next_free;
  } else {
    if (slots_ % kChunk == 0) chunks_.push_back(std::make_unique<Chunk>());
    slot = slots_++;
  }
  Slot& entry = slot_at(slot);
  entry.next_free = kLive;
  FlowRecord& record = entry.record;
  record.key = key;
  record.cookie = (std::uint64_t{entry.generation} << 32) | slot;
  // The SE MACs first: the steered index verifies candidates against them.
  for (const MacAddress& se_mac : se_macs) record.se_macs.push_back(se_mac);
  sessions_.assign(hash32(key), slot, forward_of(key));
  const pkt::FlowKey reverse = session_reverse(key);
  if (is_icmp(key)) icmp_reverse_.assign(hash32(reverse), slot, icmp_reverse_of(reverse));
  for (const MacAddress& se_mac : se_macs) {
    for (const pkt::FlowKey& steered : {with_dl_dst(key, se_mac), with_dl_dst(reverse, se_mac)}) {
      steered_.assign(hash32(steered), slot, steered_of(steered));
    }
  }
  link_host(slot << 1, key.dl_src);
  if (key.dl_dst != key.dl_src) link_host((slot << 1) | 1, key.dl_dst);
  return slot;
}

void SessionTable::close(std::uint32_t slot) {
  Slot& entry = slot_at(slot);
  const FlowRecord& record = entry.record;
  const pkt::FlowKey& key = record.key;
  const pkt::FlowKey reverse = session_reverse(key);
  sessions_.erase(hash32(key), forward_of(key));
  if (is_icmp(key)) icmp_reverse_.erase(hash32(reverse), icmp_reverse_of(reverse));
  for (const MacAddress& se_mac : record.se_macs) {
    for (const pkt::FlowKey& steered : {with_dl_dst(key, se_mac), with_dl_dst(reverse, se_mac)}) {
      steered_.erase(hash32(steered), steered_of(steered));
    }
  }
  unlink_host(slot << 1, key.dl_src);
  if (key.dl_dst != key.dl_src) unlink_host((slot << 1) | 1, key.dl_dst);
  entry.record = FlowRecord{};
  // Every cookie this slot handed out so far goes stale.
  if (++entry.generation == 0) entry.generation = 1;
  entry.next_free = free_;
  free_ = slot;
}

FlowRecord* SessionTable::resolve_reported(pkt::FlowKey& key) {
  if (const std::uint32_t slot = steered_.find(hash32(key), steered_of(key)); slot != kNoSlot) {
    key = at(slot).key;
  }
  // Fold the reverse direction onto the forward key. Outside ICMP the
  // session owning reverse key R is the one filed under session_reverse(R),
  // which is R.reversed().
  std::uint32_t owner = kNoSlot;
  if (is_icmp(key)) {
    owner = icmp_reverse_.find(hash32(key), icmp_reverse_of(key));
  } else {
    const pkt::FlowKey reversed = key.reversed();
    owner = sessions_.find(hash32(reversed), forward_of(reversed));
  }
  if (owner == kNoSlot) return find(key);
  FlowRecord& record = at(owner);
  key = record.key;
  return &record;
}

std::vector<std::uint32_t> SessionTable::slots_of_host(const MacAddress& mac) const {
  std::vector<std::uint32_t> slots;
  const std::uint32_t* head = host_heads_.find(mac.to_uint64());
  if (head == nullptr) return slots;
  for (std::uint32_t link = *head; link != kNoLink; link = link_at(link).next) {
    slots.push_back(link >> 1);
  }
  return slots;
}

std::vector<std::uint32_t> SessionTable::slots_through_se(std::uint64_t se_id) const {
  std::vector<std::uint32_t> slots;
  for (std::uint32_t slot = 0; slot < slots_; ++slot) {
    const Slot& entry = slot_at(slot);
    if (entry.live() && std::find(entry.record.se_ids.begin(), entry.record.se_ids.end(),
                                  se_id) != entry.record.se_ids.end()) {
      slots.push_back(slot);
    }
  }
  return slots;
}

std::uint32_t SessionTable::removal_owner(std::uint64_t cookie, DatapathId dpid,
                                          const of::Match& match) const {
  const auto slot = static_cast<std::uint32_t>(cookie);
  if (slot >= slots_) return kNoSlot;
  const Slot& entry = slot_at(slot);
  const FlowRecord& live = entry.record;
  if (!entry.live() || live.cookie != cookie || live.installed.empty() ||
      live.installed.front().dpid != dpid ||
      entry_match(live, live.installed.front()) != match) {
    return kNoSlot;
  }
  return slot;
}

}  // namespace livesec::ctrl
