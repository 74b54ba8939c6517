#include "controller/routing_table.h"

#include <algorithm>

namespace livesec::ctrl {

RoutingTable::RoutingTable(SimTime host_timeout)
    : timeout_(host_timeout),
      // Coarse buckets bound wheel size: a bucket per eighth of the timeout
      // is enough resolution (expiry is already quantized by the caller's
      // housekeeping interval) while keeping bucket count ~ O(active span).
      wheel_granularity_(host_timeout > 0 ? std::max<SimTime>(host_timeout / 8, 1) : 1) {}

// --- arena -------------------------------------------------------------------

std::uint32_t RoutingTable::allocate_slot() {
  if (free_head_ != kNil) {
    const std::uint32_t slot = free_head_;
    free_head_ = record_at(slot).dpid_next;
    return slot;
  }
  if (arena_size_ % kChunkSlots == 0) {
    chunks_.push_back(std::make_unique<Record[]>(kChunkSlots));
  }
  return arena_size_++;
}

void RoutingTable::free_slot(std::uint32_t slot) {
  Record& rec = record_at(slot);
  rec.live = false;
  ++rec.wheel_epoch;  // any filed wheel entry for this slot is now stale
  rec.dpid_prev = kNil;
  rec.dpid_next = free_head_;
  free_head_ = slot;
}

// --- per-dpid chains ---------------------------------------------------------

void RoutingTable::link_dpid(std::uint32_t slot) {
  Record& rec = record_at(slot);
  const std::uint32_t* head = dpid_head_.find(rec.loc.dpid);
  rec.dpid_prev = kNil;
  rec.dpid_next = head == nullptr ? kNil : *head;
  if (rec.dpid_next != kNil) record_at(rec.dpid_next).dpid_prev = slot;
  dpid_head_.insert_or_assign(rec.loc.dpid, slot);
}

void RoutingTable::unlink_dpid(std::uint32_t slot) {
  Record& rec = record_at(slot);
  if (rec.dpid_prev != kNil) {
    record_at(rec.dpid_prev).dpid_next = rec.dpid_next;
  } else {
    // Head of the chain.
    if (rec.dpid_next != kNil) {
      dpid_head_.insert_or_assign(rec.loc.dpid, rec.dpid_next);
    } else {
      dpid_head_.erase(rec.loc.dpid);
    }
  }
  if (rec.dpid_next != kNil) record_at(rec.dpid_next).dpid_prev = rec.dpid_prev;
  rec.dpid_prev = kNil;
  rec.dpid_next = kNil;
}

// --- timeout wheel -----------------------------------------------------------

SimTime RoutingTable::wheel_bucket(SimTime deadline) const {
  const SimTime g = wheel_granularity_;
  return ((deadline + g - 1) / g) * g;
}

void RoutingTable::file_in_wheel(std::uint32_t slot) {
  if (timeout_ <= 0) return;
  Record& rec = record_at(slot);
  ++rec.wheel_epoch;  // invalidate any earlier filing
  wheel_[wheel_bucket(rec.loc.last_seen + timeout_)].emplace_back(slot, rec.wheel_epoch);
}

// --- IP secondary index ------------------------------------------------------

void RoutingTable::assign_ip(Ipv4Address ip, std::uint64_t mac48) {
  if (std::uint64_t* owner = by_ip_.find(ip.value())) {
    if (*owner != mac48) {
      // DHCP re-lease: the previous holder lost the address. Clear it from
      // the loser's record so a later remove/expire of the loser cannot
      // erase the new owner's index entry (the stale-index bug).
      if (const std::uint32_t* loser_slot = by_mac_.find(*owner)) {
        record_at(*loser_slot).loc.ip = Ipv4Address();
      }
      *owner = mac48;
    }
    return;
  }
  by_ip_.insert_or_assign(ip.value(), mac48);
}

void RoutingTable::release_ip(Ipv4Address ip, std::uint64_t mac48) {
  if (ip.is_zero()) return;
  // Conditional erase: the address may already belong to another host.
  if (const std::uint64_t* owner = by_ip_.find(ip.value()); owner && *owner == mac48) {
    by_ip_.erase(ip.value());
  }
}

// --- public API --------------------------------------------------------------

bool RoutingTable::learn(const MacAddress& mac, Ipv4Address ip, DatapathId dpid, PortId port,
                         SimTime now) {
  const std::uint64_t mac48 = mac.to_uint64();
  if (const std::uint32_t* found = by_mac_.find(mac48)) {
    const std::uint32_t slot = *found;
    Record& rec = record_at(slot);
    const bool moved = rec.loc.dpid != dpid || rec.loc.port != port;
    const bool ip_changed = !ip.is_zero() && rec.loc.ip != ip;
    if (ip_changed) {
      release_ip(rec.loc.ip, mac48);
      rec.loc.ip = ip;
      assign_ip(ip, mac48);
    }
    if (moved) {
      unlink_dpid(slot);
      rec.loc.dpid = dpid;
      rec.loc.port = port;
      link_dpid(slot);
    }
    rec.loc.last_seen = now;
    // An IP re-lease changes the ip->mac mapping even when the host did not
    // move: IP-keyed consumers (ARP proxy answers, decision caches) must
    // see the version move or they keep serving the old binding.
    if (moved || ip_changed) ++version_;
    return moved;
  }

  const std::uint32_t slot = allocate_slot();
  Record& rec = record_at(slot);
  rec.loc = HostLocation{mac, ip, dpid, port, now, now};
  rec.live = true;
  by_mac_.insert_or_assign(mac48, slot);
  link_dpid(slot);
  file_in_wheel(slot);
  if (!ip.is_zero()) assign_ip(ip, mac48);
  ++total_;
  ++version_;
  return true;
}

void RoutingTable::touch(const MacAddress& mac, SimTime now) {
  if (const std::uint32_t* slot = by_mac_.find(mac.to_uint64())) {
    record_at(*slot).loc.last_seen = now;  // wheel re-files lazily
  }
}

const HostLocation* RoutingTable::find(const MacAddress& mac) const {
  const std::uint32_t* slot = by_mac_.find(mac.to_uint64());
  return slot == nullptr ? nullptr : &record_at(*slot).loc;
}

const HostLocation* RoutingTable::find_by_ip(Ipv4Address ip) const {
  if (ip.is_zero()) return nullptr;
  const std::uint64_t* mac48 = by_ip_.find(ip.value());
  return mac48 == nullptr ? nullptr : find(MacAddress::from_uint64(*mac48));
}

HostLocation RoutingTable::remove_slot(std::uint32_t slot, bool from_chain_walk) {
  Record& rec = record_at(slot);
  const HostLocation loc = rec.loc;
  release_ip(loc.ip, loc.mac.to_uint64());
  by_mac_.erase(loc.mac.to_uint64());
  if (!from_chain_walk) unlink_dpid(slot);
  free_slot(slot);
  --total_;
  return loc;
}

bool RoutingTable::remove(const MacAddress& mac) {
  const std::uint32_t* slot = by_mac_.find(mac.to_uint64());
  if (slot == nullptr) return false;
  remove_slot(*slot, /*from_chain_walk=*/false);
  ++version_;
  return true;
}

std::vector<HostLocation> RoutingTable::expire(SimTime now) {
  std::vector<HostLocation> removed;
  if (timeout_ <= 0) return removed;
  const SimTime horizon = wheel_bucket(now);
  // Refiles are deferred: a not-yet-due record's new bucket may quantize to
  // a key we are still draining, and re-inserting there would loop.
  std::vector<std::uint32_t> refile;
  while (!wheel_.empty() && wheel_.begin()->first <= horizon) {
    auto node = wheel_.extract(wheel_.begin());
    for (const auto& [slot, epoch] : node.mapped()) {
      const Record& rec = record_at(slot);
      if (!rec.live || rec.wheel_epoch != epoch) continue;  // stale filing
      if (now - rec.loc.last_seen >= timeout_) {
        removed.push_back(remove_slot(slot, /*from_chain_walk=*/false));
      } else {
        refile.push_back(slot);  // idle clock was refreshed since filing
      }
    }
  }
  for (std::uint32_t slot : refile) file_in_wheel(slot);
  if (!removed.empty()) ++version_;
  return removed;
}

std::vector<HostLocation> RoutingTable::remove_switch(DatapathId dpid) {
  std::vector<HostLocation> removed;
  const std::uint32_t* head = dpid_head_.find(dpid);
  if (head == nullptr) return removed;
  std::uint32_t slot = *head;
  while (slot != kNil) {
    const std::uint32_t next = record_at(slot).dpid_next;
    removed.push_back(remove_slot(slot, /*from_chain_walk=*/true));
    slot = next;
  }
  dpid_head_.erase(dpid);
  ++version_;
  return removed;
}

std::vector<HostLocation> RoutingTable::all() const {
  std::vector<HostLocation> out;
  out.reserve(total_);
  for_each([&out](const HostLocation& loc) { out.push_back(loc); });
  return out;
}

// --- scale observability -----------------------------------------------------

std::size_t RoutingTable::size_on_switch(DatapathId dpid) const {
  std::size_t count = 0;
  const std::uint32_t* head = dpid_head_.find(dpid);
  if (head == nullptr) return count;
  for (std::uint32_t slot = *head; slot != kNil; slot = record_at(slot).dpid_next) ++count;
  return count;
}

std::size_t RoutingTable::memory_bytes() const {
  std::size_t bytes = sizeof(*this) + chunks_.size() * kChunkSlots * sizeof(Record) +
                      by_mac_.memory_bytes() + dpid_head_.memory_bytes() +
                      by_ip_.memory_bytes();
  for (const auto& [bucket, entries] : wheel_) {
    bytes += sizeof(bucket) + entries.capacity() * sizeof(entries[0]) + 48;
  }
  return bytes;
}

}  // namespace livesec::ctrl
