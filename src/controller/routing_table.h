// The controller's routing table: where every host lives
// (paper §III.C.2: "LiveSec controller will record this location information
// of the fresh host in the routing table ... removed ... due to ARP packet
// timeout").
//
// Campus-at-scale layout (DESIGN.md §9): the table is the controller's
// biggest state component — O(hosts) records for up to millions of hosts —
// and the bottleneck of every packet-in, so it is built as one partition:
//
//  - arena-backed interned records: records live in fixed-size chunks
//    addressed by a 32-bit slot handle. Chunks never move, so find()
//    pointers stay valid until the record itself is removed; freed slots
//    are recycled through an intrusive free list;
//  - flat-hash indexes: MAC -> slot, IP -> MAC and dpid -> chain head are
//    open-addressing FlatHashMaps (no per-entry heap nodes);
//  - a per-dpid intrusive chain through the records, making
//    remove_switch() and size_on_switch() O(hosts-on-that-switch);
//  - an amortized timeout wheel (same technique as of::FlowTable):
//    expire() visits only due deadline buckets instead of scanning every
//    host, and touch()/learn() refresh lazily — a stale wheel record
//    re-files itself when its bucket fires.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/flat_hash.h"
#include "common/ip_address.h"
#include "common/mac_address.h"
#include "common/types.h"

namespace livesec::ctrl {

/// Location record of one periphery host (user machine, SE VM or gateway).
struct HostLocation {
  MacAddress mac;
  Ipv4Address ip;
  DatapathId dpid = 0;    // AS switch the host hangs off
  PortId port = kInvalidPort;  // the Network-Periphery port on that switch
  SimTime first_seen = 0;
  SimTime last_seen = 0;
};

/// MAC-keyed host location map with IP secondary index and idle expiry.
class RoutingTable {
 public:
  /// Hosts idle longer than this are expired by expire(); mirrors the ARP
  /// cache timeout of the paper.
  explicit RoutingTable(SimTime host_timeout = 120 * kSecond);

  RoutingTable(RoutingTable&&) = default;
  RoutingTable& operator=(RoutingTable&&) = default;

  /// Inserts or refreshes a host; returns true when the host is new or moved
  /// to a different attachment point (the caller raises join/move events).
  /// When an IP is re-leased from one MAC to another, the previous holder's
  /// record loses the address (the IP index always names the latest owner).
  bool learn(const MacAddress& mac, Ipv4Address ip, DatapathId dpid, PortId port, SimTime now);

  /// Refreshes last_seen only (any data-plane evidence of liveness). The
  /// timeout wheel is not touched here: the stale wheel record re-files
  /// itself when its bucket fires.
  void touch(const MacAddress& mac, SimTime now);

  /// Pointers remain valid until that host's record is removed (arena
  /// chunks never move), but not across the removal itself.
  const HostLocation* find(const MacAddress& mac) const;
  const HostLocation* find_by_ip(Ipv4Address ip) const;

  /// Removes a specific host (e.g. explicit leave). Returns true if present.
  bool remove(const MacAddress& mac);

  /// Removes all hosts idle past the timeout; returns the removed records
  /// in deadline-bucket order. Cost is proportional to due wheel buckets,
  /// not to table size.
  std::vector<HostLocation> expire(SimTime now);

  /// Removes all hosts attached to a dead switch; returns removed records.
  /// O(hosts-on-switch) via the per-dpid chains.
  std::vector<HostLocation> remove_switch(DatapathId dpid);

  std::size_t size() const { return total_; }
  std::vector<HostLocation> all() const;

  /// Visits every record (unordered) without materializing a snapshot.
  template <typename F>
  void for_each(F&& fn) const {
    for (std::uint32_t slot = 0; slot < arena_size_; ++slot) {
      const Record& rec = record_at(slot);
      if (rec.live) fn(rec.loc);
    }
  }

  /// Bumped whenever a location mapping changes (new host, move, removal,
  /// expiry, or an IP re-lease — anything that can invalidate an IP- or
  /// MAC-keyed decision) — NOT on touch(). Decision caches compare this to
  /// detect that a memoized path went stale.
  std::uint64_t version() const { return version_; }

  // --- scale observability (WebUI, bench_scale, tests) -----------------------

  /// Hosts currently attached to `dpid` (chain walk, O(result)).
  std::size_t size_on_switch(DatapathId dpid) const;

  /// Total footprint: arena, MAC/dpid/IP indexes and wheel records.
  std::size_t memory_bytes() const;

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  /// Records per arena chunk. Small chunks (16 KiB) keep a controller with
  /// a handful of hosts small, as the session slab's chunks do; growth
  /// never moves a record either way.
  static constexpr std::uint32_t kChunkSlots = 256;

  struct Record {
    HostLocation loc;
    std::uint32_t dpid_prev = kNil;  // intrusive per-dpid chain
    std::uint32_t dpid_next = kNil;  // doubles as the free-list link
    /// Epoch of this record's live timer-wheel filing; a fired wheel entry
    /// whose epoch doesn't match is stale (record removed or re-filed).
    std::uint32_t wheel_epoch = 0;
    bool live = false;
  };

  Record& record_at(std::uint32_t slot) { return chunks_[slot / kChunkSlots][slot % kChunkSlots]; }
  const Record& record_at(std::uint32_t slot) const {
    return chunks_[slot / kChunkSlots][slot % kChunkSlots];
  }

  std::uint32_t allocate_slot();
  void free_slot(std::uint32_t slot);

  void link_dpid(std::uint32_t slot);
  void unlink_dpid(std::uint32_t slot);

  /// Quantizes a deadline up to the wheel granularity.
  SimTime wheel_bucket(SimTime deadline) const;
  /// Files (or re-files) the record's wheel entry at its current deadline.
  void file_in_wheel(std::uint32_t slot);

  /// Points the IP index at `mac48`, clearing the address from the previous
  /// holder's record (DHCP re-lease: the index must always name the latest
  /// owner, and the loser's removal must not erase the winner's entry).
  void assign_ip(Ipv4Address ip, std::uint64_t mac48);
  /// Drops the IP index entry only when it still names `mac48`.
  void release_ip(Ipv4Address ip, std::uint64_t mac48);

  /// Shared removal path: unindexes, unlinks and frees one record.
  /// `from_chain_walk` skips the dpid unlink (remove_switch drains chains
  /// wholesale). Does NOT bump version_ — callers batch that.
  HostLocation remove_slot(std::uint32_t slot, bool from_chain_walk);

  SimTime timeout_;
  SimTime wheel_granularity_;
  std::uint64_t version_ = 0;
  std::vector<std::unique_ptr<Record[]>> chunks_;
  std::uint32_t arena_size_ = 0;  // slots ever allocated
  std::uint32_t free_head_ = kNil;
  std::size_t total_ = 0;         // live records
  FlatHashMap<std::uint64_t, std::uint32_t> by_mac_;     // mac48 -> slot
  FlatHashMap<std::uint64_t, std::uint32_t> dpid_head_;  // dpid -> chain head
  /// IP secondary index: ip -> mac48 of the owner.
  FlatHashMap<std::uint32_t, std::uint64_t> by_ip_;
  /// Timer wheel: quantized deadline -> (slot, epoch) records filed there.
  std::map<SimTime, std::vector<std::pair<std::uint32_t, std::uint32_t>>> wheel_;
};

}  // namespace livesec::ctrl
