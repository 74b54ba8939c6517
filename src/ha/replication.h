// Active-standby state replication for the LiveSec controller.
//
// The paper's controller (§III.C) is one NOX process holding every piece of
// security-relevant state: host locations, the policy table, the SE registry,
// blocked flows, DHCP leases and the AS-layer link table. This module defines
// the versioned record stream through which an active controller mirrors that
// state to standbys, plus the log/snapshot machinery that lets a standby
// bootstrap and catch up after loss.
//
// Design:
//  - Every state mutation on the active is one `RecordBody`. Records ship in
//    group-commit frames (a format version, a base sequence number and the
//    bodies; record `i` of a frame carries seq `base_seq + i`).
//  - `ReplicationLog` retains decoded `RecordBody`s for retransmission, only
//    back to the slowest standby's applied position; a snapshot (the full
//    state re-expressed *as records*) bootstraps a standby that fell behind
//    the truncation point. Snapshot import is therefore just "apply each
//    contained record", so the bootstrap path and the incremental path share
//    one code path.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/fuzzy_digest.h"
#include "common/ip_address.h"
#include "common/shared_blob.h"
#include "common/mac_address.h"
#include "common/types.h"
#include "controller/policy.h"
#include "packet/buffer.h"
#include "packet/flow_key.h"
#include "services/message.h"

namespace livesec::ha {

/// Bumped when the record wire format changes; a standby refuses frames
/// carrying a different version (mixed-version clusters resync via snapshot).
/// v2 introduced group-commit frames (varint-packed, per-frame MAC/dpid
/// dictionaries); v3 dropped the sealed-segment event record (type 22):
/// events reach a standby only as row batches.
inline constexpr std::uint16_t kReplicationFormatVersion = 3;

/// Marker byte after the format version that opens every frame.
inline constexpr std::uint8_t kFrameMagic = 0xF7;

// --- record bodies -----------------------------------------------------------

/// A host (or SE NIC) was learned or refreshed at an attachment point.
struct HostLearnedRecord {
  MacAddress mac;
  Ipv4Address ip;
  DatapathId dpid = 0;
  PortId port = kInvalidPort;
  SimTime seen_at = 0;
};

/// A host left (explicit removal or ARP expiry).
struct HostRemovedRecord {
  MacAddress mac;
};

/// A switch's Legacy-Switching uplink port (configured or LLDP-learned).
struct LsPortRecord {
  DatapathId dpid = 0;
  PortId port = kInvalidPort;
};

/// An AS-layer link discovered via LLDP.
struct LinkRecord {
  DatapathId src = 0;
  PortId src_port = kInvalidPort;
  DatapathId dst = 0;
  PortId dst_port = kInvalidPort;
};

/// A policy was added (carries the full policy, id included, so replay via
/// PolicyTable::add reproduces the same id).
struct PolicyAddedRecord {
  ctrl::Policy policy;
};

struct PolicyRemovedRecord {
  std::uint32_t id = 0;
};

struct DefaultActionRecord {
  ctrl::PolicyAction action = ctrl::PolicyAction::kAllow;
};

/// An SE came online, refreshed, or migrated (latest attachment point wins).
struct SeUpsertRecord {
  std::uint64_t se_id = 0;
  MacAddress mac;
  Ipv4Address ip;
  svc::ServiceType service = svc::ServiceType::kIntrusionDetection;
  DatapathId dpid = 0;
  PortId port = kInvalidPort;
  SimTime seen_at = 0;
};

struct SeRemovedRecord {
  std::uint64_t se_id = 0;
};

/// A flow was blocked by a security event (attack/virus/content/firewall or
/// aggregate limit). The ingress is carried so a promoted standby can
/// re-install the drop entry without waiting for the flow's next packet-in.
struct FlowBlockedRecord {
  pkt::FlowKey key;
  DatapathId ingress_dpid = 0;
  PortId ingress_port = kInvalidPort;
};

struct FlowUnblockedRecord {
  pkt::FlowKey key;
};

/// DHCP pool configuration (emitted on enable_dhcp and in snapshots, so a
/// standby can serve leases without out-of-band configuration).
struct DhcpConfigRecord {
  Ipv4Address base;
  std::uint32_t size = 0;
  SimTime lease_duration = 0;
};

struct DhcpLeaseRecord {
  MacAddress mac;
  Ipv4Address ip;
  SimTime expires = 0;
};

struct DhcpReleaseRecord {
  MacAddress mac;
};

/// A switch completed its channel handshake on the active.
struct SwitchUpRecord {
  DatapathId dpid = 0;
  std::uint32_t num_ports = 0;
  std::string name;
};

struct SwitchDownRecord {
  DatapathId dpid = 0;
};

/// A flow earned a benign verdict and was cut through past its service chain
/// (§IV.A fast path). Replicated so a promoted standby re-installs the
/// direct path — never the stale redirect — when the flow next sets up.
struct FlowOffloadedRecord {
  pkt::FlowKey key;
  std::uint64_t inspected_bytes = 0;
};

/// An offloaded flow lost its cut-through (blocked, invalidated, or ended).
struct FlowOnloadedRecord {
  pkt::FlowKey key;
};

/// The active learned a firsthand scan verdict into the shared fuzzy-hash
/// verdict cache (DESIGN.md §11). Replicated so a promoted standby's cache
/// serves the same verdicts the active's did.
struct VerdictLearnedRecord {
  FuzzyDigest digest;
  std::uint8_t verdict = 0;  // svc::CachedVerdict wire value
  std::uint32_t rule_id = 0;
  std::uint8_t severity = 0;
  std::uint64_t inspected_bytes = 0;
};

/// The active bumped the verdict-cache epoch (policy mutation, SE pool or
/// signature change, failover). Standbys raise their cache epoch to at least
/// this value so promotion never replays verdicts learned under a dead world.
struct VerdictCacheEpochRecord {
  std::uint64_t epoch = 0;
};

/// A batch of raised events (mon::EventPipeline::encode_rows blob, ids
/// assigned by the active). This is the only form in which events reach a
/// standby: live replication ships one per `event_replication_batch` rows,
/// and a full-state export carries one per sealed segment plus one for the
/// open tail. The payload is refcounted: the log, the snapshot store and
/// frames all hold the same buffer.
struct EventBatchRecord {
  SharedBlob blob;
};

using RecordBody =
    std::variant<HostLearnedRecord, HostRemovedRecord, LsPortRecord, LinkRecord,
                 PolicyAddedRecord, PolicyRemovedRecord, DefaultActionRecord, SeUpsertRecord,
                 SeRemovedRecord, FlowBlockedRecord, FlowUnblockedRecord, DhcpConfigRecord,
                 DhcpLeaseRecord, DhcpReleaseRecord, SwitchUpRecord, SwitchDownRecord,
                 FlowOffloadedRecord, FlowOnloadedRecord, VerdictLearnedRecord,
                 VerdictCacheEpochRecord, EventBatchRecord>;

const char* record_name(const RecordBody& body);

/// One replicated record with its sequence number (log entry, delivery).
struct ReplicationRecord {
  std::uint64_t seq = 0;
  RecordBody body;
};

// --- group-commit frames -----------------------------------------------------

/// A flush window's worth of records sharing one wire frame and one delivery
/// event per standby. Sequence numbers are implicit and consecutive: record
/// `i` carries seq `base_seq + i`.
struct ReplicationFrame {
  std::uint64_t base_seq = 0;
  std::vector<RecordBody> records;
};

/// Frame wire form: {u16 version, u8 frame magic, varint base_seq, varint
/// count, MAC dictionary, dpid dictionary, bodies}. Repeated MACs/dpids cost
/// a 1-byte dictionary reference instead of 8 raw bytes; counters and
/// timestamps are LEB128 varints.
std::vector<std::uint8_t> encode_frame(const ReplicationFrame& frame);

/// Returns nullopt on version/magic mismatch, a dangling dictionary
/// reference, a malformed body, or trailing bytes.
std::optional<ReplicationFrame> decode_frame(std::span<const std::uint8_t> bytes);

// --- sink --------------------------------------------------------------------

/// Where an active controller publishes its state mutations. The controller
/// calls this synchronously at every mutation site; the cluster assigns the
/// sequence number and fans the record out to standbys.
class ReplicationSink {
 public:
  virtual ~ReplicationSink() = default;
  virtual void replicate(RecordBody body) = 0;
};

// --- log + snapshot ----------------------------------------------------------

/// A full-state snapshot is the active's state re-expressed as records;
/// importing = applying each record in order onto a reset controller. Wire
/// form: {u16 version, u32 count, fixed-width bodies}.
std::vector<std::uint8_t> encode_snapshot_records(const std::vector<RecordBody>& records);
std::optional<std::vector<RecordBody>> decode_snapshot_records(
    std::span<const std::uint8_t> bytes);

/// Ordered record retention for catch-up. Appends assign sequence numbers;
/// `since()` serves catch-up requests from lagging standbys; `truncate()`
/// discards the prefix no standby needs any more.
class ReplicationLog {
 public:
  /// Appends a record, assigning the next sequence number (returned).
  std::uint64_t append(RecordBody body);

  /// Records with seq > after_seq, oldest first. Returns nullopt when the
  /// span was truncated away (caller must bootstrap from a snapshot).
  /// Materializes a copy; the resync/catch-up hot paths use visit_since.
  std::optional<std::vector<ReplicationRecord>> since(std::uint64_t after_seq) const;

  /// True when every record past after_seq is still retained (i.e. since /
  /// visit_since can serve the span without a snapshot bootstrap).
  bool reaches(std::uint64_t after_seq) const { return after_seq >= truncated_through_; }

  /// Visits retained records with seq > after_seq oldest-first, in place —
  /// no copy. Retained seqs are consecutive, so the start is located O(1).
  /// Returns false (visiting nothing) when the span was truncated away.
  template <typename Visitor>
  bool visit_since(std::uint64_t after_seq, Visitor&& visit) const {
    if (!reaches(after_seq)) return false;
    if (records_.empty()) return true;
    const std::uint64_t front_seq = records_.front().seq;
    std::size_t start = 0;
    if (after_seq >= front_seq) start = static_cast<std::size_t>(after_seq - front_seq) + 1;
    for (std::size_t i = start; i < records_.size(); ++i) visit(records_[i]);
    return true;
  }

  /// Drops records with seq <= through_seq.
  void truncate(std::uint64_t through_seq);

  /// Highest sequence number truncate() has dropped (0 = never truncated).
  std::uint64_t truncated_through() const { return truncated_through_; }
  /// Sequence number of the newest appended record (0 = none yet).
  std::uint64_t head_seq() const { return next_seq_ - 1; }
  /// Oldest retained sequence number (0 = log is empty).
  std::uint64_t base_seq() const { return records_.empty() ? 0 : records_.front().seq; }
  std::size_t size() const { return records_.size(); }

 private:
  std::uint64_t next_seq_ = 1;
  /// Highest sequence number dropped by truncate(); since() requests at or
  /// below it must bootstrap from a snapshot even when the log is empty.
  std::uint64_t truncated_through_ = 0;
  std::deque<ReplicationRecord> records_;
};

}  // namespace livesec::ha
