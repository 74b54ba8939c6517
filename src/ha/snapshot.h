// Incremental snapshot store (DESIGN.md §13). The PR-4 snapshot tick called
// Controller::export_state() — a full-state walk — every interval, whether or
// not any standby would ever bootstrap. The store replaces that: every record
// the cluster commits to the log is *folded* into a keyed last-writer-wins
// entry map as it is appended, so the snapshot horizon advances in O(records
// since last tick) and materializing bootstrap records is only paid when a
// standby actually needs them.
//
// Folding reproduces standby-apply semantics (a bootstrap import is
// "apply each record onto a reset controller", exactly like the live stream):
//  - host learns / DHCP leases / SE upserts / policies / switch state / flow
//    verdicts are keyed upserts; their removal records erase the key;
//  - IP ownership is tracked per domain (host table, DHCP pool): folding a
//    learn that takes an IP from another MAC clears the IP on the displaced
//    entry, mirroring what applying both records in order would leave behind;
//  - a SwitchDown erases the switch and its links but keeps the LS-uplink
//    hint, matching Controller::apply_replicated;
//  - a DHCP reconfiguration drops every folded lease (applying it resets the
//    pool);
//  - a verdict-cache epoch bump keeps the max epoch and drops folded verdict
//    entries (they were learned under a dead world);
//  - event batches queue in id order; the oldest drop off while the rest
//    still hold the event bound, (full_segments + 2) * segment_rows of the
//    active's pipeline. An importer then re-seals the active's full tier
//    exactly: segment boundaries and staging drains depend on ids alone
//    (column_store.h, EventPipeline::stage), and the one short segment the
//    retained rows start with falls past the full tier. An unbounded
//    pipeline (bound 0) keeps every batch.
//
// Export order mirrors Controller::export_state: config, switches, LS ports,
// links, hosts, SEs, default action, policies, blocked/offloaded flows,
// leases, verdict epoch + entries, then event batches in id order.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>
#include <vector>

#include "ha/replication.h"
#include "monitor/event_pipeline.h"

namespace livesec::ha {

class SnapshotStore {
 public:
  struct Stats {
    std::uint64_t records_folded = 0;
    std::uint64_t entries_erased = 0;     // removals/fences that hit a key
    std::uint64_t ips_displaced = 0;      // displaced-owner IP clears
    std::uint64_t batches_compacted = 0;  // event batches trimmed to the bound
    std::uint64_t fold_failures = 0;      // undecodable event blobs skipped
  };

  /// `event_rows`: rows of event batches to retain (0 = every batch).
  explicit SnapshotStore(std::size_t event_rows = 0) : event_rows_(event_rows) {}

  /// The event bound that lets an importer with this pipeline config rebuild
  /// the active's full tier: (full_segments + 2) * segment_rows, or 0 for an
  /// unbounded pipeline.
  static std::size_t event_rows_for(const mon::EventPipeline::Config& events);

  /// Folds one committed record into the store. Call in commit (log) order.
  void fold(const RecordBody& body);

  /// Materializes the folded state as an importable record stream.
  std::vector<RecordBody> export_records() const;

  std::size_t entry_count() const { return entries_.size(); }
  std::size_t event_batch_count() const { return batches_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  /// Entry-map domains, ordered exactly like Controller::export_state emits.
  enum class Domain : std::uint8_t {
    kDhcpConfig = 0,
    kSwitch,
    kLsPort,
    kLink,
    kHost,
    kSe,
    kDefaultAction,
    kPolicy,
    kBlockedFlow,
    kOffloadedFlow,
    kDhcpLease,
    kVerdictEpoch,
    kVerdict,
  };

  struct Key {
    std::uint8_t domain = 0;
    std::array<std::uint64_t, 4> k{};
    bool operator<(const Key& other) const {
      if (domain != other.domain) return domain < other.domain;
      return k < other.k;
    }
  };

  static Key key1(Domain domain, std::uint64_t k0) { return Key{static_cast<std::uint8_t>(domain), {k0, 0, 0, 0}}; }
  static Key flow_key(Domain domain, const pkt::FlowKey& key);

  void erase_domain(Domain domain);
  void fold_host(const HostLearnedRecord& host);
  void fold_lease(const DhcpLeaseRecord& lease);
  void fold_switch_down(const SwitchDownRecord& down);
  void fold_event_batch(const EventBatchRecord& batch);

  std::size_t event_rows_ = 0;
  Stats stats_;
  std::map<Key, RecordBody> entries_;

  // ip -> owning mac and mac -> ip, per IP-ownership domain.
  std::unordered_map<std::uint32_t, std::uint64_t> host_ip_owner_;
  std::unordered_map<std::uint64_t, std::uint32_t> host_ip_of_;
  std::unordered_map<std::uint32_t, std::uint64_t> lease_ip_owner_;
  std::unordered_map<std::uint64_t, std::uint32_t> lease_ip_of_;

  std::uint64_t verdict_epoch_ = 0;

  /// (row count, batch) in id order.
  std::deque<std::pair<std::uint32_t, EventBatchRecord>> batches_;
  std::size_t batch_rows_ = 0;
};

}  // namespace livesec::ha
