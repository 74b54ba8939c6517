#include "ha/snapshot.h"

#include <algorithm>
#include <cstring>

namespace livesec::ha {

namespace {

std::uint64_t fnv1a64(const std::uint32_t* words, std::size_t count) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < count; ++i) {
    h ^= words[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Digest identity: exact + byte-sketch hashes verbatim, the 8 similarity
/// lanes folded to one word. Two digests collide only if both 64-bit hashes
/// AND the lane fold agree — below any practical cache size.
std::array<std::uint64_t, 4> digest_key(const FuzzyDigest& digest) {
  return {digest.exact, digest.bytes,
          fnv1a64(digest.sketch.data(), digest.sketch.size()), 0};
}

}  // namespace

SnapshotStore::Key SnapshotStore::flow_key(Domain domain, const pkt::FlowKey& key) {
  // The 29-byte wire encoding padded into four words: exact, collision-free.
  pkt::BufferWriter w;
  key.encode(w);
  const std::vector<std::uint8_t> bytes = w.take();
  Key out{static_cast<std::uint8_t>(domain), {}};
  std::memcpy(out.k.data(), bytes.data(), std::min(bytes.size(), sizeof(out.k)));
  return out;
}

void SnapshotStore::erase_domain(Domain domain) {
  const auto begin = entries_.lower_bound(Key{static_cast<std::uint8_t>(domain), {}});
  auto end = begin;
  while (end != entries_.end() && end->first.domain == static_cast<std::uint8_t>(domain)) {
    ++end;
    ++stats_.entries_erased;
  }
  entries_.erase(begin, end);
}

void SnapshotStore::fold_host(const HostLearnedRecord& host) {
  const std::uint64_t mac = host.mac.to_uint64();
  // Retire this MAC's previous IP claim.
  if (const auto prev = host_ip_of_.find(mac); prev != host_ip_of_.end()) {
    if (const auto owner = host_ip_owner_.find(prev->second);
        owner != host_ip_owner_.end() && owner->second == mac) {
      host_ip_owner_.erase(owner);
    }
    host_ip_of_.erase(prev);
  }
  if (host.ip.value() != 0) {
    // Applying this record displaces any other holder of the IP: the routing
    // table clears the previous owner's address. Mirror that on its entry.
    if (const auto owner = host_ip_owner_.find(host.ip.value());
        owner != host_ip_owner_.end() && owner->second != mac) {
      if (const auto it = entries_.find(key1(Domain::kHost, owner->second));
          it != entries_.end()) {
        std::get<HostLearnedRecord>(it->second).ip = Ipv4Address{};
        ++stats_.ips_displaced;
      }
      host_ip_of_.erase(owner->second);
    }
    host_ip_owner_[host.ip.value()] = mac;
    host_ip_of_[mac] = host.ip.value();
  }
  entries_[key1(Domain::kHost, mac)] = host;
}

void SnapshotStore::fold_lease(const DhcpLeaseRecord& lease) {
  const std::uint64_t mac = lease.mac.to_uint64();
  if (const auto prev = lease_ip_of_.find(mac); prev != lease_ip_of_.end()) {
    if (const auto owner = lease_ip_owner_.find(prev->second);
        owner != lease_ip_owner_.end() && owner->second == mac) {
      lease_ip_owner_.erase(owner);
    }
    lease_ip_of_.erase(prev);
  }
  // An IP re-leased to a new MAC evicts the old lease outright (pool
  // semantics: one lease per address).
  if (const auto owner = lease_ip_owner_.find(lease.ip.value());
      owner != lease_ip_owner_.end() && owner->second != mac) {
    if (entries_.erase(key1(Domain::kDhcpLease, owner->second)) > 0) ++stats_.entries_erased;
    lease_ip_of_.erase(owner->second);
  }
  lease_ip_owner_[lease.ip.value()] = mac;
  lease_ip_of_[mac] = lease.ip.value();
  entries_[key1(Domain::kDhcpLease, mac)] = lease;
}

void SnapshotStore::fold_switch_down(const SwitchDownRecord& down) {
  if (entries_.erase(key1(Domain::kSwitch, down.dpid)) > 0) ++stats_.entries_erased;
  // Links die with the switch; the LS-uplink hint survives (apply keeps
  // the learned uplink so a reconnecting switch routes legacy traffic immediately).
  const auto begin = entries_.lower_bound(Key{static_cast<std::uint8_t>(Domain::kLink), {}});
  for (auto it = begin;
       it != entries_.end() && it->first.domain == static_cast<std::uint8_t>(Domain::kLink);) {
    if (it->first.k[0] == down.dpid || it->first.k[1] == down.dpid) {
      it = entries_.erase(it);
      ++stats_.entries_erased;
    } else {
      ++it;
    }
  }
}

std::size_t SnapshotStore::event_rows_for(const mon::EventPipeline::Config& events) {
  return events.full_segments == 0 ? 0 : (events.full_segments + 2) * events.segment_rows;
}

void SnapshotStore::fold_event_batch(const EventBatchRecord& batch) {
  // A header read, not a decode: folding runs on the active's flush path,
  // so the rows must never be materialized here.
  const auto rows = mon::EventPipeline::peek_rows(batch.blob);
  if (!rows || *rows == 0) {
    if (!rows) ++stats_.fold_failures;
    return;
  }
  batches_.emplace_back(*rows, batch);
  batch_rows_ += *rows;
  if (event_rows_ == 0) return;
  while (batch_rows_ - batches_.front().first >= event_rows_) {
    batch_rows_ -= batches_.front().first;
    batches_.pop_front();
    ++stats_.batches_compacted;
  }
}

void SnapshotStore::fold(const RecordBody& body) {
  ++stats_.records_folded;
  if (const auto* host = std::get_if<HostLearnedRecord>(&body)) {
    fold_host(*host);
  } else if (const auto* gone = std::get_if<HostRemovedRecord>(&body)) {
    const std::uint64_t mac = gone->mac.to_uint64();
    if (entries_.erase(key1(Domain::kHost, mac)) > 0) ++stats_.entries_erased;
    if (const auto prev = host_ip_of_.find(mac); prev != host_ip_of_.end()) {
      if (const auto owner = host_ip_owner_.find(prev->second);
          owner != host_ip_owner_.end() && owner->second == mac) {
        host_ip_owner_.erase(owner);
      }
      host_ip_of_.erase(prev);
    }
  } else if (const auto* ls = std::get_if<LsPortRecord>(&body)) {
    entries_[key1(Domain::kLsPort, ls->dpid)] = body;
  } else if (const auto* link = std::get_if<LinkRecord>(&body)) {
    entries_[Key{static_cast<std::uint8_t>(Domain::kLink),
                 {link->src, link->dst,
                  (static_cast<std::uint64_t>(link->src_port) << 32) | link->dst_port, 0}}] =
        body;
  } else if (const auto* policy = std::get_if<PolicyAddedRecord>(&body)) {
    entries_[key1(Domain::kPolicy, policy->policy.id)] = body;
  } else if (const auto* policy_gone = std::get_if<PolicyRemovedRecord>(&body)) {
    if (entries_.erase(key1(Domain::kPolicy, policy_gone->id)) > 0) ++stats_.entries_erased;
  } else if (std::get_if<DefaultActionRecord>(&body) != nullptr) {
    entries_[key1(Domain::kDefaultAction, 0)] = body;
  } else if (const auto* se = std::get_if<SeUpsertRecord>(&body)) {
    entries_[key1(Domain::kSe, se->se_id)] = body;
  } else if (const auto* se_gone = std::get_if<SeRemovedRecord>(&body)) {
    if (entries_.erase(key1(Domain::kSe, se_gone->se_id)) > 0) ++stats_.entries_erased;
  } else if (const auto* blocked = std::get_if<FlowBlockedRecord>(&body)) {
    entries_[flow_key(Domain::kBlockedFlow, blocked->key)] = body;
  } else if (const auto* unblocked = std::get_if<FlowUnblockedRecord>(&body)) {
    if (entries_.erase(flow_key(Domain::kBlockedFlow, unblocked->key)) > 0) {
      ++stats_.entries_erased;
    }
  } else if (const auto* dhcp = std::get_if<DhcpConfigRecord>(&body)) {
    // Apply re-creates the pool only on an actual change — and doing so wipes
    // every lease. Mirror both halves.
    const auto it = entries_.find(key1(Domain::kDhcpConfig, 0));
    const bool changed = [&] {
      if (it == entries_.end()) return true;
      const auto& prev = std::get<DhcpConfigRecord>(it->second);
      return prev.base != dhcp->base || prev.size != dhcp->size ||
             prev.lease_duration != dhcp->lease_duration;
    }();
    if (changed) {
      erase_domain(Domain::kDhcpLease);
      lease_ip_owner_.clear();
      lease_ip_of_.clear();
    }
    entries_[key1(Domain::kDhcpConfig, 0)] = body;
  } else if (const auto* lease = std::get_if<DhcpLeaseRecord>(&body)) {
    fold_lease(*lease);
  } else if (const auto* release = std::get_if<DhcpReleaseRecord>(&body)) {
    const std::uint64_t mac = release->mac.to_uint64();
    if (entries_.erase(key1(Domain::kDhcpLease, mac)) > 0) ++stats_.entries_erased;
    if (const auto prev = lease_ip_of_.find(mac); prev != lease_ip_of_.end()) {
      if (const auto owner = lease_ip_owner_.find(prev->second);
          owner != lease_ip_owner_.end() && owner->second == mac) {
        lease_ip_owner_.erase(owner);
      }
      lease_ip_of_.erase(prev);
    }
  } else if (const auto* up = std::get_if<SwitchUpRecord>(&body)) {
    entries_[key1(Domain::kSwitch, up->dpid)] = body;
  } else if (const auto* down = std::get_if<SwitchDownRecord>(&body)) {
    fold_switch_down(*down);
  } else if (const auto* offloaded = std::get_if<FlowOffloadedRecord>(&body)) {
    entries_[flow_key(Domain::kOffloadedFlow, offloaded->key)] = body;
  } else if (const auto* onloaded = std::get_if<FlowOnloadedRecord>(&body)) {
    if (entries_.erase(flow_key(Domain::kOffloadedFlow, onloaded->key)) > 0) {
      ++stats_.entries_erased;
    }
  } else if (const auto* verdict = std::get_if<VerdictLearnedRecord>(&body)) {
    entries_[Key{static_cast<std::uint8_t>(Domain::kVerdict), digest_key(verdict->digest)}] =
        body;
  } else if (const auto* epoch = std::get_if<VerdictCacheEpochRecord>(&body)) {
    if (epoch->epoch > verdict_epoch_) {
      verdict_epoch_ = epoch->epoch;
      // Entries learned under an older epoch no longer serve; drop them.
      erase_domain(Domain::kVerdict);
    }
    entries_[key1(Domain::kVerdictEpoch, 0)] = VerdictCacheEpochRecord{verdict_epoch_};
  } else if (const auto* batch = std::get_if<EventBatchRecord>(&body)) {
    fold_event_batch(*batch);
  }
}

std::vector<RecordBody> SnapshotStore::export_records() const {
  std::vector<RecordBody> out;
  out.reserve(entries_.size() + batches_.size());
  // The map is keyed (domain, id) with domains in Controller::export_state
  // order, so a single pass emits config before leases, the epoch before
  // verdict entries, and switches before everything that routes over them.
  for (const auto& [key, body] : entries_) out.push_back(body);
  for (const auto& [rows, batch] : batches_) out.push_back(batch);
  return out;
}

}  // namespace livesec::ha
