#include "ha/pipeline.h"

#include <variant>

namespace livesec::ha {

namespace {

/// Rough wire cost of a record inside a frame, for the flush-bytes
/// threshold. Deliberately cheap (no encoding): a few bytes of slack per
/// record only shifts the flush boundary, never correctness.
std::size_t approx_record_bytes(const RecordBody& body) {
  struct Sizer {
    std::size_t operator()(const HostLearnedRecord&) { return 16; }
    std::size_t operator()(const HostRemovedRecord&) { return 3; }
    std::size_t operator()(const LsPortRecord&) { return 4; }
    std::size_t operator()(const LinkRecord&) { return 8; }
    std::size_t operator()(const PolicyAddedRecord& r) { return 32 + r.policy.name.size(); }
    std::size_t operator()(const PolicyRemovedRecord&) { return 4; }
    std::size_t operator()(const DefaultActionRecord&) { return 2; }
    std::size_t operator()(const SeUpsertRecord&) { return 20; }
    std::size_t operator()(const SeRemovedRecord&) { return 4; }
    std::size_t operator()(const FlowBlockedRecord&) { return 34; }
    std::size_t operator()(const FlowUnblockedRecord&) { return 30; }
    std::size_t operator()(const DhcpConfigRecord&) { return 12; }
    std::size_t operator()(const DhcpLeaseRecord&) { return 14; }
    std::size_t operator()(const DhcpReleaseRecord&) { return 3; }
    std::size_t operator()(const SwitchUpRecord& r) { return 8 + r.name.size(); }
    std::size_t operator()(const SwitchDownRecord&) { return 3; }
    std::size_t operator()(const FlowOffloadedRecord&) { return 36; }
    std::size_t operator()(const FlowOnloadedRecord&) { return 30; }
    std::size_t operator()(const VerdictLearnedRecord&) { return 48; }
    std::size_t operator()(const VerdictCacheEpochRecord&) { return 4; }
    std::size_t operator()(const EventBatchRecord& r) { return 4 + r.blob.size(); }
  };
  return std::visit(Sizer{}, body);
}

}  // namespace

bool ReplicationPipeline::add(RecordBody body) {
  ++stats_.records_buffered;
  bytes_ += approx_record_bytes(body);

  index_record(body, pending_.size());
  pending_.push_back(Pending{std::move(body), true});
  ++live_;

  const bool due = live_ >= config_.flush_records || bytes_ >= config_.flush_bytes;
  if (due) ++stats_.size_flushes;
  return due;
}

void ReplicationPipeline::index_record(const RecordBody& body, std::size_t index) {
  const auto key_of = [](Domain domain, std::uint64_t id) {
    return std::make_pair(static_cast<std::uint8_t>(domain), id);
  };
  const auto coalesce_into = [this, index](std::pair<std::uint8_t, std::uint64_t> key,
                                           std::uint64_t aux_mac, std::uint32_t aux_ip,
                                           bool side_effects_match) {
    auto [it, fresh] = keys_.try_emplace(key);
    if (!fresh && side_effects_match && pending_[it->second.index].alive) {
      // Pure refresh: the earlier record is fully superseded by this one.
      pending_[it->second.index].alive = false;
      --live_;
      ++stats_.records_coalesced;
    }
    it->second = Slot{index, aux_mac, aux_ip};
  };

  if (const auto* host = std::get_if<HostLearnedRecord>(&body)) {
    const auto key = key_of(Domain::kHost, host->mac.to_uint64());
    const auto it = keys_.find(key);
    const bool match = it != keys_.end() && it->second.aux_ip == host->ip.value();
    coalesce_into(key, 0, host->ip.value(), match);
  } else if (const auto* gone = std::get_if<HostRemovedRecord>(&body)) {
    keys_.erase(key_of(Domain::kHost, gone->mac.to_uint64()));
  } else if (const auto* lease = std::get_if<DhcpLeaseRecord>(&body)) {
    const auto key = key_of(Domain::kDhcpLease, lease->mac.to_uint64());
    const auto it = keys_.find(key);
    const bool match = it != keys_.end() && it->second.aux_ip == lease->ip.value();
    coalesce_into(key, 0, lease->ip.value(), match);
  } else if (const auto* release = std::get_if<DhcpReleaseRecord>(&body)) {
    keys_.erase(key_of(Domain::kDhcpLease, release->mac.to_uint64()));
  } else if (std::get_if<DhcpConfigRecord>(&body) != nullptr) {
    // Applying a pool reconfiguration resets every lease: fence the domain.
    for (auto it = keys_.begin(); it != keys_.end();) {
      if (it->first.first == static_cast<std::uint8_t>(Domain::kDhcpLease)) {
        it = keys_.erase(it);
      } else {
        ++it;
      }
    }
  } else if (const auto* se = std::get_if<SeUpsertRecord>(&body)) {
    const auto key = key_of(Domain::kSe, se->se_id);
    const auto it = keys_.find(key);
    const bool match = it != keys_.end() && it->second.aux_mac == se->mac.to_uint64() &&
                       it->second.aux_ip == se->ip.value();
    coalesce_into(key, se->mac.to_uint64(), se->ip.value(), match);
  } else if (const auto* se_gone = std::get_if<SeRemovedRecord>(&body)) {
    keys_.erase(key_of(Domain::kSe, se_gone->se_id));
  }
  // Every other record type neither coalesces nor fences: it is
  // order-independent of the per-key refresh streams above.
}

std::vector<RecordBody> ReplicationPipeline::take() {
  std::vector<RecordBody> out;
  out.reserve(live_);
  for (Pending& p : pending_) {
    if (p.alive) out.push_back(std::move(p.body));
  }
  pending_.clear();
  keys_.clear();
  live_ = 0;
  bytes_ = 0;
  return out;
}

}  // namespace livesec::ha
