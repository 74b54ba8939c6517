#include "ha/replication.h"

#include <algorithm>
#include <unordered_map>

#include "packet/buffer.h"

namespace livesec::ha {

namespace {

/// Per-frame dictionaries: repeated MACs and datapath ids are stored once in
/// the frame header and referenced by varint index from the bodies.
struct FrameDictEncoder {
  std::vector<std::uint64_t> macs;
  std::vector<std::uint64_t> dpids;
  std::unordered_map<std::uint64_t, std::uint32_t> mac_index;
  std::unordered_map<std::uint64_t, std::uint32_t> dpid_index;

  std::uint32_t mac_ref(std::uint64_t mac) {
    auto [it, fresh] = mac_index.try_emplace(mac, static_cast<std::uint32_t>(macs.size()));
    if (fresh) macs.push_back(mac);
    return it->second;
  }
  std::uint32_t dpid_ref(std::uint64_t dpid) {
    auto [it, fresh] = dpid_index.try_emplace(dpid, static_cast<std::uint32_t>(dpids.size()));
    if (fresh) dpids.push_back(dpid);
    return it->second;
  }
};

struct FrameDictDecoder {
  std::vector<std::uint64_t> macs;
  std::vector<std::uint64_t> dpids;
  bool failed = false;

  std::uint64_t mac_at(std::uint64_t i) {
    if (i >= macs.size()) {
      failed = true;
      return 0;
    }
    return macs[i];
  }
  std::uint64_t dpid_at(std::uint64_t i) {
    if (i >= dpids.size()) {
      failed = true;
      return 0;
    }
    return dpids[i];
  }
};

// Field helpers: fixed-width big-endian in snapshot blobs (dict == nullptr),
// varint/dictionary-packed inside frames.
void put_u64(pkt::BufferWriter& w, std::uint64_t v, FrameDictEncoder* dict) {
  if (dict) {
    w.varint(v);
  } else {
    w.u64(v);
  }
}
void put_u32(pkt::BufferWriter& w, std::uint32_t v, FrameDictEncoder* dict) {
  if (dict) {
    w.varint(v);
  } else {
    w.u32(v);
  }
}
void put_mac(pkt::BufferWriter& w, const MacAddress& mac, FrameDictEncoder* dict) {
  if (dict) {
    w.varint(dict->mac_ref(mac.to_uint64()));
  } else {
    w.u64(mac.to_uint64());
  }
}
void put_dpid(pkt::BufferWriter& w, DatapathId dpid, FrameDictEncoder* dict) {
  if (dict) {
    w.varint(dict->dpid_ref(dpid));
  } else {
    w.u64(dpid);
  }
}
std::uint64_t get_u64(pkt::BufferReader& r, FrameDictDecoder* dict) {
  return dict ? r.varint() : r.u64();
}
std::uint32_t get_u32(pkt::BufferReader& r, FrameDictDecoder* dict) {
  return dict ? static_cast<std::uint32_t>(r.varint()) : r.u32();
}
MacAddress get_mac_field(pkt::BufferReader& r, FrameDictDecoder* dict) {
  if (dict) return MacAddress::from_uint64(dict->mac_at(r.varint()));
  return MacAddress::from_uint64(r.u64());
}
DatapathId get_dpid(pkt::BufferReader& r, FrameDictDecoder* dict) {
  return dict ? dict->dpid_at(r.varint()) : r.u64();
}

/// Wire tag of each record type. Values are part of the format: append-only.
enum class RecordType : std::uint8_t {
  kHostLearned = 1,
  kHostRemoved = 2,
  kLsPort = 3,
  kLink = 4,
  kPolicyAdded = 5,
  kPolicyRemoved = 6,
  kDefaultAction = 7,
  kSeUpsert = 8,
  kSeRemoved = 9,
  kFlowBlocked = 10,
  kFlowUnblocked = 11,
  kDhcpConfig = 12,
  kDhcpLease = 13,
  kDhcpRelease = 14,
  kSwitchUp = 15,
  kSwitchDown = 16,
  kFlowOffloaded = 17,
  kFlowOnloaded = 18,
  kVerdictLearned = 19,
  kVerdictCacheEpoch = 20,
  kEventBatch = 21,
};

void encode_mac(pkt::BufferWriter& w, const MacAddress& mac) { w.u64(mac.to_uint64()); }
MacAddress decode_mac(pkt::BufferReader& r) { return MacAddress::from_uint64(r.u64()); }

void encode_policy(pkt::BufferWriter& w, const ctrl::Policy& p) {
  w.u32(p.id);
  w.length_prefixed_string(p.name);
  w.u32(static_cast<std::uint32_t>(p.priority));
  // Presence bitmap over the optional predicates, in field order.
  std::uint16_t present = 0;
  const auto mark = [&present](int bit, bool on) {
    if (on) present = static_cast<std::uint16_t>(present | (1u << bit));
  };
  mark(0, p.src_mac.has_value());
  mark(1, p.dst_mac.has_value());
  mark(2, p.nw_src.has_value());
  mark(3, p.nw_src_prefix.has_value());
  mark(4, p.nw_dst.has_value());
  mark(5, p.nw_dst_prefix.has_value());
  mark(6, p.nw_proto.has_value());
  mark(7, p.tp_dst.has_value());
  mark(8, p.vlan_id.has_value());
  w.u16(present);
  if (p.src_mac) encode_mac(w, *p.src_mac);
  if (p.dst_mac) encode_mac(w, *p.dst_mac);
  if (p.nw_src) w.u32(p.nw_src->value());
  if (p.nw_src_prefix) w.u8(*p.nw_src_prefix);
  if (p.nw_dst) w.u32(p.nw_dst->value());
  if (p.nw_dst_prefix) w.u8(*p.nw_dst_prefix);
  if (p.nw_proto) w.u8(*p.nw_proto);
  if (p.tp_dst) w.u16(*p.tp_dst);
  if (p.vlan_id) w.u16(*p.vlan_id);
  w.u8(static_cast<std::uint8_t>(p.action));
  w.u8(static_cast<std::uint8_t>(p.service_chain.size()));
  for (svc::ServiceType service : p.service_chain) w.u8(static_cast<std::uint8_t>(service));
  w.u8(static_cast<std::uint8_t>(p.granularity));
}

ctrl::Policy decode_policy(pkt::BufferReader& r) {
  ctrl::Policy p;
  p.id = r.u32();
  p.name = r.length_prefixed_string();
  p.priority = static_cast<std::int32_t>(r.u32());
  const std::uint16_t present = r.u16();
  const auto has = [present](int bit) { return (present & (1u << bit)) != 0; };
  if (has(0)) p.src_mac = decode_mac(r);
  if (has(1)) p.dst_mac = decode_mac(r);
  if (has(2)) p.nw_src = Ipv4Address(r.u32());
  if (has(3)) p.nw_src_prefix = r.u8();
  if (has(4)) p.nw_dst = Ipv4Address(r.u32());
  if (has(5)) p.nw_dst_prefix = r.u8();
  if (has(6)) p.nw_proto = r.u8();
  if (has(7)) p.tp_dst = r.u16();
  if (has(8)) p.vlan_id = r.u16();
  p.action = static_cast<ctrl::PolicyAction>(r.u8());
  const std::uint8_t chain = r.u8();
  p.service_chain.reserve(chain);
  for (std::uint8_t i = 0; i < chain; ++i) {
    p.service_chain.push_back(static_cast<svc::ServiceType>(r.u8()));
  }
  p.granularity = static_cast<ctrl::LbGranularity>(r.u8());
  return p;
}

void encode_body(pkt::BufferWriter& w, const RecordBody& body, FrameDictEncoder* dict) {
  if (const auto* host = std::get_if<HostLearnedRecord>(&body)) {
    w.u8(static_cast<std::uint8_t>(RecordType::kHostLearned));
    put_mac(w, host->mac, dict);
    put_u32(w, host->ip.value(), dict);
    put_dpid(w, host->dpid, dict);
    put_u32(w, host->port, dict);
    put_u64(w, host->seen_at, dict);
  } else if (const auto* gone = std::get_if<HostRemovedRecord>(&body)) {
    w.u8(static_cast<std::uint8_t>(RecordType::kHostRemoved));
    put_mac(w, gone->mac, dict);
  } else if (const auto* ls = std::get_if<LsPortRecord>(&body)) {
    w.u8(static_cast<std::uint8_t>(RecordType::kLsPort));
    put_dpid(w, ls->dpid, dict);
    put_u32(w, ls->port, dict);
  } else if (const auto* link = std::get_if<LinkRecord>(&body)) {
    w.u8(static_cast<std::uint8_t>(RecordType::kLink));
    put_dpid(w, link->src, dict);
    put_u32(w, link->src_port, dict);
    put_dpid(w, link->dst, dict);
    put_u32(w, link->dst_port, dict);
  } else if (const auto* added = std::get_if<PolicyAddedRecord>(&body)) {
    w.u8(static_cast<std::uint8_t>(RecordType::kPolicyAdded));
    encode_policy(w, added->policy);
  } else if (const auto* removed = std::get_if<PolicyRemovedRecord>(&body)) {
    w.u8(static_cast<std::uint8_t>(RecordType::kPolicyRemoved));
    put_u32(w, removed->id, dict);
  } else if (const auto* def = std::get_if<DefaultActionRecord>(&body)) {
    w.u8(static_cast<std::uint8_t>(RecordType::kDefaultAction));
    w.u8(static_cast<std::uint8_t>(def->action));
  } else if (const auto* se = std::get_if<SeUpsertRecord>(&body)) {
    w.u8(static_cast<std::uint8_t>(RecordType::kSeUpsert));
    put_u64(w, se->se_id, dict);
    put_mac(w, se->mac, dict);
    put_u32(w, se->ip.value(), dict);
    w.u8(static_cast<std::uint8_t>(se->service));
    put_dpid(w, se->dpid, dict);
    put_u32(w, se->port, dict);
    put_u64(w, se->seen_at, dict);
  } else if (const auto* se_gone = std::get_if<SeRemovedRecord>(&body)) {
    w.u8(static_cast<std::uint8_t>(RecordType::kSeRemoved));
    put_u64(w, se_gone->se_id, dict);
  } else if (const auto* blocked = std::get_if<FlowBlockedRecord>(&body)) {
    w.u8(static_cast<std::uint8_t>(RecordType::kFlowBlocked));
    blocked->key.encode(w);
    put_dpid(w, blocked->ingress_dpid, dict);
    put_u32(w, blocked->ingress_port, dict);
  } else if (const auto* unblocked = std::get_if<FlowUnblockedRecord>(&body)) {
    w.u8(static_cast<std::uint8_t>(RecordType::kFlowUnblocked));
    unblocked->key.encode(w);
  } else if (const auto* dhcp = std::get_if<DhcpConfigRecord>(&body)) {
    w.u8(static_cast<std::uint8_t>(RecordType::kDhcpConfig));
    put_u32(w, dhcp->base.value(), dict);
    put_u32(w, dhcp->size, dict);
    put_u64(w, dhcp->lease_duration, dict);
  } else if (const auto* lease = std::get_if<DhcpLeaseRecord>(&body)) {
    w.u8(static_cast<std::uint8_t>(RecordType::kDhcpLease));
    put_mac(w, lease->mac, dict);
    put_u32(w, lease->ip.value(), dict);
    put_u64(w, lease->expires, dict);
  } else if (const auto* release = std::get_if<DhcpReleaseRecord>(&body)) {
    w.u8(static_cast<std::uint8_t>(RecordType::kDhcpRelease));
    put_mac(w, release->mac, dict);
  } else if (const auto* up = std::get_if<SwitchUpRecord>(&body)) {
    w.u8(static_cast<std::uint8_t>(RecordType::kSwitchUp));
    put_dpid(w, up->dpid, dict);
    put_u32(w, up->num_ports, dict);
    w.length_prefixed_string(up->name);
  } else if (const auto* offloaded = std::get_if<FlowOffloadedRecord>(&body)) {
    w.u8(static_cast<std::uint8_t>(RecordType::kFlowOffloaded));
    offloaded->key.encode(w);
    put_u64(w, offloaded->inspected_bytes, dict);
  } else if (const auto* onloaded = std::get_if<FlowOnloadedRecord>(&body)) {
    w.u8(static_cast<std::uint8_t>(RecordType::kFlowOnloaded));
    onloaded->key.encode(w);
  } else if (const auto* learned = std::get_if<VerdictLearnedRecord>(&body)) {
    w.u8(static_cast<std::uint8_t>(RecordType::kVerdictLearned));
    // Digest words are uniform hashes: varints would pad them, keep fixed.
    w.u64(learned->digest.exact);
    w.u64(learned->digest.bytes);
    for (const std::uint32_t lane : learned->digest.sketch) w.u32(lane);
    w.u8(learned->verdict);
    put_u32(w, learned->rule_id, dict);
    w.u8(learned->severity);
    put_u64(w, learned->inspected_bytes, dict);
  } else if (const auto* epoch = std::get_if<VerdictCacheEpochRecord>(&body)) {
    w.u8(static_cast<std::uint8_t>(RecordType::kVerdictCacheEpoch));
    put_u64(w, epoch->epoch, dict);
  } else if (const auto* batch = std::get_if<EventBatchRecord>(&body)) {
    w.u8(static_cast<std::uint8_t>(RecordType::kEventBatch));
    put_u32(w, static_cast<std::uint32_t>(batch->blob.size()), dict);
    w.bytes(batch->blob);
  } else {
    const auto& down = std::get<SwitchDownRecord>(body);
    w.u8(static_cast<std::uint8_t>(RecordType::kSwitchDown));
    put_dpid(w, down.dpid, dict);
  }
}

std::optional<RecordBody> decode_body(pkt::BufferReader& r, FrameDictDecoder* dict) {
  const auto type = static_cast<RecordType>(r.u8());
  switch (type) {
    case RecordType::kHostLearned: {
      HostLearnedRecord host;
      host.mac = get_mac_field(r, dict);
      host.ip = Ipv4Address(get_u32(r, dict));
      host.dpid = get_dpid(r, dict);
      host.port = get_u32(r, dict);
      host.seen_at = get_u64(r, dict);
      return host;
    }
    case RecordType::kHostRemoved: return HostRemovedRecord{get_mac_field(r, dict)};
    case RecordType::kLsPort: {
      LsPortRecord ls;
      ls.dpid = get_dpid(r, dict);
      ls.port = get_u32(r, dict);
      return ls;
    }
    case RecordType::kLink: {
      LinkRecord link;
      link.src = get_dpid(r, dict);
      link.src_port = get_u32(r, dict);
      link.dst = get_dpid(r, dict);
      link.dst_port = get_u32(r, dict);
      return link;
    }
    case RecordType::kPolicyAdded: return PolicyAddedRecord{decode_policy(r)};
    case RecordType::kPolicyRemoved: return PolicyRemovedRecord{get_u32(r, dict)};
    case RecordType::kDefaultAction:
      return DefaultActionRecord{static_cast<ctrl::PolicyAction>(r.u8())};
    case RecordType::kSeUpsert: {
      SeUpsertRecord se;
      se.se_id = get_u64(r, dict);
      se.mac = get_mac_field(r, dict);
      se.ip = Ipv4Address(get_u32(r, dict));
      se.service = static_cast<svc::ServiceType>(r.u8());
      se.dpid = get_dpid(r, dict);
      se.port = get_u32(r, dict);
      se.seen_at = get_u64(r, dict);
      return se;
    }
    case RecordType::kSeRemoved: return SeRemovedRecord{get_u64(r, dict)};
    case RecordType::kFlowBlocked: {
      FlowBlockedRecord blocked;
      blocked.key = pkt::FlowKey::decode(r);
      blocked.ingress_dpid = get_dpid(r, dict);
      blocked.ingress_port = get_u32(r, dict);
      return blocked;
    }
    case RecordType::kFlowUnblocked: return FlowUnblockedRecord{pkt::FlowKey::decode(r)};
    case RecordType::kDhcpConfig: {
      DhcpConfigRecord dhcp;
      dhcp.base = Ipv4Address(get_u32(r, dict));
      dhcp.size = get_u32(r, dict);
      dhcp.lease_duration = get_u64(r, dict);
      return dhcp;
    }
    case RecordType::kDhcpLease: {
      DhcpLeaseRecord lease;
      lease.mac = get_mac_field(r, dict);
      lease.ip = Ipv4Address(get_u32(r, dict));
      lease.expires = get_u64(r, dict);
      return lease;
    }
    case RecordType::kDhcpRelease: return DhcpReleaseRecord{get_mac_field(r, dict)};
    case RecordType::kSwitchUp: {
      SwitchUpRecord up;
      up.dpid = get_dpid(r, dict);
      up.num_ports = get_u32(r, dict);
      up.name = r.length_prefixed_string();
      return up;
    }
    case RecordType::kSwitchDown: return SwitchDownRecord{get_dpid(r, dict)};
    case RecordType::kFlowOffloaded: {
      FlowOffloadedRecord offloaded;
      offloaded.key = pkt::FlowKey::decode(r);
      offloaded.inspected_bytes = get_u64(r, dict);
      return offloaded;
    }
    case RecordType::kFlowOnloaded: return FlowOnloadedRecord{pkt::FlowKey::decode(r)};
    case RecordType::kVerdictLearned: {
      VerdictLearnedRecord learned;
      learned.digest.exact = r.u64();
      learned.digest.bytes = r.u64();
      for (std::uint32_t& lane : learned.digest.sketch) lane = r.u32();
      learned.verdict = r.u8();
      learned.rule_id = get_u32(r, dict);
      learned.severity = r.u8();
      learned.inspected_bytes = get_u64(r, dict);
      return learned;
    }
    case RecordType::kVerdictCacheEpoch: return VerdictCacheEpochRecord{get_u64(r, dict)};
    case RecordType::kEventBatch: {
      const std::uint32_t len = get_u32(r, dict);
      if (!r.ok() || len > r.remaining()) return std::nullopt;
      return EventBatchRecord{r.bytes(len)};
    }
  }
  return std::nullopt;
}

}  // namespace

const char* record_name(const RecordBody& body) {
  struct Namer {
    const char* operator()(const HostLearnedRecord&) { return "host_learned"; }
    const char* operator()(const HostRemovedRecord&) { return "host_removed"; }
    const char* operator()(const LsPortRecord&) { return "ls_port"; }
    const char* operator()(const LinkRecord&) { return "link"; }
    const char* operator()(const PolicyAddedRecord&) { return "policy_added"; }
    const char* operator()(const PolicyRemovedRecord&) { return "policy_removed"; }
    const char* operator()(const DefaultActionRecord&) { return "default_action"; }
    const char* operator()(const SeUpsertRecord&) { return "se_upsert"; }
    const char* operator()(const SeRemovedRecord&) { return "se_removed"; }
    const char* operator()(const FlowBlockedRecord&) { return "flow_blocked"; }
    const char* operator()(const FlowUnblockedRecord&) { return "flow_unblocked"; }
    const char* operator()(const DhcpConfigRecord&) { return "dhcp_config"; }
    const char* operator()(const DhcpLeaseRecord&) { return "dhcp_lease"; }
    const char* operator()(const DhcpReleaseRecord&) { return "dhcp_release"; }
    const char* operator()(const SwitchUpRecord&) { return "switch_up"; }
    const char* operator()(const SwitchDownRecord&) { return "switch_down"; }
    const char* operator()(const FlowOffloadedRecord&) { return "flow_offloaded"; }
    const char* operator()(const FlowOnloadedRecord&) { return "flow_onloaded"; }
    const char* operator()(const VerdictLearnedRecord&) { return "verdict_learned"; }
    const char* operator()(const VerdictCacheEpochRecord&) { return "verdict_cache_epoch"; }
    const char* operator()(const EventBatchRecord&) { return "event_batch"; }
  };
  return std::visit(Namer{}, body);
}

std::vector<std::uint8_t> encode_frame(const ReplicationFrame& frame) {
  // Bodies are encoded first so the dictionaries they build can lead them on
  // the wire (the decoder needs both dictionaries before the first body).
  FrameDictEncoder dict;
  pkt::BufferWriter bodies;
  for (const RecordBody& body : frame.records) encode_body(bodies, body, &dict);
  const std::vector<std::uint8_t> body_bytes = bodies.take();

  pkt::BufferWriter w;
  w.u16(kReplicationFormatVersion);
  w.u8(kFrameMagic);
  w.varint(frame.base_seq);
  w.varint(frame.records.size());
  w.varint(dict.macs.size());
  for (const std::uint64_t mac : dict.macs) w.u64(mac);
  w.varint(dict.dpids.size());
  for (const std::uint64_t dpid : dict.dpids) w.varint(dpid);
  w.bytes(body_bytes);
  return w.take();
}

std::optional<ReplicationFrame> decode_frame(std::span<const std::uint8_t> bytes) {
  pkt::BufferReader r(bytes);
  if (r.u16() != kReplicationFormatVersion) return std::nullopt;
  if (r.u8() != kFrameMagic || !r.ok()) return std::nullopt;
  ReplicationFrame frame;
  frame.base_seq = r.varint();
  const std::uint64_t count = r.varint();

  FrameDictDecoder dict;
  const std::uint64_t mac_count = r.varint();
  if (!r.ok() || mac_count > r.remaining() / 8) return std::nullopt;
  dict.macs.reserve(mac_count);
  for (std::uint64_t i = 0; i < mac_count; ++i) dict.macs.push_back(r.u64());
  const std::uint64_t dpid_count = r.varint();
  if (!r.ok() || dpid_count > r.remaining()) return std::nullopt;  // >= 1 byte each
  dict.dpids.reserve(dpid_count);
  for (std::uint64_t i = 0; i < dpid_count; ++i) dict.dpids.push_back(r.varint());

  if (!r.ok() || count > r.remaining()) return std::nullopt;  // >= 1 byte per body
  frame.records.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    auto body = decode_body(r, &dict);
    if (!body || dict.failed || !r.ok()) return std::nullopt;
    frame.records.push_back(std::move(*body));
  }
  if (!r.ok() || dict.failed || r.remaining() != 0) return std::nullopt;
  return frame;
}

std::vector<std::uint8_t> encode_snapshot_records(const std::vector<RecordBody>& records) {
  pkt::BufferWriter w;
  w.u16(kReplicationFormatVersion);
  w.u32(static_cast<std::uint32_t>(records.size()));
  for (const RecordBody& body : records) encode_body(w, body, nullptr);
  return w.take();
}

std::optional<std::vector<RecordBody>> decode_snapshot_records(
    std::span<const std::uint8_t> bytes) {
  pkt::BufferReader r(bytes);
  if (r.u16() != kReplicationFormatVersion) return std::nullopt;
  const std::uint32_t count = r.u32();
  if (!r.ok() || count > r.remaining()) return std::nullopt;  // >= 1 byte per body
  std::vector<RecordBody> records;
  records.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    auto body = decode_body(r, nullptr);
    if (!body) return std::nullopt;
    records.push_back(std::move(*body));
  }
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return records;
}

std::uint64_t ReplicationLog::append(RecordBody body) {
  const std::uint64_t seq = next_seq_++;
  records_.push_back(ReplicationRecord{seq, std::move(body)});
  return seq;
}

std::optional<std::vector<ReplicationRecord>> ReplicationLog::since(
    std::uint64_t after_seq) const {
  // The span (after_seq, head] must be fully retained; a truncated prefix
  // means the caller can only recover through a snapshot.
  std::vector<ReplicationRecord> out;
  if (!visit_since(after_seq, [&out](const ReplicationRecord& record) { out.push_back(record); }))
    return std::nullopt;
  return out;
}

void ReplicationLog::truncate(std::uint64_t through_seq) {
  while (!records_.empty() && records_.front().seq <= through_seq) records_.pop_front();
  truncated_through_ = std::max(truncated_through_, through_seq);
}

}  // namespace livesec::ha
