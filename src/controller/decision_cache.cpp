#include "controller/decision_cache.h"

namespace livesec::ctrl {

pkt::FlowKey DecisionCache::decision_class(const pkt::FlowKey& key) {
  pkt::FlowKey cls = key;
  if (cls.nw_proto == static_cast<std::uint8_t>(pkt::IpProto::kTcp) ||
      cls.nw_proto == static_cast<std::uint8_t>(pkt::IpProto::kUdp)) {
    cls.tp_src = 0;
  }
  return cls;
}

CachedDecision& DecisionCache::insert(const DecisionKey& key, CachedDecision decision) {
  if (decisions_.size() >= kCapacity) decisions_.clear();
  return decisions_.emplace(key, std::move(decision)).first->second;
}

void DecisionCache::remember_offload(const pkt::FlowKey& key, const OffloadEntry& entry) {
  if (offloads_.size() >= kCapacity && !offloads_.contains(key)) offloads_.clear();
  offloads_.insert_or_assign(key, entry);
}

}  // namespace livesec::ctrl
