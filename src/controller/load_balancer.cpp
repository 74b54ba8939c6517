#include "controller/load_balancer.h"

#include "common/hash.h"

namespace livesec::ctrl {

std::optional<std::uint64_t> LoadBalancer::assign(ServiceRegistry& registry,
                                                  svc::ServiceType service,
                                                  const pkt::FlowKey& flow,
                                                  LbGranularity granularity) {
  const std::uint8_t svc_key = static_cast<std::uint8_t>(service);

  // Sticky pin lookup first: a pinned flow/user keeps its SE while alive.
  if (granularity == LbGranularity::kPerUser) {
    auto it = user_pins_.find({svc_key, flow.dl_src});
    if (it != user_pins_.end()) {
      if (registry.find(it->second) != nullptr) {
        registry.note_assignment(it->second);
        ++counts_[it->second];
        return it->second;
      }
      user_pins_.erase(it);
    }
  } else {
    auto it = flow_pins_.find({svc_key, flow});
    if (it != flow_pins_.end()) {
      if (registry.find(it->second) != nullptr) {
        // Same flow re-queried (e.g. reverse direction install): no second
        // assignment accounting.
        return it->second;
      }
      flow_pins_.erase(it);
    }
  }

  auto chosen = choose(registry, service, flow, granularity);
  if (!chosen) return std::nullopt;

  registry.note_assignment(*chosen);
  ++counts_[*chosen];
  if (granularity == LbGranularity::kPerUser) {
    user_pins_[{svc_key, flow.dl_src}] = *chosen;
  } else {
    flow_pins_[{svc_key, flow}] = *chosen;
  }
  return chosen;
}

std::optional<std::uint64_t> LoadBalancer::choose(ServiceRegistry& registry,
                                                  svc::ServiceType service,
                                                  const pkt::FlowKey& flow,
                                                  LbGranularity granularity) {
  const std::vector<const SeRecord*> pool = registry.pool(service);
  if (pool.empty()) return std::nullopt;

  switch (strategy_) {
    case LbStrategy::kPolling: {
      std::size_t& cursor = rr_cursor_[static_cast<std::uint8_t>(service)];
      const SeRecord* pick = pool[cursor % pool.size()];
      ++cursor;
      return pick->se_id;
    }
    case LbStrategy::kHash: {
      const std::uint64_t h = granularity == LbGranularity::kPerUser
                                  ? splitmix64(flow.dl_src.to_uint64())
                                  : flow.hash();
      return pool[h % pool.size()]->se_id;
    }
    case LbStrategy::kQueuing: {
      const SeRecord* best = pool.front();
      for (const SeRecord* candidate : pool) {
        const auto queue_of = [](const SeRecord* r) {
          return r->last_report.queued_packets + r->assigned_since_report;
        };
        if (queue_of(candidate) < queue_of(best)) best = candidate;
      }
      return best->se_id;
    }
    case LbStrategy::kMinLoad: {
      const SeRecord* best = pool.front();
      for (const SeRecord* candidate : pool) {
        if (candidate->load_estimate() < best->load_estimate()) best = candidate;
      }
      return best->se_id;
    }
    case LbStrategy::kWeightedMinLoad: {
      // Normalize the load estimate by the SE's self-reported capacity so
      // heterogeneous pools converge to equal *utilization*, not counts.
      auto utilization = [](const SeRecord* r) {
        const double capacity =
            r->last_report.capacity_bps > 0 ? static_cast<double>(r->last_report.capacity_bps)
                                            : 1.0;
        return r->load_estimate() / capacity;
      };
      const SeRecord* best = pool.front();
      for (const SeRecord* candidate : pool) {
        if (utilization(candidate) < utilization(best)) best = candidate;
      }
      return best->se_id;
    }
  }
  return std::nullopt;
}

void LoadBalancer::release_flow(const pkt::FlowKey& flow, svc::ServiceType service) {
  flow_pins_.erase({static_cast<std::uint8_t>(service), flow});
}

void LoadBalancer::purge_se(std::uint64_t se_id) {
  for (auto it = flow_pins_.begin(); it != flow_pins_.end();) {
    it = it->second == se_id ? flow_pins_.erase(it) : std::next(it);
  }
  for (auto it = user_pins_.begin(); it != user_pins_.end();) {
    it = it->second == se_id ? user_pins_.erase(it) : std::next(it);
  }
}

}  // namespace livesec::ctrl
