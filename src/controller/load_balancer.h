// Distributed load balancing over service elements (paper §IV.B).
//
// "LiveSec controller can utilize different dispatching algorithms such as
//  polling, hash, queuing or minimum-load method" at either flow or user
//  granularity.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "common/mac_address.h"
#include "controller/policy.h"
#include "controller/service_registry.h"
#include "packet/flow_key.h"

namespace livesec::ctrl {

/// Dispatching algorithm. The first four are the paper's §IV.B list;
/// kWeightedMinLoad is this repo's extension for heterogeneous SE pools
/// (load normalized by each SE's reported capacity, so a half-speed VM gets
/// half the flows instead of an equal share it cannot sustain).
enum class LbStrategy : std::uint8_t {
  kPolling,  // round-robin
  kHash,     // consistent flow/user hashing
  kQueuing,  // fewest queued packets reported
  kMinLoad,  // minimum real-time load estimate
  kWeightedMinLoad,  // minimum load / capacity ratio
};

/// Chooses a service element per flow or per user, with sticky assignments:
/// once a flow (or user) is pinned to an SE, it stays there while the SE is
/// alive, so an SE sees whole flows (required for stream inspection).
class LoadBalancer {
 public:
  explicit LoadBalancer(LbStrategy strategy = LbStrategy::kMinLoad) : strategy_(strategy) {}

  LbStrategy strategy() const { return strategy_; }

  /// Picks an SE of `service` for the given flow/user. Returns se_id, or
  /// nullopt when the pool is empty. Registers the assignment with the
  /// registry for min-load accounting.
  std::optional<std::uint64_t> assign(ServiceRegistry& registry, svc::ServiceType service,
                                      const pkt::FlowKey& flow, LbGranularity granularity);

  /// Accounts a flow replayed from a memoized decision to its SE, exactly
  /// as the sticky-pin hit inside assign() would have (min-load accounting
  /// plus the per-SE counter). Decision caching must not hide flows from
  /// the balancer's load estimates.
  void note_cached_assignment(ServiceRegistry& registry, std::uint64_t se_id) {
    registry.note_assignment(se_id);
    ++counts_[se_id];
  }

  /// Forgets a flow's pin (flow ended).
  void release_flow(const pkt::FlowKey& flow, svc::ServiceType service);

  /// Drops every pin to a dead SE so its flows get reassigned.
  void purge_se(std::uint64_t se_id);

  /// Assignments made per SE (diagnostics for the balance benchmarks).
  const std::map<std::uint64_t, std::uint64_t>& assignment_counts() const { return counts_; }

 private:
  std::optional<std::uint64_t> choose(ServiceRegistry& registry, svc::ServiceType service,
                                      const pkt::FlowKey& flow, LbGranularity granularity);

  LbStrategy strategy_;
  /// Sticky pins. Keyed by (service, flow-hash) or (service, user MAC).
  std::map<std::pair<std::uint8_t, pkt::FlowKey>, std::uint64_t> flow_pins_;
  std::map<std::pair<std::uint8_t, MacAddress>, std::uint64_t> user_pins_;
  /// Round-robin cursor per service type.
  std::map<std::uint8_t, std::size_t> rr_cursor_;
  std::map<std::uint64_t, std::uint64_t> counts_;
};

}  // namespace livesec::ctrl
