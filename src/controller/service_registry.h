// Registry of live service elements and their reported load
// (paper §III.D.1-2: SEs announce themselves and their load via ONLINE
// messages; the controller manages them like an OS manages devices).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/ip_address.h"
#include "common/mac_address.h"
#include "common/types.h"
#include "services/message.h"

namespace livesec::ctrl {

/// Controller-side record of one service element.
struct SeRecord {
  std::uint64_t se_id = 0;
  MacAddress mac;
  Ipv4Address ip;
  svc::ServiceType service = svc::ServiceType::kIntrusionDetection;
  DatapathId dpid = 0;          // AS switch it is plugged into
  PortId port = kInvalidPort;   // observed ingress port of its messages
  SimTime first_seen = 0;
  SimTime last_heartbeat = 0;
  svc::OnlineMessage last_report;

  // Load-balancer bookkeeping: flows assigned since the last heartbeat.
  std::uint64_t assigned_flows_total = 0;
  std::uint64_t assigned_since_report = 0;

  /// Effective load metric used by min-load selection: the freshest SE
  /// report plus what we have assigned since it was sent (paper §V.B.2:
  /// "the load is judged according to the number of received and processed
  /// packets").
  double load_estimate() const {
    return static_cast<double>(last_report.packets_per_second) +
           static_cast<double>(last_report.queued_packets) +
           static_cast<double>(assigned_since_report);
  }
};

/// Live SE directory keyed by se_id, with per-service-type pools and
/// heartbeat-based liveness.
class ServiceRegistry {
 public:
  /// SEs missing heartbeats longer than this are pruned by expire().
  explicit ServiceRegistry(SimTime liveness_timeout = 6 * kSecond)
      : timeout_(liveness_timeout) {}

  /// Applies an ONLINE message observed at (dpid, port) from MAC/IP.
  /// Returns true when the SE is new (caller raises SeOnline event).
  bool handle_online(std::uint64_t se_id, const MacAddress& mac, Ipv4Address ip, DatapathId dpid,
                     PortId port, const svc::OnlineMessage& report, SimTime now);

  const SeRecord* find(std::uint64_t se_id) const;
  const SeRecord* find_by_mac(const MacAddress& mac) const;

  /// All live SEs providing `service` (insertion-ordered by se_id).
  std::vector<const SeRecord*> pool(svc::ServiceType service) const;

  bool remove(std::uint64_t se_id);

  /// Prunes silent SEs; returns the removed records.
  std::vector<SeRecord> expire(SimTime now);

  /// Notes a load-balancer assignment for min-load accounting.
  void note_assignment(std::uint64_t se_id);

  std::size_t size() const { return records_.size(); }
  std::vector<const SeRecord*> all() const;

  /// Bumped when the SE pool changes shape (fresh SE, migration, removal,
  /// expiry) — NOT on heartbeat refreshes. Decision caches compare this to
  /// detect stale SE assignments.
  std::uint64_t version() const { return version_; }

 private:
  SimTime timeout_;
  std::uint64_t version_ = 0;
  std::map<std::uint64_t, SeRecord> records_;
};

}  // namespace livesec::ctrl
