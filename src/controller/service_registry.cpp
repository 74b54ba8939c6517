#include "controller/service_registry.h"

namespace livesec::ctrl {

bool ServiceRegistry::handle_online(std::uint64_t se_id, const MacAddress& mac, Ipv4Address ip,
                                    DatapathId dpid, PortId port,
                                    const svc::OnlineMessage& report, SimTime now) {
  auto it = records_.find(se_id);
  const bool fresh = it == records_.end();
  SeRecord& record = records_[se_id];
  if (fresh) {
    record.se_id = se_id;
    record.first_seen = now;
    ++version_;
  } else if (record.dpid != dpid || record.port != port || record.mac != mac) {
    ++version_;  // migrated: steered paths to the old attachment are stale
  }
  record.mac = mac;
  record.ip = ip;
  record.service = report.service;
  record.dpid = dpid;
  record.port = port;
  record.last_heartbeat = now;
  record.last_report = report;
  record.assigned_since_report = 0;  // the report supersedes local estimates
  return fresh;
}

const SeRecord* ServiceRegistry::find(std::uint64_t se_id) const {
  auto it = records_.find(se_id);
  return it == records_.end() ? nullptr : &it->second;
}

const SeRecord* ServiceRegistry::find_by_mac(const MacAddress& mac) const {
  for (const auto& [id, record] : records_) {
    if (record.mac == mac) return &record;
  }
  return nullptr;
}

std::vector<const SeRecord*> ServiceRegistry::pool(svc::ServiceType service) const {
  std::vector<const SeRecord*> out;
  for (const auto& [id, record] : records_) {
    if (record.service == service) out.push_back(&record);
  }
  return out;
}

bool ServiceRegistry::remove(std::uint64_t se_id) {
  if (records_.erase(se_id) == 0) return false;
  ++version_;
  return true;
}

std::vector<SeRecord> ServiceRegistry::expire(SimTime now) {
  std::vector<SeRecord> removed;
  for (auto it = records_.begin(); it != records_.end();) {
    if (timeout_ > 0 && now - it->second.last_heartbeat >= timeout_) {
      removed.push_back(it->second);
      it = records_.erase(it);
    } else {
      ++it;
    }
  }
  if (!removed.empty()) ++version_;
  return removed;
}

void ServiceRegistry::note_assignment(std::uint64_t se_id) {
  auto it = records_.find(se_id);
  if (it == records_.end()) return;
  ++it->second.assigned_flows_total;
  ++it->second.assigned_since_report;
}

std::vector<const SeRecord*> ServiceRegistry::all() const {
  std::vector<const SeRecord*> out;
  out.reserve(records_.size());
  for (const auto& [id, record] : records_) out.push_back(&record);
  return out;
}

}  // namespace livesec::ctrl
