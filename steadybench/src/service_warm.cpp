// service_warm: the bench_flow_setup warm shape run as an active/standby
// HaCluster. Two AS switches on a legacy uplink, 32 clients re-contacting 8
// services from fresh source ports under 1000 policies; 3 services sit behind
// a redirect to a certified IDS SE, so their replays rebuild the 4-entry
// chain. Every flow is closed by FlowRemoved once it leaves the live window,
// and clients refresh their ARP entries at the campus generator's rate of
// host announcements.
#include "workloads.h"

#include "control_plane.h"
#include "ha/cluster.h"
#include "services/message.h"
#include "services/service_element.h"
#include "sim/simulator.h"
#include "topology/lldp.h"

namespace steady {
namespace {

MacAddress client_mac(int i) { return MacAddress::from_uint64(0x100000u + static_cast<unsigned>(i)); }
MacAddress server_mac(int i) { return MacAddress::from_uint64(0x200000u + static_cast<unsigned>(i)); }
Ipv4Address client_ip(int i) { return Ipv4Address(10, 0, 1, static_cast<std::uint8_t>(i + 1)); }
Ipv4Address server_ip(int i) { return Ipv4Address(10, 0, 2, static_cast<std::uint8_t>(i + 1)); }
std::uint16_t service_port(int s) { return static_cast<std::uint16_t>(7000 + s); }

constexpr DatapathId kClientSwitch = 1;
constexpr DatapathId kServerSwitch = 2;
constexpr std::uint64_t kSeId = 1;
constexpr PortId kSePort = 40;
/// Simulated time one closed-loop batch advances: 256 setups per 5 ms is
/// 51.2k setups/s, inside the 43k-65k/s (set medians 47k and 54k/s) this
/// workload runs at on the reference machine, so heartbeats, resyncs and
/// snapshot truncations come about as often per setup as in real time.
constexpr SimTime kBatchSimTime = 5 * kMillisecond;
/// ARP refreshes per batch of 256 setups: scenario::CampusGenerator's
/// default mix has 3% host announcements (2% roams, 1% re-leases) among its
/// events, 256 * 0.03 / 0.97 = 7.9 per 256 flows.
constexpr int kArpPerBatch = 8;
/// Live replication-log records the stationarity check allows: the log is
/// truncated at every snapshot tick (the cluster's default, every simulated
/// 5 s = 1000 batches) and reaches ~10k records between ticks; a log that
/// stopped truncating would exceed this within ~17 simulated seconds.
constexpr std::size_t kHaLogBound = 32768;

class ServiceWarm final : public Workload {
 public:
  explicit ServiceWarm(const ServiceParams& p);

  std::uint64_t step(Tracer& tracer, std::vector<std::int64_t>& calls) override;
  std::uint64_t attempted() const override { return setups_; }
  std::uint64_t completed() const override {
    return active_.stats().flows_installed - installed_at_setup_;
  }
  Counts counts() const override;
  std::vector<StateSize> live_state() const override;
  std::vector<std::string> finish_and_check() override;
  void layer_metrics(const Counts& before, const Counts& after, double wall_s,
                     Metrics& out) override;

 private:
  static ctrl::Controller::Config controller_config();
  void send(DatapathId dpid, PortId port, pkt::PacketPtr packet) {
    active_.handle_switch_message(dpid, packet_in(port, std::move(packet)));
  }
  void announce_se();
  void add_policies();
  /// Issues `batch` setups; `sweep` walks every (client, service) class in
  /// order instead of drawing them.
  std::uint64_t run_batch(Tracer& tracer, std::vector<std::int64_t>& calls, bool sweep);
  void sync_standby();

  ServiceParams params_;
  sim::Simulator sim_;
  ctrl::Controller active_;
  ctrl::Controller standby_;
  ha::HaCluster cluster_;
  SwitchCounters counters_;
  LiveWindow window_;
  SwitchSide sw1_{kClientSwitch, counters_};
  SwitchSide sw2_{kServerSwitch, counters_};
  of::SecureChannel ch1_{sim_, sw1_, active_, 0};
  of::SecureChannel ch2_{sim_, sw2_, active_, 0};
  std::vector<std::uint32_t> next_port_;
  std::vector<of::Message> messages_;
  std::vector<of::Message> refreshes_;
  std::uint64_t draw_ = 0;
  std::uint64_t arp_turn_ = 0;
  std::uint64_t setups_ = 0;
  std::uint64_t installed_at_setup_ = 0;
  std::uint64_t hits_at_setup_ = 0;
  std::uint64_t misses_at_setup_ = 0;
  std::uint64_t lag_sum_ = 0;
  std::uint64_t lag_samples_ = 0;
  std::vector<pkt::FlowKey> traced_keys_;
};

ctrl::Controller::Config ServiceWarm::controller_config() {
  ctrl::Controller::Config config;
  config.event_store_capacity = kEventStoreRows;
  return config;
}

ServiceWarm::ServiceWarm(const ServiceParams& p)
    : params_(p),
      active_(sim_, controller_config()),
      standby_(sim_, controller_config()),
      cluster_(sim_, ha::HaCluster::Config{}),
      window_(counters_, p.live_flows),
      next_port_(static_cast<std::size_t>(p.clients), 0) {
  cluster_.add_node(active_);
  cluster_.add_node(standby_);
  active_.attach_channel(kClientSwitch, ch1_);
  active_.attach_channel(kServerSwitch, ch2_);
  ch1_.connect(of::FeaturesReply{kClientSwitch, 64, "sw1"});
  ch2_.connect(of::FeaturesReply{kServerSwitch, 64, "sw2"});
  sim_.run();
  // LLDP from sw2 port 63 heard on sw1 port 62: both Legacy-Switching uplinks.
  topo::LldpInfo info;
  info.chassis_id = kServerSwitch;
  info.port_id = 63;
  send(kClientSwitch, 62, pkt::finalize(info.to_packet()));
  for (int i = 0; i < p.clients; ++i) {
    send(kClientSwitch, static_cast<PortId>(i), gratuitous_arp(client_mac(i), client_ip(i)));
  }
  for (int s = 0; s < p.services; ++s) {
    send(kServerSwitch, static_cast<PortId>(s), gratuitous_arp(server_mac(s), server_ip(s)));
  }
  announce_se();
  add_policies();
  sim_.run();
  // The standby bootstraps from the replicated stream before heartbeats,
  // resyncs and snapshots start.
  cluster_.start();
  sync_standby();

  // Decide every class once, then run until the live window is full and
  // FlowRemoved has closed a first batch. The event stores reach their row
  // bound well before (two events per setup); the replication log then
  // grows and is truncated every 1000 batches, a cycle that starts at the
  // same point in every run.
  Tracer off;
  std::vector<std::int64_t> ignored;
  const int classes = p.clients * p.services;
  for (int done = 0; done < classes; done += static_cast<int>(p.batch)) run_batch(off, ignored, true);
  while (window_.removed() < p.batch) run_batch(off, ignored, false);
  installed_at_setup_ = active_.stats().flows_installed;
  hits_at_setup_ = active_.stats().fastpath.decision_cache_hits;
  misses_at_setup_ = active_.stats().fastpath.decision_cache_misses;
  setups_ = 0;
  lag_sum_ = 0;
  lag_samples_ = 0;
}

void ServiceWarm::announce_se() {
  svc::OnlineMessage online;
  online.service = svc::ServiceType::kIntrusionDetection;
  online.capacity_bps = 1'000'000'000;
  svc::DaemonMessage message;
  message.se_id = kSeId;
  message.cert_token = active_.certification().issue(kSeId);
  message.body = online;
  send(kServerSwitch, kSePort,
       pkt::PacketBuilder()
           .eth(MacAddress::from_uint64(0x300001), svc::controller_service_mac())
           .ipv4(Ipv4Address(10, 0, 3, 1), svc::controller_service_ip(), pkt::IpProto::kUdp)
           .udp(svc::kLiveSecPort, svc::kLiveSecPort)
           .payload(pkt::make_payload(message.encode()))
           .finalize());
}

void ServiceWarm::add_policies() {
  ctrl::PolicyTable& table = active_.policies();
  add_policy_pool(table, params_.policies - params_.redirected_services - 1);
  for (int s = 0; s < params_.redirected_services; ++s) {
    ctrl::Policy p;
    p.name = "inspect-svc" + std::to_string(s);
    p.priority = 5000 + s;
    p.nw_dst = server_ip(s);
    p.nw_proto = static_cast<std::uint8_t>(pkt::IpProto::kUdp);
    p.tp_dst = service_port(s);
    p.action = ctrl::PolicyAction::kRedirect;
    p.service_chain = {svc::ServiceType::kIntrusionDetection};
    p.granularity = ctrl::LbGranularity::kPerUser;  // per-flow would bypass the cache
    table.add(p);
  }
  ctrl::Policy allow;
  allow.name = "default-allow";
  allow.priority = 1;
  allow.action = ctrl::PolicyAction::kAllow;
  table.add(allow);
}

void ServiceWarm::sync_standby() {
  cluster_.flush_replication();
  sim_.run_until(sim_.now() + 10 * kMillisecond);
}

std::uint64_t ServiceWarm::run_batch(Tracer& tracer, std::vector<std::int64_t>& calls,
                                     bool sweep) {
  const std::uint64_t installed = active_.stats().flows_installed;
  {
    Scope scope(tracer, kHarness);
    messages_.clear();
    for (std::uint32_t n = 0; n < params_.batch; ++n) {
      int c = 0;
      int s = 0;
      if (sweep) {
        const int k = static_cast<int>(draw_++ % static_cast<std::uint64_t>(params_.clients * params_.services));
        c = k / params_.services;
        s = k % params_.services;
      } else {
        const std::uint64_t r = mix64(params_.seed ^ (draw_++ << 8));
        c = static_cast<int>(r % static_cast<std::uint64_t>(params_.clients));
        s = static_cast<int>((r >> 32) % static_cast<std::uint64_t>(params_.services));
      }
      // A fresh source port per re-contact; each client cycles 60000 ports,
      // far more than its share of the live window.
      const auto tp_src = static_cast<std::uint16_t>(1024 + next_port_[static_cast<std::size_t>(c)]++ % 60000);
      messages_.push_back(packet_in(static_cast<PortId>(c),
                                    udp_packet(client_mac(c), client_ip(c), server_mac(s),
                                               server_ip(s), tp_src, service_port(s))));
      if (tracer.enabled()) {
        traced_keys_.push_back(
            pkt::FlowKey::from_packet(*std::get<of::PacketIn>(messages_.back()).packet));
      }
    }
    // Clients take turns refreshing their ARP entries in place; a refresh
    // leaves the decision cache valid.
    refreshes_.clear();
    for (int n = 0; n < kArpPerBatch; ++n) {
      const int c = static_cast<int>(arp_turn_++ % static_cast<std::uint64_t>(params_.clients));
      refreshes_.push_back(packet_in(static_cast<PortId>(c), gratuitous_arp(client_mac(c), client_ip(c))));
    }
  }
  for (const of::Message& m : messages_) {
    calls.push_back(timed_call(active_, kClientSwitch, m, tracer, kControllerSetup));
  }
  for (const of::Message& m : refreshes_) timed_call(active_, kClientSwitch, m, tracer, kControllerArp);
  setups_ += messages_.size();
  {
    Scope scope(tracer, kOpenflowDrain);
    sim_.run_until(sim_.now());
  }
  window_.expire(active_, tracer);
  {
    Scope scope(tracer, kHaFlush);
    cluster_.flush_replication();
  }
  lag_sum_ += cluster_.log().head_seq() - cluster_.applied_seq(1);
  ++lag_samples_;
  {
    Scope scope(tracer, kHaDeliver);
    sim_.run_until(sim_.now() + kBatchSimTime);
  }
  return active_.stats().flows_installed - installed;
}

std::uint64_t ServiceWarm::step(Tracer& tracer, std::vector<std::int64_t>& calls) {
  return run_batch(tracer, calls, false);
}

Counts ServiceWarm::counts() const {
  Counts out;
  out.emplace_back("setups", setups_);
  out.emplace_back("flow_removed_calls", window_.removed());
  add_controller_counts(active_, counters_, out);
  const ha::HaCluster::HaStats& ha = cluster_.stats();
  out.emplace_back("ha_records_published", ha.records_published);
  out.emplace_back("ha_frames_published", ha.frames_published);
  out.emplace_back("ha_bytes_published", ha.bytes_published);
  out.emplace_back("ha_records_coalesced", ha.records_coalesced);
  out.emplace_back("ha_deliveries", ha.deliveries_scheduled);
  out.emplace_back("ha_log_head", cluster_.log().head_seq());
  out.emplace_back("ha_standby_applied", cluster_.applied_seq(1));
  out.emplace_back("ha_lag_sum", lag_sum_);
  out.emplace_back("ha_lag_samples", lag_samples_);
  out.emplace_back("standby_active_flows", standby_.active_flows());
  return out;
}

std::vector<StateSize> ServiceWarm::live_state() const {
  const std::size_t flows = window_.bound() + params_.batch;
  return {
      {"active_flows", active_.active_flows(), flows},
      {"event_rows", active_.events().size(), kEventStoreRowBound},
      {"pending_setups", active_.pending_setup_count(), 0},
      {"standby_active_flows", standby_.active_flows(), flows},
      {"standby_event_rows", standby_.events().size(), kEventStoreRowBound},
      {"ha_log_records", cluster_.log().size(), kHaLogBound},
  };
}

std::vector<std::string> ServiceWarm::finish_and_check() {
  std::vector<std::string> failures;
  sync_standby();
  if (completed() != setups_) {
    failures.push_back("flows_installed " + std::to_string(completed()) + " != setups " +
                       std::to_string(setups_));
  }
  const double hits = static_cast<double>(active_.stats().fastpath.decision_cache_hits - hits_at_setup_);
  const double misses =
      static_cast<double>(active_.stats().fastpath.decision_cache_misses - misses_at_setup_);
  const double ratio = hits + misses > 0 ? hits / (hits + misses) : 0;
  if (ratio < 0.99) failures.push_back("decision cache hit ratio " + std::to_string(ratio) + " < 0.99");
  if (cluster_.applied_seq(1) != cluster_.log().head_seq()) {
    failures.push_back("standby applied seq " + std::to_string(cluster_.applied_seq(1)) +
                       " != log head " + std::to_string(cluster_.log().head_seq()));
  }
  if (cluster_.stats().decode_failures != 0) failures.push_back("replication decode failures");
  if (cluster_.active_index() != 0) failures.push_back("unexpected failover");
  return failures;
}

void ServiceWarm::layer_metrics(const Counts& before, const Counts& after, double wall_s,
                                Metrics& out) {
  (void)wall_s;
  controller_layer_metrics(before, after, out);
  // Routing, topology and policy replays run at campus scale: the traced
  // keys' endpoints spread over a million hosts.
  const std::vector<HostAnnounce> campus = campus_hosts(kCampusHosts);
  const std::vector<pkt::FlowKey> keys = spread_over_campus(traced_keys_, campus, params_.seed);
  out.add("controller.policy_lookup_ns", replay_policy_lookup_ns(active_.policies(), keys), "ns");
  out.add("controller.routing_find_ns", replay_routing_find_ns(campus, keys), "ns");
  out.add("topology.upsert_node_ns", replay_upsert_node_ns(campus), "ns");
  out.add("monitor.append_ns_per_event",
          replay_append_ns_per_event(active_.events(), kEventStoreRows), "ns");

  const double setups = static_cast<double>(delta(before, after, "setups"));
  const double records = static_cast<double>(delta(before, after, "ha_records_published"));
  const double samples = static_cast<double>(delta(before, after, "ha_lag_samples"));
  out.add("ha.frames_published", static_cast<double>(delta(before, after, "ha_frames_published")),
          "count");
  out.add("ha.bytes_per_setup",
          setups > 0 ? static_cast<double>(delta(before, after, "ha_bytes_published")) / setups : 0,
          "B");
  out.add("ha.records_coalesced_ratio",
          records > 0 ? static_cast<double>(delta(before, after, "ha_records_coalesced")) / records : 0,
          "ratio");
  out.add("ha.standby_lag_records",
          samples > 0 ? static_cast<double>(delta(before, after, "ha_lag_sum")) / samples : 0,
          "count");
}

}  // namespace

std::unique_ptr<Workload> make_service_warm(const ServiceParams& params) {
  return std::make_unique<ServiceWarm>(params);
}

}  // namespace steady
