// fit_building: paper Figure 6 in the full simulator. OpenFlow switches on a
// legacy backbone, 2 IDS service elements, 4 clients sending UDP CBR flows
// (1400 B and 64 B payloads) to 4 sinks, every flow redirected through the
// IDS chain. Traffic runs in 1 s simulated episodes; the controller only
// sets the 16 flows up once, during set-up.
#include "workloads.h"

#include <algorithm>

#include "net/network.h"
#include "net/traffic.h"
#include "services/ids/ids_engine.h"

namespace steady {
namespace {

using namespace livesec;

constexpr SimTime kEpisode = kSecond;
/// Quiet tail of an episode: every packet sent in the episode arrives.
constexpr SimTime kDrain = 20 * kMillisecond;
/// Data-plane slice one timed Simulator::run_until call advances.
constexpr SimTime kSlice = kMillisecond;
/// Ethernet + IPv4 + UDP header bytes on the wire.
constexpr std::size_t kHeaderBytes = 14 + 20 + 8;

struct Flow {
  std::size_t payload = 0;
  double rate_bps = 0;
  pkt::PayloadPtr content;
};

class FitBuilding final : public Workload {
 public:
  explicit FitBuilding(const FitParams& p);

  std::uint64_t step(Tracer& tracer, std::vector<std::int64_t>& calls) override;
  std::uint64_t attempted() const override { return sent_packets() - sent_at_setup_; }
  std::uint64_t completed() const override { return delivered_packets() - delivered_at_setup_; }
  Counts counts() const override;
  std::vector<StateSize> live_state() const override;
  std::vector<std::string> finish_and_check() override;
  void layer_metrics(const Counts& before, const Counts& after, double wall_s,
                     Metrics& out) override;

 private:
  std::uint64_t sent_packets() const;
  std::uint64_t delivered_packets() const;
  std::uint64_t delivered_bytes() const;
  void start_episode();
  void end_episode();
  /// One slice of simulated time; returns its wall time.
  std::int64_t run_slice(Tracer& tracer);

  FitParams params_;
  net::Network network_;
  ctrl::Controller& controller_ = network_.controller();
  sim::Simulator& sim_ = network_.sim();
  std::vector<net::Host*> clients_;
  std::vector<net::Host*> sinks_;
  std::vector<Flow> flows_;
  std::vector<std::unique_ptr<net::UdpCbrApp>> apps_;
  std::vector<SimTime> phase_;
  std::uint64_t expected_packets_ = 0;  // per episode, closed form
  std::uint64_t expected_bytes_ = 0;
  bool in_episode_ = false;
  SimTime episode_end_ = 0;
  std::uint64_t episode_sent_ = 0;
  std::uint64_t episode_delivered_ = 0;
  std::uint64_t episode_bytes_ = 0;
  std::uint64_t episodes_ = 0;
  std::vector<std::string> episode_failures_;
  std::uint64_t sim_events_ = 0;
  std::uint64_t last_delivered_ = 0;
  std::uint64_t sent_at_setup_ = 0;
  std::uint64_t delivered_at_setup_ = 0;
};

/// Reverse-direction entries of one-way UDP flows never match; a short idle
/// timeout lets them age out during warm-up instead of mid-measurement.
ctrl::Controller::Config controller_config() {
  ctrl::Controller::Config config;
  config.flow_idle_timeout = 2 * kSecond;
  return config;
}

FitBuilding::FitBuilding(const FitParams& p) : params_(p), network_(controller_config()) {
  auto& backbone = network_.add_legacy_switch("backbone");
  for (int i = 0; i < 2; ++i) {
    auto& se_sw = network_.add_as_switch("se-sw" + std::to_string(i), backbone, 10e9);
    svc::ServiceElement::Config se;
    // Every episode repeats each flow's content, so the shared verdict
    // cache would answer the flows from cache after the first episode; off,
    // every packet takes the full engine pass, whose per-packet and
    // per-byte cost this workload measures (the no-cache arm of
    // bench_se_chain).
    se.use_verdict_cache = false;
    network_.add_service_element(svc::ServiceType::kIntrusionDetection, se_sw, se);
  }
  ctrl::Policy policy;
  policy.nw_proto = static_cast<std::uint8_t>(pkt::IpProto::kUdp);
  policy.action = ctrl::PolicyAction::kRedirect;
  policy.service_chain = {svc::ServiceType::kIntrusionDetection};
  network_.controller().policies().add(policy);

  auto& client_sw = network_.add_as_switch("clients", backbone, 10e9);
  auto& sink_sw = network_.add_as_switch("sinks", backbone, 10e9);
  for (int i = 0; i < p.clients; ++i) {
    const std::string index = std::to_string(i);
    clients_.push_back(&network_.add_host(std::string("c").append(index), client_sw, 10e9));
    sinks_.push_back(&network_.add_host(std::string("s").append(index), sink_sw, 10e9));
  }
  network_.start();

  // Seed-derived payload bytes, distinct per flow: the IDS scans content,
  // not zeros.
  const auto payload = [&](std::size_t bytes, std::uint64_t salt) {
    std::vector<std::uint8_t> out(bytes);
    for (std::size_t i = 0; i < bytes; ++i) {
      out[i] = static_cast<std::uint8_t>(mix64(p.seed ^ (salt << 32) ^ i));
    }
    return pkt::make_payload(std::move(out));
  };
  // Half the flows carry 1400 B payloads at 25 Mbps, half 64 B at 10 Mbps:
  // ~110k packets per simulated second, the SEs below half their budget.
  for (int c = 0; c < p.clients; ++c) {
    for (int f = 0; f < p.flows_per_client; ++f) {
      const bool big = f < p.flows_per_client / 2;
      const std::size_t bytes = big ? 1400 : 64;
      const Flow flow{bytes, big ? 25e6 : 10e6, payload(bytes, flows_.size() + 1)};
      flows_.push_back(flow);
      apps_.push_back(std::make_unique<net::UdpCbrApp>(
          *clients_[static_cast<std::size_t>(c)],
          net::UdpCbrApp::Config{.dst = sinks_[static_cast<std::size_t>(c)]->ip(),
                                 .dst_port = static_cast<std::uint16_t>(9000 + f),
                                 .src_port = static_cast<std::uint16_t>(40000 + f),
                                 .rate_bps = flow.rate_bps,
                                 .packet_payload = flow.payload,
                                 .duration = kEpisode,
                                 .content = flow.content}));
      // The CBR app's own interval arithmetic, so the count is exact.
      const double bits = static_cast<double>(flow.payload + kHeaderBytes) * 8.0;
      const auto interval = std::max<SimTime>(1, static_cast<SimTime>(bits / flow.rate_bps * kSecond));
      const auto per_episode = static_cast<std::uint64_t>((kEpisode + interval - 1) / interval);
      expected_packets_ += per_episode;
      expected_bytes_ += per_episode * (flow.payload + kHeaderBytes);
      // Seeded start phase within one interval: flows do not fire in lockstep.
      phase_.push_back(static_cast<SimTime>(mix64(p.seed ^ (apps_.size() << 16)) %
                                            static_cast<std::uint64_t>(interval)));
    }
  }

  Tracer off;
  while (episodes_ < static_cast<std::uint64_t>(p.warmup_episodes)) run_slice(off);
  sent_at_setup_ = sent_packets();
  delivered_at_setup_ = delivered_packets();
  last_delivered_ = delivered_at_setup_;
}

std::uint64_t FitBuilding::sent_packets() const {
  std::uint64_t n = 0;
  for (const auto& app : apps_) n += app->packets_sent();
  return n;
}

std::uint64_t FitBuilding::delivered_packets() const {
  std::uint64_t n = 0;
  for (const net::Host* sink : sinks_) n += sink->rx_ip_packets();
  return n;
}

std::uint64_t FitBuilding::delivered_bytes() const {
  std::uint64_t n = 0;
  for (const net::Host* sink : sinks_) n += sink->rx_ip_bytes();
  return n;
}

void FitBuilding::start_episode() {
  for (std::size_t a = 0; a < apps_.size(); ++a) {
    net::UdpCbrApp* app = apps_[a].get();
    sim_.schedule(phase_[a], [app] { app->start(); });
  }
  episode_end_ = sim_.now() + kEpisode + kDrain;
  episode_sent_ = sent_packets();
  episode_delivered_ = delivered_packets();
  episode_bytes_ = delivered_bytes();
  in_episode_ = true;
}

void FitBuilding::end_episode() {
  const std::uint64_t sent = sent_packets() - episode_sent_;
  const std::uint64_t delivered = delivered_packets() - episode_delivered_;
  const std::uint64_t bytes = delivered_bytes() - episode_bytes_;
  if (sent != expected_packets_ || delivered != expected_packets_ || bytes != expected_bytes_) {
    episode_failures_.push_back(
        "episode " + std::to_string(episodes_) + ": sent " + std::to_string(sent) +
        " delivered " + std::to_string(delivered) + " packets / " + std::to_string(bytes) +
        " bytes, expected " + std::to_string(expected_packets_) + " / " +
        std::to_string(expected_bytes_));
  }
  ++episodes_;
  in_episode_ = false;
}

std::int64_t FitBuilding::run_slice(Tracer& tracer) {
  if (!in_episode_) start_episode();
  const std::int64_t t0 = now_ns();
  sim_events_ += sim_.run_until(std::min(sim_.now() + kSlice, episode_end_));
  const std::int64_t t1 = now_ns();
  tracer.record(kSimSlice, t0, t1);
  if (sim_.now() >= episode_end_) end_episode();
  return t1 - t0;
}

std::uint64_t FitBuilding::step(Tracer& tracer, std::vector<std::int64_t>& calls) {
  calls.push_back(run_slice(tracer));
  const std::uint64_t delivered = delivered_packets();
  const std::uint64_t ops = delivered - last_delivered_;
  last_delivered_ = delivered;
  return ops;
}

Counts FitBuilding::counts() const {
  Counts out;
  out.emplace_back("packets_sent", sent_packets());
  out.emplace_back("packets_delivered", delivered_packets());
  out.emplace_back("bytes_delivered", delivered_bytes());
  out.emplace_back("sim_events", sim_events_);
  std::uint64_t se_packets = 0;
  for (const auto& se : network_.service_elements()) se_packets += se->processed_packets();
  out.emplace_back("se_packets", se_packets);
  std::uint64_t forwarded = 0;
  std::uint64_t lookups = 0;
  std::uint64_t misses = 0;
  for (const auto& sw : network_.as_switches()) {
    forwarded += sw->packets_forwarded();
    lookups += sw->flow_table().lookups();
    misses += sw->flow_table().misses();
  }
  out.emplace_back("switch_packets_forwarded", forwarded);
  out.emplace_back("flow_table_lookups", lookups);
  out.emplace_back("flow_table_misses", misses);
  out.emplace_back("flows_installed", controller_.stats().flows_installed);
  return out;
}

std::vector<StateSize> FitBuilding::live_state() const {
  std::size_t entries = 0;
  std::size_t se_queue = 0;
  for (const auto& sw : network_.as_switches()) entries += sw->flow_table().size();
  for (const auto& se : network_.service_elements()) se_queue += se->queue_depth();
  return {
      {"active_flows", controller_.active_flows(), 64},
      {"flow_table_entries", entries, 1024},
      {"se_queue_packets", se_queue, 4096},
      {"sim_pending_events", sim_.pending_events(), 65536},
  };
}

std::vector<std::string> FitBuilding::finish_and_check() {
  Tracer off;
  while (in_episode_) run_slice(off);
  std::vector<std::string> failures = episode_failures_;
  for (const auto& se : network_.service_elements()) {
    if (se->overload_drops() != 0) failures.push_back("SE overload drops");
    if (se->events_sent() != 0) failures.push_back("IDS raised an alert on benign traffic");
  }
  if (attempted() != completed()) {
    failures.push_back("sent " + std::to_string(attempted()) + " != delivered " +
                       std::to_string(completed()));
  }
  return failures;
}

void FitBuilding::layer_metrics(const Counts& before, const Counts& after, double wall_s,
                                Metrics& out) {
  const double delivered = static_cast<double>(delta(before, after, "packets_delivered"));
  const double events = static_cast<double>(delta(before, after, "sim_events"));
  const double lookups = static_cast<double>(delta(before, after, "flow_table_lookups"));
  out.add("switching.packets_forwarded",
          static_cast<double>(delta(before, after, "switch_packets_forwarded")), "count");
  out.add("switching.miss_ratio",
          lookups > 0 ? static_cast<double>(delta(before, after, "flow_table_misses")) / lookups : 0,
          "ratio");
  out.add("sim.events_per_packet", delivered > 0 ? events / delivered : 0, "count");
  out.add("sim.events_per_s", wall_s > 0 ? events / wall_s : 0, "1/s");
  out.add("services.se_packets", static_cast<double>(delta(before, after, "se_packets")), "count");

  // The packets each client sends, one per flow, as the switches see them.
  std::vector<std::pair<PortId, pkt::PacketPtr>> packets;
  for (std::size_t a = 0; a < apps_.size(); ++a) {
    const std::size_t c = a / static_cast<std::size_t>(params_.flows_per_client);
    const int f = static_cast<int>(a % static_cast<std::size_t>(params_.flows_per_client));
    net::Host* client = clients_[c];
    const sim::Link* link = client->port(0).link();
    const sim::Port& sw_port = &link->end_a() == &client->port(0) ? link->end_b() : link->end_a();
    packets.emplace_back(sw_port.id(),
                         pkt::PacketBuilder()
                             .eth(client->mac(), sinks_[c]->mac())
                             .ipv4(client->ip(), sinks_[c]->ip(), pkt::IpProto::kUdp)
                             .udp(static_cast<std::uint16_t>(40000 + f),
                                  static_cast<std::uint16_t>(9000 + f))
                             .payload(flows_[a].content)
                             .finalize());
  }

  // FlowTable::lookup on the clients' switch table (its ingress entries).
  of::FlowTable* table = nullptr;
  for (const auto& sw : network_.as_switches()) {
    if (sw->flow_table().peek(packets.front().first,
                              pkt::FlowKey::from_packet(*packets.front().second),
                              sim_.now()) != nullptr) {
      table = &sw->flow_table();
    }
  }
  double lookup_ns = 0;
  if (table != nullptr) {
    std::vector<std::pair<PortId, pkt::FlowKey>> keys;
    for (const auto& [port, packet] : packets) keys.emplace_back(port, pkt::FlowKey::from_packet(*packet));
    const SimTime now = sim_.now();
    std::uintptr_t sink = 0;
    std::int64_t elapsed = 0;
    std::uint64_t calls = 0;
    while (elapsed < 50'000'000) {
      const std::int64_t t0 = now_ns();
      for (int rep = 0; rep < 1000; ++rep) {
        for (const auto& [port, key] : keys) {
          sink += reinterpret_cast<std::uintptr_t>(table->lookup(port, key, 1442, now));
        }
      }
      elapsed += now_ns() - t0;
      calls += 1000 * keys.size();
    }
    volatile std::uintptr_t keep = sink;
    (void)keep;
    lookup_ns = static_cast<double>(elapsed) / static_cast<double>(calls);
  }
  out.add("openflow.flow_table_lookup_ns", lookup_ns, "ns");

  // IdsEngine::inspect on the workload's packet mix (64 B and 1400 B).
  svc::ids::IdsEngine ids;
  std::int64_t elapsed = 0;
  double kb = 0;
  while (elapsed < 50'000'000) {
    const std::int64_t t0 = now_ns();
    for (int rep = 0; rep < 100; ++rep) {
      for (const auto& [port, packet] : packets) ids.inspect(*packet);
    }
    elapsed += now_ns() - t0;
    for (const auto& [port, packet] : packets) kb += 100.0 * static_cast<double>(packet->payload_size()) / 1024.0;
  }
  out.add("services.ids_inspect_ns_per_kb", static_cast<double>(elapsed) / kb, "ns/KB");
}

}  // namespace

std::unique_ptr<Workload> make_fit_building(const FitParams& params) {
  return std::make_unique<FitBuilding>(params);
}

}  // namespace steady
