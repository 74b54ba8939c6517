#include "control_plane.h"

#include <limits>
#include <string>

#include "controller/routing_table.h"
#include "monitor/event_pipeline.h"
#include "topology/topology_graph.h"

namespace steady {

void SwitchSide::note(const of::FlowMod& mod) {
  ++counters_->flow_mods;
  if (mod.command == of::FlowModCommand::kAdd && mod.notify_on_removal) {
    counters_->live.push_back(
        SwitchCounters::LiveFlow{dpid_, mod.entry.cookie, mod.entry.match, mod.entry.priority});
  }
}

void SwitchSide::handle_controller_message(const of::Message& message) {
  ++counters_->messages;
  if (const auto* mod = std::get_if<of::FlowMod>(&message)) {
    note(*mod);
  } else if (const auto* batch = std::get_if<of::FlowModBatch>(&message)) {
    for (const of::FlowMod& m : batch->mods) note(m);
  }
}

void LiveWindow::expire(ctrl::Controller& controller, Tracer& tracer) {
  std::deque<SwitchCounters::LiveFlow>& live = counters_->live;
  if (live.size() <= bound_) return;
  {
    Scope scope(tracer, kHarness);
    pending_.clear();
    while (live.size() > bound_) {
      const SwitchCounters::LiveFlow& flow = live.front();
      of::FlowRemoved removed;
      removed.match = flow.match;
      removed.priority = flow.priority;
      removed.cookie = flow.cookie;
      removed.reason = of::RemovalReason::kIdleTimeout;
      removed.packet_count = 1 + flow.cookie % 16;
      removed.byte_count = removed.packet_count * 800;
      pending_.emplace_back(flow.dpid, of::Message{std::move(removed)});
      live.pop_front();
    }
  }
  for (const auto& [dpid, message] : pending_) {
    timed_call(controller, dpid, message, tracer, kControllerFlowRemoved);
  }
  removed_ += pending_.size();
}

pkt::PacketPtr gratuitous_arp(MacAddress mac, Ipv4Address ip) {
  return pkt::PacketBuilder()
      .eth(mac, MacAddress::broadcast())
      .arp(pkt::ArpOp::kRequest, mac, ip, MacAddress{}, ip)
      .finalize();
}

pkt::PacketPtr udp_packet(MacAddress src_mac, Ipv4Address src_ip, MacAddress dst_mac,
                          Ipv4Address dst_ip, std::uint16_t tp_src, std::uint16_t tp_dst) {
  return pkt::PacketBuilder()
      .eth(src_mac, dst_mac)
      .ipv4(src_ip, dst_ip, pkt::IpProto::kUdp)
      .udp(tp_src, tp_dst)
      .finalize();
}

of::Message packet_in(PortId in_port, pkt::PacketPtr packet) {
  of::PacketIn pin;
  pin.in_port = in_port;
  pin.buffer_id = of::PacketOut::kNoBuffer;
  pin.packet = std::move(packet);
  return of::Message{std::move(pin)};
}

void add_policy_pool(ctrl::PolicyTable& table, int count) {
  for (int i = 0; i < count; ++i) {
    ctrl::Policy p;
    p.priority = 1000 + i;
    if (i % 8 == 7) {
      p.name = "subnet" + std::to_string(i);
      p.nw_dst = Ipv4Address(192, 168, static_cast<std::uint8_t>(i % 256), 0);
      p.nw_dst_prefix = 24;
      p.action = ctrl::PolicyAction::kDeny;
    } else {
      p.name = "pair" + std::to_string(i);
      p.src_mac = MacAddress::from_uint64(0x900000u + static_cast<unsigned>(i));
      p.dst_mac = MacAddress::from_uint64(0xA00000u + static_cast<unsigned>(i));
      p.action = ctrl::PolicyAction::kAllow;
    }
    table.add(p);
  }
}

namespace {

/// Repeats `pass` (which performs `ops` calls) until at least 50 ms have
/// been timed; returns ns per call.
template <typename Pass>
double time_per_call(std::size_t ops, Pass&& pass) {
  if (ops == 0) return 0;
  std::int64_t elapsed = 0;
  std::size_t calls = 0;
  while (elapsed < 50'000'000 || calls == 0) {
    const std::int64_t t0 = now_ns();
    pass();
    elapsed += now_ns() - t0;
    calls += ops;
  }
  return static_cast<double>(elapsed) / static_cast<double>(calls);
}

}  // namespace

std::vector<HostAnnounce> campus_hosts(std::size_t count) {
  std::vector<HostAnnounce> hosts;
  hosts.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    hosts.push_back(HostAnnounce{MacAddress::from_uint64(0x020000000000ull + i + 1),
                                 Ipv4Address(0x0A000000u + static_cast<std::uint32_t>(i) + 1),
                                 1000 + i / 256, static_cast<PortId>(i % 256)});
  }
  return hosts;
}

std::vector<pkt::FlowKey> spread_over_campus(const std::vector<pkt::FlowKey>& keys,
                                             const std::vector<HostAnnounce>& hosts,
                                             std::uint64_t seed) {
  std::vector<pkt::FlowKey> out = keys;
  if (hosts.empty()) return out;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::uint64_t r = mix64(seed ^ (i << 20));
    const HostAnnounce& src = hosts[r % hosts.size()];
    const HostAnnounce& dst = hosts[(r >> 32) % hosts.size()];
    out[i].dl_src = src.mac;
    out[i].nw_src = src.ip;
    out[i].dl_dst = dst.mac;
    out[i].nw_dst = dst.ip;
  }
  return out;
}

double replay_policy_lookup_ns(const ctrl::PolicyTable& table,
                               const std::vector<pkt::FlowKey>& keys) {
  std::vector<pkt::FlowKey> classes = keys;
  for (pkt::FlowKey& k : classes) k.tp_src = 0;  // the controller looks up the class
  std::uintptr_t sink = 0;
  const double ns = time_per_call(classes.size(), [&] {
    for (const pkt::FlowKey& k : classes) sink += reinterpret_cast<std::uintptr_t>(table.lookup(k));
  });
  volatile std::uintptr_t keep = sink;
  (void)keep;
  return ns;
}

double replay_routing_find_ns(const std::vector<HostAnnounce>& hosts,
                              const std::vector<pkt::FlowKey>& keys) {
  ctrl::RoutingTable table;
  for (const HostAnnounce& h : hosts) table.learn(h.mac, h.ip, h.dpid, h.port, 0);
  std::uintptr_t sink = 0;
  const double ns = time_per_call(4 * keys.size(), [&] {
    for (const pkt::FlowKey& k : keys) {
      sink += reinterpret_cast<std::uintptr_t>(table.find(k.dl_src));
      sink += reinterpret_cast<std::uintptr_t>(table.find(k.dl_dst));
      sink += reinterpret_cast<std::uintptr_t>(table.find_by_ip(k.nw_src));
      sink += reinterpret_cast<std::uintptr_t>(table.find_by_ip(k.nw_dst));
    }
  });
  volatile std::uintptr_t keep = sink;
  (void)keep;
  return ns;
}

double replay_upsert_node_ns(const std::vector<HostAnnounce>& hosts) {
  if (hosts.empty()) return 0;
  std::vector<std::pair<std::string, topo::TopologyGraph::AttachedNode>> inputs;
  inputs.reserve(hosts.size());
  for (const HostAnnounce& h : hosts) {
    topo::TopologyGraph::AttachedNode node;
    node.name = h.ip.to_string();
    node.kind = topo::NodeKind::kHost;
    node.dpid = h.dpid;
    node.port = h.port;
    inputs.emplace_back(h.mac.to_string(), std::move(node));
  }
  // Each pass files every host into a fresh graph; the graph is freed
  // outside the timed part.
  std::int64_t elapsed = 0;
  std::size_t calls = 0;
  while (elapsed < 50'000'000) {
    topo::TopologyGraph graph;
    const std::int64_t t0 = now_ns();
    for (const auto& [key, node] : inputs) graph.upsert_node(key, node);
    elapsed += now_ns() - t0;
    calls += inputs.size();
  }
  return static_cast<double>(elapsed) / static_cast<double>(calls);
}

double replay_append_ns_per_event(const mon::EventPipeline& source, std::size_t capacity) {
  const std::vector<mon::NetworkEvent> rows =
      source.query_range(0, std::numeric_limits<SimTime>::max());
  if (rows.empty()) return 0;
  constexpr std::size_t kBatch = 256;
  std::int64_t elapsed = 0;
  std::size_t appended = 0;
  while (elapsed < 50'000'000) {
    mon::EventPipeline pipeline(mon::EventPipeline::config_for_capacity(capacity));
    std::vector<std::vector<mon::NetworkEvent>> batches;
    for (std::size_t i = 0; i < rows.size(); i += kBatch) {
      batches.emplace_back(rows.begin() + static_cast<std::ptrdiff_t>(i),
                           rows.begin() + static_cast<std::ptrdiff_t>(std::min(i + kBatch, rows.size())));
    }
    const std::int64_t t0 = now_ns();
    for (auto& batch : batches) appended += pipeline.append_batch(std::move(batch));
    elapsed += now_ns() - t0;
  }
  return static_cast<double>(elapsed) / static_cast<double>(appended);
}

void add_controller_counts(const ctrl::Controller& controller, const SwitchCounters& sw,
                           Counts& out) {
  const ctrl::Controller::Stats& s = controller.stats();
  out.emplace_back("packet_ins", s.packet_ins);
  out.emplace_back("flows_installed", s.flows_installed);
  out.emplace_back("decision_cache_hits", s.fastpath.decision_cache_hits);
  out.emplace_back("decision_cache_misses", s.fastpath.decision_cache_misses);
  out.emplace_back("decision_cache_invalidations", s.fastpath.decision_cache_invalidations);
  out.emplace_back("switch_messages", sw.messages);
  out.emplace_back("flow_mods", sw.flow_mods);
  out.emplace_back("events_appended", controller.events().counters().appended);
  out.emplace_back("active_flows", controller.active_flows());
}

void controller_layer_metrics(const Counts& before, const Counts& after, Metrics& out) {
  const double setups = static_cast<double>(delta(before, after, "setups"));
  const auto per_setup = [&](const char* name) {
    return setups > 0 ? static_cast<double>(delta(before, after, name)) / setups : 0.0;
  };
  const double hits = static_cast<double>(delta(before, after, "decision_cache_hits"));
  const double misses = static_cast<double>(delta(before, after, "decision_cache_misses"));
  out.add("controller.decision_cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
          "ratio");
  out.add("controller.decision_cache_invalidations",
          static_cast<double>(delta(before, after, "decision_cache_invalidations")), "count");
  out.add("controller.flowmods_per_setup", per_setup("flow_mods"), "count");
  out.add("controller.messages_per_setup", per_setup("switch_messages"), "count");
  out.add("controller.setups_failed",
          setups - static_cast<double>(delta(before, after, "flows_installed")), "count");
  out.add("monitor.events_per_setup", per_setup("events_appended"), "count");
}

}  // namespace steady
