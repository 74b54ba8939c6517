// Control-plane pieces of the controller workload: the switch side of each
// secure channel, the bounded window of live flows that FlowRemoved closes,
// input builders, and replays of recorded inputs against single layers.
#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "controller/controller.h"
#include "harness.h"
#include "openflow/channel.h"
#include "packet/flow_key.h"
#include "packet/packet.h"

namespace steady {

using namespace livesec;

/// Counts what the controller pushes to every switch of one workload, and
/// remembers each installed flow's ingress entry (the one that asked for a
/// FlowRemoved) so the flow can be expired later.
struct SwitchCounters {
  struct LiveFlow {
    DatapathId dpid = 0;
    std::uint64_t cookie = 0;
    of::Match match;
    std::uint16_t priority = 0;
  };
  std::uint64_t messages = 0;
  std::uint64_t flow_mods = 0;
  std::deque<LiveFlow> live;
};

/// The switch end of a secure channel: counts, never forwards.
class SwitchSide : public of::SwitchEndpoint {
 public:
  SwitchSide(DatapathId dpid, SwitchCounters& counters) : dpid_(dpid), counters_(&counters) {}
  DatapathId datapath_id() const override { return dpid_; }
  void handle_controller_message(const of::Message& message) override;

 private:
  void note(const of::FlowMod& mod);

  DatapathId dpid_;
  SwitchCounters* counters_;
};

/// Keeps at most `bound` flows live: every flow past the bound, oldest
/// first, is closed with an idle-timeout FlowRemoved, as its switch would
/// report it. This keeps the controller's flow state stationary.
class LiveWindow {
 public:
  LiveWindow(SwitchCounters& counters, std::size_t bound) : counters_(&counters), bound_(bound) {}

  /// Sends FlowRemoved for the flows past the bound.
  void expire(ctrl::Controller& controller, Tracer& tracer);

  std::size_t bound() const { return bound_; }
  std::uint64_t removed() const { return removed_; }

 private:
  SwitchCounters* counters_;
  std::size_t bound_;
  std::uint64_t removed_ = 0;
  std::vector<std::pair<DatapathId, of::Message>> pending_;
};

pkt::PacketPtr gratuitous_arp(MacAddress mac, Ipv4Address ip);
pkt::PacketPtr udp_packet(MacAddress src_mac, Ipv4Address src_ip, MacAddress dst_mac,
                          Ipv4Address dst_ip, std::uint16_t tp_src, std::uint16_t tp_dst);
of::Message packet_in(PortId in_port, pkt::PacketPtr packet);

/// Adds `count` policies: fully specified (mac, mac) allow rules and /24
/// deny rules over address pools no workload host uses, so every one is
/// consulted but none matches. The caller adds the rules that do match.
void add_policy_pool(ctrl::PolicyTable& table, int count);

/// Wall time of one `handle_switch_message` call, recorded as a span.
inline std::int64_t timed_call(ctrl::Controller& controller, DatapathId dpid,
                               const of::Message& message, Tracer& tracer, Layer layer) {
  const std::int64_t t0 = now_ns();
  controller.handle_switch_message(dpid, message);
  const std::int64_t t1 = now_ns();
  tracer.record(layer, t0, t1);
  return t1 - t0;
}

// --- replays: one layer's public call, timed on inputs the traced run sent --

/// One host announcement as the controller files it in its routing table
/// and topology graph.
struct HostAnnounce {
  MacAddress mac;
  Ipv4Address ip;
  DatapathId dpid = 0;
  PortId port = kInvalidPort;
};
/// Hosts of the campus the routing, topology and policy replays run at: a
/// million hosts, 256 per access switch, so the tables outgrow the L3 cache
/// the way a production campus does.
inline constexpr std::size_t kCampusHosts = 1'000'000;
std::vector<HostAnnounce> campus_hosts(std::size_t count);
/// The traced flow keys with each endpoint moved onto a seed-drawn campus
/// host; ports and protocols are kept.
std::vector<pkt::FlowKey> spread_over_campus(const std::vector<pkt::FlowKey>& keys,
                                             const std::vector<HostAnnounce>& hosts,
                                             std::uint64_t seed);

/// ns per PolicyTable::lookup over `keys` (their decision classes).
double replay_policy_lookup_ns(const ctrl::PolicyTable& table, const std::vector<pkt::FlowKey>& keys);
/// ns per RoutingTable::find / find_by_ip over the keys' endpoints, in a
/// routing table that has learned every one of `hosts`.
double replay_routing_find_ns(const std::vector<HostAnnounce>& hosts,
                              const std::vector<pkt::FlowKey>& keys);
/// ns per TopologyGraph::upsert_node, filing `hosts` into fresh graphs.
double replay_upsert_node_ns(const std::vector<HostAnnounce>& hosts);
/// ns per event of EventPipeline::append_batch, re-ingesting the rows the
/// controller's pipeline still holds (read back through query_range) into a
/// fresh pipeline with the same row bound.
double replay_append_ns_per_event(const mon::EventPipeline& source, std::size_t capacity);

/// Decision cache, message and event ratios from counter deltas over the
/// traced half.
void controller_layer_metrics(const Counts& before, const Counts& after, Metrics& out);
/// Controller and switch-endpoint counters.
void add_controller_counts(const ctrl::Controller& controller, const SwitchCounters& sw,
                           Counts& out);

}  // namespace steady
