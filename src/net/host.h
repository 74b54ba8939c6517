// End hosts of the Network-Periphery layer: wired/wireless users, servers
// and the Internet gateway.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/ip_address.h"
#include "common/mac_address.h"
#include "packet/packet.h"
#include "sim/node.h"

namespace livesec::net {

/// A host with one NIC (port 0): ARP (with cache and pending queue), ICMP
/// echo, and UDP/TCP receive dispatch for the traffic applications.
class Host : public sim::Node {
 public:
  struct PingResult {
    std::uint16_t seq = 0;
    SimTime rtt = 0;
  };

  struct PingStats {
    std::vector<PingResult> results;
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    SimTime min_rtt = 0;
    SimTime max_rtt = 0;
    double avg_rtt() const {
      if (results.empty()) return 0.0;
      double sum = 0;
      for (const auto& r : results) sum += static_cast<double>(r.rtt);
      return sum / static_cast<double>(results.size());
    }
  };

  using PacketHandler = std::function<void(const pkt::Packet&)>;

  Host(sim::Simulator& sim, std::string name, MacAddress mac, Ipv4Address ip);

  MacAddress mac() const { return mac_; }
  Ipv4Address ip() const { return ip_; }

  /// Announces presence via gratuitous ARP (paper §III.C.2: the host's ARP
  /// flow is how the controller learns its location).
  void announce();

  /// Enables periodic gratuitous-ARP refresh (OS-style ARP revalidation) so
  /// the controller's routing-table entry stays fresh while the host is up
  /// (Network::start() arms it for every host it starts). Announces now.
  /// Call disable_periodic_announce() to simulate the host leaving.
  void enable_periodic_announce(SimTime interval);
  void disable_periodic_announce() { ++announce_epoch_; }

  /// Acquires an address via DHCP (DISCOVER -> OFFER -> REQUEST -> ACK
  /// against the controller's directory proxy). `on_bound` fires with the
  /// leased address; retries every `retry` until bound.
  void start_dhcp(std::function<void(Ipv4Address)> on_bound = {},
                  SimTime retry = 500 * kMillisecond);
  bool dhcp_bound() const { return dhcp_bound_; }

  /// Sends an IP packet, resolving the destination MAC via ARP if needed
  /// (packets queue behind resolution). `packet.ipv4->dst` selects the target.
  void send_ip(pkt::Packet packet);

  /// Sends `count` ICMP echo requests to `dst`, one every `interval`;
  /// `on_done` fires after the last reply arrives or `timeout` passes.
  void ping(Ipv4Address dst, int count, SimTime interval,
            std::function<void(const PingStats&)> on_done = {},
            SimTime timeout = 2 * kSecond);

  const PingStats& ping_stats() const { return ping_stats_; }

  /// Registers a handler for UDP/TCP packets arriving on `dst_port`.
  void on_udp(std::uint16_t port, PacketHandler handler);
  void on_tcp(std::uint16_t port, PacketHandler handler);
  /// Fallback handler for any IP packet not claimed by a port handler.
  void on_ip_default(PacketHandler handler) { default_handler_ = std::move(handler); }

  void handle_packet(PortId in_port, pkt::PacketPtr packet) override;

  // Receive accounting (throughput measurements read these).
  std::uint64_t rx_ip_packets() const { return rx_ip_packets_; }
  std::uint64_t rx_ip_bytes() const { return rx_ip_bytes_; }
  std::uint64_t rx_payload_bytes() const { return rx_payload_bytes_; }
  std::uint64_t tx_ip_packets() const { return tx_ip_packets_; }

  /// Clears receive counters (between benchmark phases).
  void reset_counters();

  /// Drops the ARP cache (tests).
  void flush_arp_cache() { arp_cache_.clear(); }
  bool arp_cached(Ipv4Address ip) const { return arp_cache_.contains(ip); }

 private:
  void send_arp_request(Ipv4Address target);
  void flush_pending(Ipv4Address resolved, MacAddress mac);
  void finish_ping();
  void schedule_announce(SimTime interval, std::uint64_t epoch);

  MacAddress mac_;
  Ipv4Address ip_;

  std::unordered_map<Ipv4Address, MacAddress> arp_cache_;
  std::unordered_map<Ipv4Address, std::vector<pkt::Packet>> pending_;

  std::unordered_map<std::uint16_t, PacketHandler> udp_handlers_;
  std::unordered_map<std::uint16_t, PacketHandler> tcp_handlers_;
  PacketHandler default_handler_;

  // Ping state.
  PingStats ping_stats_;
  std::unordered_map<std::uint16_t, SimTime> ping_sent_at_;
  std::uint16_t ping_next_seq_ = 1;
  std::uint16_t ping_id_ = 0;
  int ping_outstanding_ = 0;
  std::function<void(const PingStats&)> ping_done_;
  bool ping_finished_ = false;

  std::uint64_t rx_ip_packets_ = 0;
  std::uint64_t rx_ip_bytes_ = 0;
  std::uint64_t rx_payload_bytes_ = 0;
  std::uint64_t tx_ip_packets_ = 0;
  std::uint64_t announce_epoch_ = 0;

  // DHCP client state.
  bool dhcp_running_ = false;
  bool dhcp_bound_ = false;
  std::uint32_t dhcp_xid_ = 0;
  std::function<void(Ipv4Address)> dhcp_on_bound_;
};

}  // namespace livesec::net
