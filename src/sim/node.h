// Node/Port/Link: the physical substrate of the simulated network.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "packet/packet.h"

namespace livesec::sim {

class Simulator;
class Node;
class Link;

/// One physical interface of a Node. Ports are created by the node and wired
/// to at most one Link.
class Port {
 public:
  Port(Node& owner, PortId id) : owner_(&owner), id_(id) {}

  PortId id() const { return id_; }
  Node& owner() const { return *owner_; }
  Link* link() const { return link_; }
  bool connected() const { return link_ != nullptr; }

  /// Transmits a packet onto the attached link (no-op + drop counter when
  /// unwired). Delivery to the peer is scheduled by the link.
  void transmit(pkt::PacketPtr packet);

  /// Called by the link once a packet has arrived at this port and waited
  /// out the owner's ingress delay; the rx counters tick here, at
  /// arrival + `Node::ingress_delay()`.
  void receive(pkt::PacketPtr packet);

  std::uint64_t tx_packets() const { return tx_packets_; }
  std::uint64_t rx_packets() const { return rx_packets_; }
  std::uint64_t tx_bytes() const { return tx_bytes_; }
  std::uint64_t rx_bytes() const { return rx_bytes_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  friend class Link;

  Node* owner_;
  PortId id_;
  Link* link_ = nullptr;
  std::uint64_t tx_packets_ = 0;
  std::uint64_t rx_packets_ = 0;
  std::uint64_t tx_bytes_ = 0;
  std::uint64_t rx_bytes_ = 0;
  std::uint64_t dropped_ = 0;
};

/// A full-duplex point-to-point link with finite bandwidth, propagation
/// delay, and a bounded FIFO transmit queue per direction.
///
/// Serialization time = bytes*8/bandwidth; a packet finishing serialization
/// then propagates for `propagation_delay`. When the queue backlog exceeds
/// `max_queue_bytes` the packet is dropped (tail drop), which is what caps
/// throughput at link capacity in every experiment of paper §V.B.1.
///
/// Delivery is one kernel event at arrival + the receiving node's
/// `ingress_delay()`. The backlog still counts a packet only until its
/// arrival, so the receiver's pipeline latency never inflates tail drops.
class Link {
 public:
  struct Config {
    double bandwidth_bps = 1e9;       // 1 GbE by default
    SimTime propagation_delay = 5 * kMicrosecond;
    std::size_t max_queue_bytes = 512 * 1024;
  };

  Link(Simulator& sim, Port& a, Port& b, Config config);
  ~Link();

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  const Config& config() const { return config_; }

  /// Endpoint ports.
  Port& end_a() const { return *a_; }
  Port& end_b() const { return *b_; }

  /// Bytes queued, serializing or propagating in the a->b (idx 0) or b->a
  /// (idx 1) direction: every packet whose arrival is still in the future.
  std::size_t backlog_bytes(int direction) const;

  std::uint64_t delivered_packets() const {
    return delivered_packets_[0] + delivered_packets_[1];
  }
  std::uint64_t dropped_packets() const {
    return dropped_packets_[0] + dropped_packets_[1];
  }
  std::uint64_t delivered_bytes() const {
    return delivered_bytes_[0] + delivered_bytes_[1];
  }

 private:
  friend class Port;

  /// Enqueues `packet` for transmission from `from`; drops on overflow.
  void enqueue(Port& from, pkt::PacketPtr packet);
  /// Releases from `backlog_[dir]` every packet that has arrived by now.
  void release_arrived(int dir);

  /// A packet counted in the backlog until `arrival`.
  struct InFlight {
    SimTime arrival;
    std::size_t bytes;
  };

  Port* a_;
  Port* b_;
  Config config_;
  Simulator* sim_;
  // Per-direction serializer state and counters, indexed by sending
  // direction (0 = a->b).
  SimTime busy_until_[2] = {0, 0};
  std::size_t backlog_[2] = {0, 0};
  // Per-direction FIFO of packets still counted in `backlog_`. Arrivals are
  // monotone per direction, so the arrived ones form a prefix; `in_flight_head_`
  // skips it until compaction.
  std::vector<InFlight> in_flight_[2];
  std::size_t in_flight_head_[2] = {0, 0};
  std::uint64_t delivered_packets_[2] = {0, 0};
  std::uint64_t dropped_packets_[2] = {0, 0};
  std::uint64_t delivered_bytes_[2] = {0, 0};
};

/// Base class for anything that owns ports and reacts to packets: hosts,
/// legacy switches, AS switches, Wi-Fi APs, service element hypervisor NICs.
class Node {
 public:
  Node(Simulator& sim, std::string name) : sim_(&sim), name_(std::move(name)) {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  Simulator& simulator() const { return *sim_; }
  const std::string& name() const { return name_; }

  /// Creates a new port with the next free id and returns it.
  Port& add_port();

  Port& port(PortId id) { return *ports_.at(id); }
  const Port& port(PortId id) const { return *ports_.at(id); }
  std::size_t port_count() const { return ports_.size(); }

  /// Invoked when a packet arrives on `in_port`, `ingress_delay()` after
  /// its last bit reached the port.
  virtual void handle_packet(PortId in_port, pkt::PacketPtr packet) = 0;

  /// Fixed latency between a packet's arrival on a port and
  /// `handle_packet`: the node's per-packet pipeline cost, applied by the
  /// link so a hop costs one kernel event. Zero unless a subclass sets it.
  SimTime ingress_delay() const { return ingress_delay_; }

 protected:
  void set_ingress_delay(SimTime delay) { ingress_delay_ = delay; }

  /// Sends `packet` out of port `out`, if that port exists and is wired.
  void send(PortId out, pkt::PacketPtr packet);

 private:
  Simulator* sim_;
  std::string name_;
  std::vector<std::unique_ptr<Port>> ports_;
  SimTime ingress_delay_ = 0;
};

/// Wires two ports together with a fresh link owned by the returned pointer.
std::unique_ptr<Link> connect(Simulator& sim, Port& a, Port& b, Link::Config config = {});

}  // namespace livesec::sim
