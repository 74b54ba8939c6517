#include "sim/node.h"

#include <cassert>

#include "sim/simulator.h"

namespace livesec::sim {

void Port::transmit(pkt::PacketPtr packet) {
  if (link_ == nullptr) {
    ++dropped_;
    return;
  }
  ++tx_packets_;
  tx_bytes_ += packet->wire_size();
  link_->enqueue(*this, std::move(packet));
}

void Port::receive(pkt::PacketPtr packet) {
  ++rx_packets_;
  rx_bytes_ += packet->wire_size();
  owner_->handle_packet(id_, std::move(packet));
}

Link::Link(Simulator& sim, Port& a, Port& b, Config config)
    : a_(&a), b_(&b), config_(config), sim_(&sim) {
  assert(a_->link_ == nullptr && b_->link_ == nullptr && "port already wired");
  a_->link_ = this;
  b_->link_ = this;
}

Link::~Link() {
  a_->link_ = nullptr;
  b_->link_ = nullptr;
}

void Link::release_arrived(int dir) {
  std::vector<InFlight>& fifo = in_flight_[dir];
  std::size_t& head = in_flight_head_[dir];
  const SimTime now = sim_->now();
  while (head < fifo.size() && fifo[head].arrival <= now) backlog_[dir] -= fifo[head++].bytes;
  if (head == fifo.size()) {
    fifo.clear();
    head = 0;
  } else if (head >= 64 && head * 2 >= fifo.size()) {
    // A link whose queue never drains would otherwise keep one dead entry
    // per packet; dropping the prefix once it is half the vector keeps the
    // shift amortized O(1).
    fifo.erase(fifo.begin(), fifo.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
}

std::size_t Link::backlog_bytes(int direction) const {
  std::size_t arrived = 0;
  const std::vector<InFlight>& fifo = in_flight_[direction];
  for (std::size_t i = in_flight_head_[direction];
       i < fifo.size() && fifo[i].arrival <= sim_->now(); ++i) {
    arrived += fifo[i].bytes;
  }
  return backlog_[direction] - arrived;
}

void Link::enqueue(Port& from, pkt::PacketPtr packet) {
  const int dir = (&from == a_) ? 0 : 1;
  const std::size_t size = packet->wire_size();

  release_arrived(dir);
  if (backlog_[dir] + size > config_.max_queue_bytes) {
    ++dropped_packets_[dir];
    ++from.dropped_;
    return;
  }

  const SimTime now = sim_->now();
  const SimTime serialization =
      static_cast<SimTime>(static_cast<double>(size) * 8.0 / config_.bandwidth_bps * kSecond);
  const SimTime start = busy_until_[dir] > now ? busy_until_[dir] : now;
  const SimTime done = start + serialization;
  busy_until_[dir] = done;
  backlog_[dir] += size;

  const SimTime arrival = done + config_.propagation_delay;
  in_flight_[dir].push_back(InFlight{arrival, size});
  const SimTime ingress_delay = ((dir == 0) ? b_ : a_)->owner().ingress_delay();
  // Capture kept to 32 bytes (this, packed dir+size, PacketPtr) so the
  // callback stays inside InlineFunction's inline storage; the destination
  // port is recomputed from the direction on delivery, after the receiver's
  // ingress delay.
  const std::uint32_t size32 = static_cast<std::uint32_t>(size);
  const std::uint8_t dir8 = static_cast<std::uint8_t>(dir);
  sim_->schedule_at(arrival + ingress_delay,
                    [this, dir8, size32, packet = std::move(packet)]() mutable {
                      ++delivered_packets_[dir8];
                      delivered_bytes_[dir8] += size32;
                      Port* to = (dir8 == 0) ? b_ : a_;
                      to->receive(std::move(packet));
                    });
}

Port& Node::add_port() {
  const PortId id = static_cast<PortId>(ports_.size());
  ports_.push_back(std::make_unique<Port>(*this, id));
  return *ports_.back();
}

void Node::send(PortId out, pkt::PacketPtr packet) {
  if (out >= ports_.size()) return;
  ports_[out]->transmit(std::move(packet));
}

std::unique_ptr<Link> connect(Simulator& sim, Port& a, Port& b, Link::Config config) {
  return std::make_unique<Link>(sim, a, b, config);
}

}  // namespace livesec::sim
