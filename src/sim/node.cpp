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

void Link::enqueue(Port& from, pkt::PacketPtr packet) {
  const int dir = (&from == a_) ? 0 : 1;
  const std::size_t size = packet->wire_size();

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
  // Capture kept to 32 bytes (this, packed dir+size, PacketPtr) so the
  // callback stays inside InlineFunction's inline storage; the destination
  // port is recomputed from the direction on delivery.
  const std::uint32_t size32 = static_cast<std::uint32_t>(size);
  const std::uint8_t dir8 = static_cast<std::uint8_t>(dir);
  sim_->schedule_at(arrival, [this, dir8, size32, packet = std::move(packet)]() mutable {
    backlog_[dir8] -= size32;
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
