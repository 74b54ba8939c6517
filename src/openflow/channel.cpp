#include "openflow/channel.h"

#include <memory>
#include <utility>

#include "openflow/wire.h"
#include "sim/simulator.h"

namespace livesec::of {

SecureChannel::SecureChannel(sim::Simulator& sim, SwitchEndpoint& sw,
                             ControllerEndpoint& controller, SimTime one_way_latency)
    : switch_(&sw),
      controller_(&controller),
      sim_(&sim),
      latency_(one_way_latency) {}

void SecureChannel::connect(const FeaturesReply& features) {
  if (connected_) return;
  connected_ = true;
  const DatapathId dpid = switch_->datapath_id();
  sim_->schedule(latency_, [this, dpid, features]() {
    controller_->handle_switch_connected(dpid, features);
  });
}

void SecureChannel::disconnect() {
  if (!connected_) return;
  connected_ = false;
  const DatapathId dpid = switch_->datapath_id();
  sim_->schedule(latency_, [this, dpid]() {
    controller_->handle_switch_disconnected(dpid);
  });
}

std::optional<Message> SecureChannel::transport(Message&& message, Direction dir) {
  if (!wire_encoding_) return std::move(message);
  const auto bytes = encode_message(message, next_xid_[dir]++);
  auto decoded = decode_message(bytes);
  if (!decoded) {
    ++wire_failures_[dir];
    return std::nullopt;
  }
  return std::move(decoded->message);
}

void SecureChannel::send_to_controller(Message message) {
  if (!connected_) return;
  if (blackhole_) {
    ++blackholed_[kToController];
    return;
  }
  if (outbox_limit_ != 0 && in_flight_[kToController] >= outbox_limit_) {
    ++outbox_dropped_[kToController];
    return;
  }
  auto carried = transport(std::move(message), kToController);
  if (!carried) return;
  ++to_controller_;
  ++in_flight_[kToController];
  const DatapathId dpid = switch_->datapath_id();
  sim_->schedule(latency_, [this, dpid, m = std::move(*carried)]() {
    --in_flight_[kToController];
    controller_->handle_switch_message(dpid, m);
  });
}

void SecureChannel::send_to_switch(Message message) {
  if (!connected_) return;
  auto carried = transport(std::move(message), kToSwitch);
  if (!carried) return;
  if (blackhole_) {
    ++blackholed_[kToSwitch];
    return;
  }
  if (outbox_limit_ != 0 && in_flight_[kToSwitch] >= outbox_limit_) {
    ++outbox_dropped_[kToSwitch];
    return;
  }
  ++to_switch_;
  ++in_flight_[kToSwitch];
  sim_->schedule(latency_, [this, m = std::move(*carried)]() {
    --in_flight_[kToSwitch];
    switch_->handle_controller_message(m);
  });
}

}  // namespace livesec::of
