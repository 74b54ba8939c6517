// The secure channel between an AS switch and the LiveSec controller.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "common/types.h"
#include "openflow/messages.h"

namespace livesec::sim {
class Simulator;
}

namespace livesec::of {

/// Interface the switch side of a channel exposes to the controller.
class SwitchEndpoint {
 public:
  virtual ~SwitchEndpoint() = default;
  virtual DatapathId datapath_id() const = 0;
  /// Delivers a controller message to the switch.
  virtual void handle_controller_message(const Message& message) = 0;
};

/// Interface the controller side exposes to switches.
class ControllerEndpoint {
 public:
  virtual ~ControllerEndpoint() = default;
  /// Delivers a switch message to the controller.
  virtual void handle_switch_message(DatapathId dpid, const Message& message) = 0;
  /// Invoked once when a switch connects its channel.
  virtual void handle_switch_connected(DatapathId dpid, const FeaturesReply& features) = 0;
  /// Invoked when a switch channel closes.
  virtual void handle_switch_disconnected(DatapathId dpid) = 0;
};

/// Out-of-band control connection with configurable one-way latency.
///
/// In the Tsinghua deployment the channel is a management-network TCP+TLS
/// connection; here delivery is an event scheduled `latency` into the future,
/// which preserves the control-plane round-trip cost that dominates the
/// first-packet latency measured in paper §V.B.3.
class SecureChannel {
 public:
  SecureChannel(sim::Simulator& sim, SwitchEndpoint& sw, ControllerEndpoint& controller,
                SimTime one_way_latency = 100 * kMicrosecond);

  /// When enabled, every message is serialized through the OpenFlow wire
  /// codec and parsed back before delivery — byte-faithful transport, as a
  /// real TCP/TLS channel would carry. Messages that fail the codec are
  /// dropped and counted (they would have been protocol errors on the wire).
  void set_wire_encoding(bool enabled) { wire_encoding_ = enabled; }
  bool wire_encoding() const { return wire_encoding_; }
  std::uint64_t wire_codec_failures() const {
    return wire_failures_[kToSwitch] + wire_failures_[kToController];
  }

  /// Announces the switch to the controller (FeaturesReply handshake).
  void connect(const FeaturesReply& features);
  void disconnect();
  bool connected() const { return connected_; }

  /// Caps the number of in-flight messages per direction. A send beyond the
  /// cap is dropped and counted — the control connection applies
  /// backpressure instead of queueing unboundedly (a replication or stats
  /// burst must not grow the outbox without limit). 0 = unbounded.
  void set_outbox_limit(std::size_t limit) { outbox_limit_ = limit; }
  std::size_t outbox_limit() const { return outbox_limit_; }
  /// Messages dropped by the outbox bound (both directions).
  std::uint64_t outbox_dropped() const {
    return outbox_dropped_[kToSwitch] + outbox_dropped_[kToController];
  }
  /// Current in-flight depth per direction (backpressure observability).
  std::size_t outbox_depth_to_switch() const { return in_flight_[kToSwitch]; }
  std::size_t outbox_depth_to_controller() const { return in_flight_[kToController]; }

  /// Fault injection: while set, the channel stays "connected" but silently
  /// loses every message in both directions — a network partition as TCP
  /// experiences it before keepalives fire. OFPT_ECHO liveness is what
  /// detects this state.
  void set_blackhole(bool enabled) { blackhole_ = enabled; }
  bool blackhole() const { return blackhole_; }
  std::uint64_t blackholed_messages() const {
    return blackholed_[kToSwitch] + blackholed_[kToController];
  }

  /// Switch -> controller, delivered after the channel latency.
  void send_to_controller(Message message);
  /// Controller -> switch, delivered after the channel latency.
  void send_to_switch(Message message);

  SimTime latency() const { return latency_; }
  std::uint64_t messages_to_controller() const { return to_controller_; }
  std::uint64_t messages_to_switch() const { return to_switch_; }

 private:
  /// Direction index for per-direction state, named by where the message
  /// goes (kToSwitch is sent by the controller, kToController by the switch).
  enum Direction : std::size_t { kToSwitch = 0, kToController = 1 };

  /// Applies the wire codec round trip when enabled; nullopt = drop. Takes
  /// ownership so the no-codec path forwards without copying the variant.
  std::optional<Message> transport(Message&& message, Direction dir);

  SwitchEndpoint* switch_;
  ControllerEndpoint* controller_;
  sim::Simulator* sim_;
  SimTime latency_;
  bool connected_ = false;
  bool wire_encoding_ = false;
  bool blackhole_ = false;
  /// Default bound: far above any healthy latency-window backlog, small
  /// enough that a runaway sender degrades into counted drops, not OOM.
  std::size_t outbox_limit_ = 8192;
  /// In-flight depth per direction.
  std::size_t in_flight_[2] = {0, 0};
  std::uint64_t to_controller_ = 0;
  std::uint64_t to_switch_ = 0;
  std::uint64_t wire_failures_[2] = {0, 0};
  std::uint64_t outbox_dropped_[2] = {0, 0};
  std::uint64_t blackholed_[2] = {0, 0};
  /// Disjoint xid spaces per direction keep the two directions' wire frames
  /// distinguishable.
  std::uint32_t next_xid_[2] = {1, 0x8000'0001};
};

}  // namespace livesec::of
