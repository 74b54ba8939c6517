// Structured packet model passed between simulated network elements.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/fuzzy_digest.h"
#include "packet/headers.h"

namespace livesec::pkt {

/// Immutable payload bytes shared by every copy of a packet (and, for
/// CBR-style senders, by every packet of a flow). Besides the bytes it owns
/// the payload's content fingerprint: `fuzzy_digest()` is computed at most
/// once per unique payload allocation — not once per inspection hop — and
/// every SE in a chain (plus the verdict cache) reuses the memoized value.
class Payload {
 public:
  Payload() = default;
  explicit Payload(std::vector<std::uint8_t> bytes) : bytes_(std::move(bytes)) {}

  // Only ever shared through PayloadPtr, so the memoized digest is computed
  // once per allocation; nothing needs to copy a Payload.
  Payload(const Payload&) = delete;
  Payload& operator=(const Payload&) = delete;

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }
  const std::uint8_t* data() const { return bytes_.data(); }
  auto begin() const { return bytes_.begin(); }
  auto end() const { return bytes_.end(); }
  std::span<const std::uint8_t> view() const { return bytes_; }

  /// The payload's content fingerprint, memoized on first use.
  const FuzzyDigest& fuzzy_digest() const;

  /// Process-wide count of digest computations (bench_micro asserts the
  /// single-compute property with it).
  static std::uint64_t digest_computations();

 private:
  std::vector<std::uint8_t> bytes_;
  // Plain memo slot: the simulator is single-threaded.
  mutable bool digest_ready_ = false;
  mutable FuzzyDigest digest_;
};

/// Shared immutable payload handle carried by packets.
using PayloadPtr = std::shared_ptr<const Payload>;

/// A network packet, held as parsed layers plus an immutable shared payload.
///
/// The simulation hot path passes `std::shared_ptr<const Packet>` so that a
/// packet traversing N hops costs zero copies. Elements that rewrite headers
/// (e.g. the ingress AS switch setting dl_dst to a service element's MAC,
/// paper §IV.A) copy the Packet value — cheap, since the payload is shared.
///
/// `serialize()`/`parse()` convert to and from exact wire bytes; the service
/// element daemon messages and the LLDP frames use this for real encoding.
struct Packet {
  EthernetHeader eth;
  std::optional<ArpHeader> arp;
  std::optional<Ipv4Header> ipv4;
  std::optional<TcpHeader> tcp;
  std::optional<UdpHeader> udp;
  std::optional<IcmpHeader> icmp;
  PayloadPtr payload;

  /// Total size on the wire in bytes (headers + payload), used for
  /// serialization-delay and throughput accounting. Clamped to the 60-byte
  /// Ethernet minimum; `serialized_size()` is the unclamped byte count.
  std::size_t wire_size() const;

  /// Exact number of bytes `serialize()` emits (headers + payload, no
  /// minimum-frame padding). Lets callers reserve scratch space up front.
  std::size_t serialized_size() const;

  std::size_t payload_size() const { return payload ? payload->size() : 0; }
  std::span<const std::uint8_t> payload_view() const {
    return payload ? payload->view() : std::span<const std::uint8_t>{};
  }

  /// Serializes to exact wire bytes (Ethernet frame).
  std::vector<std::uint8_t> serialize() const;

  /// Appends the wire bytes to an existing writer — codecs embedding packets
  /// (e.g. the OpenFlow PacketIn/PacketOut encoding) reuse their scratch
  /// buffer instead of paying a temporary vector per packet.
  void serialize_into(BufferWriter& w) const;

  /// Parses wire bytes back into a structured packet. Returns nullopt for
  /// malformed frames. Unknown EtherTypes keep the remaining bytes as payload.
  static std::optional<Packet> parse(std::span<const std::uint8_t> bytes);

  /// One-line human-readable summary ("IPv4 10.0.0.1->10.0.0.2 TCP 80...").
  std::string summary() const;
};

using PacketPtr = std::shared_ptr<const Packet>;

/// Wraps a Packet value into the shared immutable form used on the wire.
/// Allocation is pooled (see packet_pool.h): steady-state traffic recycles
/// freed packet blocks instead of round-tripping through malloc.
PacketPtr finalize(Packet p);

/// Convenience payload construction from a string literal / string.
PayloadPtr make_payload(std::string_view text);
PayloadPtr make_payload(std::vector<std::uint8_t> bytes);
/// A zero-filled payload of `size` bytes (bulk data traffic).
PayloadPtr make_payload(std::size_t size);

/// Builder for the packet kinds LiveSec exercises. Keeps test and generator
/// code short and uniform.
class PacketBuilder {
 public:
  PacketBuilder& eth(MacAddress src, MacAddress dst,
                     EtherType type = EtherType::kIpv4);
  PacketBuilder& vlan(std::uint16_t vlan_id);
  PacketBuilder& arp(ArpOp op, MacAddress sender_mac, Ipv4Address sender_ip,
                     MacAddress target_mac, Ipv4Address target_ip);
  PacketBuilder& ipv4(Ipv4Address src, Ipv4Address dst, IpProto proto);
  PacketBuilder& tcp(std::uint16_t src_port, std::uint16_t dst_port, std::uint8_t flags = 0);
  PacketBuilder& udp(std::uint16_t src_port, std::uint16_t dst_port);
  PacketBuilder& icmp(IcmpType type, std::uint16_t id, std::uint16_t seq);
  PacketBuilder& payload(PayloadPtr p);
  PacketBuilder& payload(std::string_view text);
  PacketBuilder& payload_size(std::size_t size);

  Packet build() const { return packet_; }
  PacketPtr finalize() const { return pkt::finalize(packet_); }

 private:
  Packet packet_;
};

}  // namespace livesec::pkt
