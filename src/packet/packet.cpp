#include "packet/packet.h"

#include <sstream>

#include "packet/packet_pool.h"

namespace livesec::pkt {

std::size_t Packet::serialized_size() const {
  std::size_t size = eth.wire_size();
  if (arp) size += ArpHeader::kSize;
  if (ipv4) size += Ipv4Header::kSize;
  if (tcp) size += TcpHeader::kSize;
  if (udp) size += UdpHeader::kSize;
  if (icmp) size += IcmpHeader::kSize;
  return size + payload_size();
}

std::size_t Packet::wire_size() const {
  const std::size_t size = serialized_size();
  // Minimum Ethernet frame size (64 bytes incl. FCS; we model 60 + implicit FCS).
  return size < 60 ? 60 : size;
}

std::vector<std::uint8_t> Packet::serialize() const {
  BufferWriter w;
  w.reserve(serialized_size());  // exact wire bytes, sized in one growth step
  serialize_into(w);
  return w.take();
}

void Packet::serialize_into(BufferWriter& w) const {
  eth.serialize(w);
  if (arp) {
    arp->serialize(w);
  } else if (ipv4) {
    std::size_t l4 = payload_size();
    if (tcp) l4 += TcpHeader::kSize;
    if (udp) l4 += UdpHeader::kSize;
    if (icmp) l4 += IcmpHeader::kSize;
    ipv4->serialize(w, static_cast<std::uint16_t>(Ipv4Header::kSize + l4));
    if (tcp) tcp->serialize(w);
    if (udp) udp->serialize(w, static_cast<std::uint16_t>(payload_size()));
    if (icmp) icmp->serialize(w);
    if (payload) w.bytes(payload->view());
  } else if (payload) {
    w.bytes(payload->view());
  }
}

std::optional<Packet> Packet::parse(std::span<const std::uint8_t> bytes) {
  BufferReader r(bytes);
  Packet p;
  auto eth = EthernetHeader::parse(r);
  if (!eth) return std::nullopt;
  p.eth = *eth;
  if (p.eth.ether_type == static_cast<std::uint16_t>(EtherType::kArp)) {
    auto arp = ArpHeader::parse(r);
    if (!arp) return std::nullopt;
    p.arp = *arp;
  } else if (p.eth.ether_type == static_cast<std::uint16_t>(EtherType::kIpv4)) {
    auto ip = Ipv4Header::parse(r);
    if (!ip) return std::nullopt;
    p.ipv4 = *ip;
    switch (static_cast<IpProto>(ip->protocol)) {
      case IpProto::kTcp: {
        auto tcp = TcpHeader::parse(r);
        if (!tcp) return std::nullopt;
        p.tcp = *tcp;
        break;
      }
      case IpProto::kUdp: {
        auto udp = UdpHeader::parse(r);
        if (!udp) return std::nullopt;
        p.udp = *udp;
        break;
      }
      case IpProto::kIcmp: {
        auto icmp = IcmpHeader::parse(r);
        if (!icmp) return std::nullopt;
        p.icmp = *icmp;
        break;
      }
      default:
        break;
    }
    if (r.remaining() > 0) p.payload = make_payload(r.bytes(r.remaining()));
  } else if (r.remaining() > 0) {
    p.payload = make_payload(r.bytes(r.remaining()));
  }
  return p;
}

std::string Packet::summary() const {
  std::ostringstream out;
  out << eth.src.to_string() << ">" << eth.dst.to_string();
  if (arp) {
    out << " ARP " << (arp->op == ArpOp::kRequest ? "who-has " : "is-at ")
        << arp->target_ip.to_string();
  } else if (ipv4) {
    out << " IP " << ipv4->src.to_string() << ">" << ipv4->dst.to_string();
    if (tcp) out << " TCP " << tcp->src_port << ">" << tcp->dst_port;
    if (udp) out << " UDP " << udp->src_port << ">" << udp->dst_port;
    if (icmp)
      out << " ICMP " << (icmp->type == IcmpType::kEchoRequest ? "echo-req" : "echo-rep") << " seq "
          << icmp->seq;
  }
  out << " len " << wire_size();
  return out.str();
}

PacketPtr finalize(Packet p) { return pooled_packet(std::move(p)); }

namespace {
// Plain counter: the simulator is single-threaded.
std::uint64_t g_digest_computations = 0;
}  // namespace

const FuzzyDigest& Payload::fuzzy_digest() const {
  if (!digest_ready_) {
    digest_ = FuzzyDigest::of(bytes_);
    digest_ready_ = true;
    ++g_digest_computations;
  }
  return digest_;
}

std::uint64_t Payload::digest_computations() { return g_digest_computations; }

PayloadPtr make_payload(std::string_view text) {
  return std::make_shared<const Payload>(std::vector<std::uint8_t>(text.begin(), text.end()));
}

PayloadPtr make_payload(std::vector<std::uint8_t> bytes) {
  return std::make_shared<const Payload>(std::move(bytes));
}

PayloadPtr make_payload(std::size_t size) {
  return std::make_shared<const Payload>(std::vector<std::uint8_t>(size, std::uint8_t{0}));
}

PacketBuilder& PacketBuilder::eth(MacAddress src, MacAddress dst, EtherType type) {
  packet_.eth.src = src;
  packet_.eth.dst = dst;
  packet_.eth.ether_type = static_cast<std::uint16_t>(type);
  return *this;
}

PacketBuilder& PacketBuilder::vlan(std::uint16_t vlan_id) {
  packet_.eth.vlan_id = vlan_id;
  return *this;
}

PacketBuilder& PacketBuilder::arp(ArpOp op, MacAddress sender_mac, Ipv4Address sender_ip,
                                  MacAddress target_mac, Ipv4Address target_ip) {
  packet_.eth.ether_type = static_cast<std::uint16_t>(EtherType::kArp);
  ArpHeader h;
  h.op = op;
  h.sender_mac = sender_mac;
  h.sender_ip = sender_ip;
  h.target_mac = target_mac;
  h.target_ip = target_ip;
  packet_.arp = h;
  return *this;
}

PacketBuilder& PacketBuilder::ipv4(Ipv4Address src, Ipv4Address dst, IpProto proto) {
  packet_.eth.ether_type = static_cast<std::uint16_t>(EtherType::kIpv4);
  Ipv4Header h;
  h.src = src;
  h.dst = dst;
  h.protocol = static_cast<std::uint8_t>(proto);
  packet_.ipv4 = h;
  return *this;
}

PacketBuilder& PacketBuilder::tcp(std::uint16_t src_port, std::uint16_t dst_port,
                                  std::uint8_t flags) {
  TcpHeader h;
  h.src_port = src_port;
  h.dst_port = dst_port;
  h.flags = flags;
  packet_.tcp = h;
  return *this;
}

PacketBuilder& PacketBuilder::udp(std::uint16_t src_port, std::uint16_t dst_port) {
  UdpHeader h;
  h.src_port = src_port;
  h.dst_port = dst_port;
  packet_.udp = h;
  return *this;
}

PacketBuilder& PacketBuilder::icmp(IcmpType type, std::uint16_t id, std::uint16_t seq) {
  IcmpHeader h;
  h.type = type;
  h.id = id;
  h.seq = seq;
  packet_.icmp = h;
  return *this;
}

PacketBuilder& PacketBuilder::payload(PayloadPtr p) {
  packet_.payload = std::move(p);
  return *this;
}

PacketBuilder& PacketBuilder::payload(std::string_view text) {
  packet_.payload = make_payload(text);
  return *this;
}

PacketBuilder& PacketBuilder::payload_size(std::size_t size) {
  packet_.payload = make_payload(size);
  return *this;
}

}  // namespace livesec::pkt
