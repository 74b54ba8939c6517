#include "openflow/wire.h"

#include "packet/buffer.h"

namespace livesec::of {

namespace {

constexpr std::size_t kHeaderSize = 8;

void encode_mac(pkt::BufferWriter& w, const MacAddress& mac) { w.bytes(mac.bytes()); }

MacAddress decode_mac(pkt::BufferReader& r) {
  std::array<std::uint8_t, 6> bytes{};
  for (auto& b : bytes) b = r.u8();
  return MacAddress(bytes);
}

// Action TLV type codes (OFPAT_*-flavored).
constexpr std::uint16_t kActionOutput = 0;
constexpr std::uint16_t kActionSetDlSrc = 4;
constexpr std::uint16_t kActionSetDlDst = 5;
constexpr std::uint16_t kActionFlood = 100;       // modeled pseudo-ports
constexpr std::uint16_t kActionController = 101;
constexpr std::uint16_t kActionDrop = 102;

void encode_entry(pkt::BufferWriter& w, const FlowEntry& entry) {
  encode_match(w, entry.match);
  w.u16(entry.priority);
  w.u64(static_cast<std::uint64_t>(entry.idle_timeout));
  w.u64(static_cast<std::uint64_t>(entry.hard_timeout));
  w.u64(entry.cookie);
  encode_actions(w, entry.actions);
}

void encode_flow_mod_body(pkt::BufferWriter& w, const FlowMod& mod) {
  w.u8(static_cast<std::uint8_t>(mod.command));
  w.u8(mod.notify_on_removal ? 1 : 0);
  w.u32(mod.buffer_id);
  encode_entry(w, mod.entry);
}

std::optional<FlowEntry> decode_entry(pkt::BufferReader& r) {
  FlowEntry entry;
  auto match = decode_match(r);
  if (!match) return std::nullopt;
  entry.match = *match;
  entry.priority = r.u16();
  entry.idle_timeout = static_cast<SimTime>(r.u64());
  entry.hard_timeout = static_cast<SimTime>(r.u64());
  entry.cookie = r.u64();
  auto actions = decode_actions(r);
  if (!actions) return std::nullopt;
  entry.actions = *actions;
  return entry;
}

std::optional<FlowMod> decode_flow_mod_body(pkt::BufferReader& r) {
  FlowMod mod;
  mod.command = static_cast<FlowModCommand>(r.u8());
  mod.notify_on_removal = r.u8() != 0;
  mod.buffer_id = r.u32();
  auto entry = decode_entry(r);
  if (!entry) return std::nullopt;
  mod.entry = *entry;
  return mod;
}

void encode_packet_field(pkt::BufferWriter& w, const pkt::PacketPtr& packet) {
  if (packet == nullptr) {
    w.u32(0);
    return;
  }
  // Serialize straight into the message writer — no temporary vector; the
  // length is known up front from the packet structure.
  const std::size_t n = packet->serialized_size();
  w.u32(static_cast<std::uint32_t>(n));
  w.reserve(n);
  packet->serialize_into(w);
}

/// Decodes a length-prefixed packet field; empty (length 0) yields nullptr.
bool decode_packet_field(pkt::BufferReader& r, pkt::PacketPtr& out) {
  const std::uint32_t length = r.u32();
  if (length == 0) {
    out = nullptr;
    return r.ok();
  }
  const auto bytes = r.bytes(length);
  if (!r.ok()) return false;
  auto parsed = pkt::Packet::parse(bytes);
  if (!parsed) return false;
  out = pkt::finalize(std::move(*parsed));
  return true;
}

}  // namespace

void encode_match(pkt::BufferWriter& w, const Match& match) {
  w.u32(match.wildcards());
  w.u32(match.in_port_value());
  w.u16(match.dl_vlan_value());
  encode_mac(w, match.dl_src_value());
  encode_mac(w, match.dl_dst_value());
  w.u16(match.dl_type_value());
  w.u32(match.nw_src_value().value());
  w.u32(match.nw_dst_value().value());
  w.u8(match.nw_proto_value());
  w.u16(match.tp_src_value());
  w.u16(match.tp_dst_value());
}

std::optional<Match> decode_match(pkt::BufferReader& r) {
  const std::uint32_t wildcards = r.u32();
  if (wildcards & ~static_cast<std::uint32_t>(Wildcard::kAll)) return std::nullopt;
  // Read every field, then apply only the exact (non-wildcarded) ones; the
  // setters clear the wildcard bits, reproducing the original mask.
  const std::uint32_t in_port = r.u32();
  const std::uint16_t dl_vlan = r.u16();
  const MacAddress dl_src = decode_mac(r);
  const MacAddress dl_dst = decode_mac(r);
  const std::uint16_t dl_type = r.u16();
  const Ipv4Address nw_src{r.u32()};
  const Ipv4Address nw_dst{r.u32()};
  const std::uint8_t nw_proto = r.u8();
  const std::uint16_t tp_src = r.u16();
  const std::uint16_t tp_dst = r.u16();
  if (!r.ok()) return std::nullopt;

  Match match;
  auto exact = [wildcards](Wildcard bit) {
    return (wildcards & static_cast<std::uint32_t>(bit)) == 0;
  };
  if (exact(Wildcard::kInPort)) match.in_port(in_port);
  if (exact(Wildcard::kDlVlan)) match.dl_vlan(dl_vlan);
  if (exact(Wildcard::kDlSrc)) match.dl_src(dl_src);
  if (exact(Wildcard::kDlDst)) match.dl_dst(dl_dst);
  if (exact(Wildcard::kDlType)) match.dl_type(dl_type);
  if (exact(Wildcard::kNwSrc)) match.nw_src(nw_src);
  if (exact(Wildcard::kNwDst)) match.nw_dst(nw_dst);
  if (exact(Wildcard::kNwProto)) match.nw_proto(nw_proto);
  if (exact(Wildcard::kTpSrc)) match.tp_src(tp_src);
  if (exact(Wildcard::kTpDst)) match.tp_dst(tp_dst);
  return match;
}

void encode_actions(pkt::BufferWriter& w, const ActionList& actions) {
  w.u16(static_cast<std::uint16_t>(actions.size()));
  for (const Action& action : actions) {
    if (const auto* out = std::get_if<ActionOutput>(&action)) {
      w.u16(kActionOutput);
      w.u32(out->port);
    } else if (const auto* src = std::get_if<ActionSetDlSrc>(&action)) {
      w.u16(kActionSetDlSrc);
      encode_mac(w, src->mac);
    } else if (const auto* dst = std::get_if<ActionSetDlDst>(&action)) {
      w.u16(kActionSetDlDst);
      encode_mac(w, dst->mac);
    } else if (std::get_if<ActionFlood>(&action)) {
      w.u16(kActionFlood);
    } else if (std::get_if<ActionController>(&action)) {
      w.u16(kActionController);
    } else {
      w.u16(kActionDrop);
    }
  }
}

std::optional<ActionList> decode_actions(pkt::BufferReader& r) {
  const std::uint16_t count = r.u16();
  ActionList actions;
  actions.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    const std::uint16_t type = r.u16();
    switch (type) {
      case kActionOutput: actions.push_back(ActionOutput{r.u32()}); break;
      case kActionSetDlSrc: actions.push_back(ActionSetDlSrc{decode_mac(r)}); break;
      case kActionSetDlDst: actions.push_back(ActionSetDlDst{decode_mac(r)}); break;
      case kActionFlood: actions.push_back(ActionFlood{}); break;
      case kActionController: actions.push_back(ActionController{}); break;
      case kActionDrop: actions.push_back(ActionDrop{}); break;
      default: return std::nullopt;
    }
    if (!r.ok()) return std::nullopt;
  }
  return actions;
}

std::vector<std::uint8_t> encode_message(const Message& message, std::uint32_t xid) {
  pkt::BufferWriter body;
  WireType type;

  if (const auto* pin = std::get_if<PacketIn>(&message)) {
    type = WireType::kPacketIn;
    body.u32(pin->buffer_id);
    body.u32(pin->in_port);
    body.u8(static_cast<std::uint8_t>(pin->reason));
    encode_packet_field(body, pin->packet);
  } else if (const auto* pout = std::get_if<PacketOut>(&message)) {
    type = WireType::kPacketOut;
    body.u32(pout->buffer_id);
    body.u32(pout->in_port);
    encode_actions(body, pout->actions);
    encode_packet_field(body, pout->packet);
  } else if (const auto* mod = std::get_if<FlowMod>(&message)) {
    type = WireType::kFlowMod;
    encode_flow_mod_body(body, *mod);
  } else if (const auto* batch = std::get_if<FlowModBatch>(&message)) {
    type = WireType::kFlowModBatch;
    body.u16(static_cast<std::uint16_t>(batch->mods.size()));
    for (const FlowMod& m : batch->mods) {
      encode_flow_mod_body(body, m);
    }
  } else if (const auto* removed = std::get_if<FlowRemoved>(&message)) {
    type = WireType::kFlowRemoved;
    encode_match(body, removed->match);
    body.u16(removed->priority);
    body.u64(removed->cookie);
    body.u8(static_cast<std::uint8_t>(removed->reason));
    body.u64(removed->packet_count);
    body.u64(removed->byte_count);
  } else if (const auto* features = std::get_if<FeaturesReply>(&message)) {
    type = WireType::kFeaturesReply;
    body.u64(features->datapath_id);
    body.u32(features->num_ports);
    body.length_prefixed_string(features->name);
  } else if (const auto* echo_req = std::get_if<EchoRequest>(&message)) {
    type = WireType::kEchoRequest;
    body.u64(echo_req->token);
  } else if (const auto* echo_rep = std::get_if<EchoReply>(&message)) {
    type = WireType::kEchoReply;
    body.u64(echo_rep->token);
  } else if (const auto* status = std::get_if<PortStatus>(&message)) {
    type = WireType::kPortStatus;
    body.u32(status->port);
    body.u8(status->change == PortChange::kUp ? 1 : 0);
  } else if (std::get_if<StatsRequest>(&message)) {
    type = WireType::kStatsRequest;
  } else {
    const auto& stats = std::get<StatsReply>(message);
    type = WireType::kStatsReply;
    body.u64(stats.table_lookups);
    body.u64(stats.table_hits);
    body.u32(static_cast<std::uint32_t>(stats.flows.size()));
    for (const FlowStats& flow : stats.flows) {
      encode_match(body, flow.match);
      body.u16(flow.priority);
      body.u64(flow.packet_count);
      body.u64(flow.byte_count);
      body.u8(flow.drop ? 1 : 0);
    }
  }

  pkt::BufferWriter frame;
  frame.u8(kWireVersion);
  frame.u8(static_cast<std::uint8_t>(type));
  frame.u16(static_cast<std::uint16_t>(kHeaderSize + body.size()));
  frame.u32(xid);
  frame.bytes(body.data());
  return frame.take();
}

std::optional<DecodedFrame> decode_message(std::span<const std::uint8_t> frame) {
  pkt::BufferReader r(frame);
  if (r.u8() != kWireVersion) return std::nullopt;
  const std::uint8_t type = r.u8();
  const std::uint16_t length = r.u16();
  if (length != frame.size()) return std::nullopt;
  DecodedFrame out;
  out.xid = r.u32();

  switch (static_cast<WireType>(type)) {
    case WireType::kPacketIn: {
      PacketIn pin;
      pin.buffer_id = r.u32();
      pin.in_port = r.u32();
      pin.reason = static_cast<PacketInReason>(r.u8());
      if (!decode_packet_field(r, pin.packet)) return std::nullopt;
      out.message = std::move(pin);
      break;
    }
    case WireType::kPacketOut: {
      PacketOut pout;
      pout.buffer_id = r.u32();
      pout.in_port = r.u32();
      auto actions = decode_actions(r);
      if (!actions) return std::nullopt;
      pout.actions = *actions;
      if (!decode_packet_field(r, pout.packet)) return std::nullopt;
      out.message = std::move(pout);
      break;
    }
    case WireType::kFlowMod: {
      auto mod = decode_flow_mod_body(r);
      if (!mod) return std::nullopt;
      out.message = std::move(*mod);
      break;
    }
    case WireType::kFlowModBatch: {
      FlowModBatch batch;
      const std::uint16_t count = r.u16();
      batch.mods.reserve(count);
      for (std::uint16_t i = 0; i < count; ++i) {
        auto mod = decode_flow_mod_body(r);
        if (!mod) return std::nullopt;
        batch.mods.push_back(std::move(*mod));
      }
      out.message = std::move(batch);
      break;
    }
    case WireType::kFlowRemoved: {
      FlowRemoved removed;
      auto match = decode_match(r);
      if (!match) return std::nullopt;
      removed.match = *match;
      removed.priority = r.u16();
      removed.cookie = r.u64();
      removed.reason = static_cast<RemovalReason>(r.u8());
      removed.packet_count = r.u64();
      removed.byte_count = r.u64();
      out.message = removed;
      break;
    }
    case WireType::kFeaturesReply: {
      FeaturesReply features;
      features.datapath_id = r.u64();
      features.num_ports = r.u32();
      features.name = r.length_prefixed_string();
      out.message = std::move(features);
      break;
    }
    case WireType::kEchoRequest: out.message = EchoRequest{r.u64()}; break;
    case WireType::kEchoReply: out.message = EchoReply{r.u64()}; break;
    case WireType::kPortStatus: {
      PortStatus status;
      status.port = r.u32();
      status.change = r.u8() != 0 ? PortChange::kUp : PortChange::kDown;
      out.message = status;
      break;
    }
    case WireType::kStatsRequest: out.message = StatsRequest{}; break;
    case WireType::kStatsReply: {
      StatsReply stats;
      stats.table_lookups = r.u64();
      stats.table_hits = r.u64();
      const std::uint32_t count = r.u32();
      for (std::uint32_t i = 0; i < count; ++i) {
        FlowStats flow;
        auto match = decode_match(r);
        if (!match) return std::nullopt;
        flow.match = *match;
        flow.priority = r.u16();
        flow.packet_count = r.u64();
        flow.byte_count = r.u64();
        flow.drop = r.u8() != 0;
        stats.flows.push_back(std::move(flow));
      }
      out.message = std::move(stats);
      break;
    }
    default:
      return std::nullopt;
  }
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return out;
}

std::size_t decode_stream(std::span<const std::uint8_t> buffer, std::vector<DecodedFrame>& out) {
  std::size_t consumed = 0;
  while (buffer.size() - consumed >= kHeaderSize) {
    const std::size_t length = (static_cast<std::size_t>(buffer[consumed + 2]) << 8) |
                               buffer[consumed + 3];
    if (length < kHeaderSize) break;  // malformed: stop
    if (buffer.size() - consumed < length) break;  // incomplete frame: wait
    auto frame = decode_message(buffer.subspan(consumed, length));
    if (!frame) break;  // malformed: stop
    out.push_back(std::move(*frame));
    consumed += length;
  }
  return consumed;
}

}  // namespace livesec::of
