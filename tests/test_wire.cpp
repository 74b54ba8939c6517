// Round-trip and stream-segmentation tests for the OpenFlow wire codec.
#include <gtest/gtest.h>

#include <random>

#include "net/network.h"
#include "net/traffic.h"
#include "openflow/wire.h"
#include "packet/flow_key.h"

namespace livesec::of {
namespace {

pkt::FlowKey sample_key() {
  pkt::FlowKey key;
  key.dl_src = MacAddress::from_uint64(0xA1);
  key.dl_dst = MacAddress::from_uint64(0xB2);
  key.dl_type = 0x0800;
  key.nw_src = Ipv4Address(10, 0, 0, 1);
  key.nw_dst = Ipv4Address(10, 0, 0, 2);
  key.nw_proto = 6;
  key.tp_src = 12345;
  key.tp_dst = 80;
  return key;
}

pkt::PacketPtr sample_packet() {
  return pkt::PacketBuilder()
      .eth(MacAddress::from_uint64(0xA1), MacAddress::from_uint64(0xB2))
      .ipv4(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2), pkt::IpProto::kTcp)
      .tcp(12345, 80, pkt::TcpFlags::kPsh)
      .payload("GET / HTTP/1.1\r\n\r\n")
      .finalize();
}

DecodedFrame must_roundtrip(const Message& message, std::uint32_t xid = 7) {
  const auto bytes = encode_message(message, xid);
  auto decoded = decode_message(bytes);
  EXPECT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->xid, xid);
  EXPECT_STREQ(message_name(decoded->message), message_name(message));
  return std::move(*decoded);
}

TEST(Wire, MatchRoundTripsAllWildcardCombinations) {
  const pkt::FlowKey key = sample_key();
  // Sweep a sample of wildcard masks including all-exact and all-wild.
  for (std::uint32_t mask : {0u, 0x3FFu, 0x001u, 0x200u, 0x155u, 0x0F0u}) {
    Match match = Match::exact(3, key);
    for (int bit = 0; bit < 10; ++bit) {
      if (mask & (1u << bit)) match.wildcard(static_cast<Wildcard>(1u << bit));
    }
    pkt::BufferWriter w;
    encode_match(w, match);
    pkt::BufferReader r(w.data());
    const auto decoded = decode_match(r);
    ASSERT_TRUE(decoded.has_value()) << "mask " << mask;
    EXPECT_EQ(decoded->wildcards(), match.wildcards());
    EXPECT_EQ(*decoded == match, true) << "mask " << mask;
  }
}

TEST(Wire, ActionsRoundTrip) {
  const ActionList actions = {ActionSetDlDst{MacAddress::from_uint64(0x5E)},
                              ActionSetDlSrc{MacAddress::from_uint64(0x5F)},
                              ActionOutput{42},
                              ActionFlood{},
                              ActionController{},
                              ActionDrop{}};
  pkt::BufferWriter w;
  encode_actions(w, actions);
  pkt::BufferReader r(w.data());
  const auto decoded = decode_actions(r);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), actions.size());
  EXPECT_EQ(std::get<ActionSetDlDst>((*decoded)[0]).mac, MacAddress::from_uint64(0x5E));
  EXPECT_EQ(std::get<ActionOutput>((*decoded)[2]).port, 42u);
  EXPECT_TRUE(std::holds_alternative<ActionDrop>((*decoded)[5]));
}

TEST(Wire, FlowModRoundTrip) {
  FlowMod mod;
  mod.command = FlowModCommand::kAdd;
  mod.notify_on_removal = true;
  mod.buffer_id = 99;
  mod.entry.match = Match::exact(1, sample_key());
  mod.entry.priority = 150;
  mod.entry.idle_timeout = 10 * kSecond;
  mod.entry.cookie = 0xC00CE;
  mod.entry.actions = {ActionSetDlDst{MacAddress::from_uint64(0x5E)}, ActionOutput{2}};

  const auto decoded = must_roundtrip(mod);
  const auto& got = std::get<FlowMod>(decoded.message);
  EXPECT_EQ(got.command, FlowModCommand::kAdd);
  EXPECT_TRUE(got.notify_on_removal);
  EXPECT_EQ(got.buffer_id, 99u);
  EXPECT_EQ(got.entry.match, mod.entry.match);
  EXPECT_EQ(got.entry.priority, 150);
  EXPECT_EQ(got.entry.idle_timeout, 10 * kSecond);
  EXPECT_EQ(got.entry.cookie, 0xC00CEu);
  EXPECT_EQ(got.entry.actions.size(), 2u);
}

TEST(Wire, FlowModBatchRoundTrip) {
  FlowModBatch batch;
  for (int i = 0; i < 3; ++i) {
    FlowMod mod;
    mod.command = FlowModCommand::kAdd;
    mod.buffer_id = static_cast<std::uint32_t>(100 + i);
    mod.entry.match = Match::exact(static_cast<PortId>(i), sample_key());
    mod.entry.priority = static_cast<std::uint16_t>(10 + i);
    mod.entry.cookie = static_cast<std::uint64_t>(0xAB00 + i);
    mod.entry.actions = {ActionOutput{static_cast<PortId>(i + 1)}};
    batch.mods.push_back(std::move(mod));
  }

  const auto decoded = must_roundtrip(Message{batch});
  const auto& got = std::get<FlowModBatch>(decoded.message);
  ASSERT_EQ(got.mods.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    const auto& mod = got.mods[static_cast<std::size_t>(i)];
    EXPECT_EQ(mod.buffer_id, static_cast<std::uint32_t>(100 + i));
    EXPECT_EQ(mod.entry.priority, 10 + i);
    EXPECT_EQ(mod.entry.cookie, static_cast<std::uint64_t>(0xAB00 + i));
    EXPECT_EQ(mod.entry.match, batch.mods[static_cast<std::size_t>(i)].entry.match);
    EXPECT_EQ(mod.entry.actions.size(), 1u);
  }
}

TEST(Wire, PacketInCarriesFullPacket) {
  PacketIn pin;
  pin.buffer_id = 7;
  pin.in_port = 3;
  pin.reason = PacketInReason::kNoMatch;
  pin.packet = sample_packet();

  const auto decoded = must_roundtrip(pin);
  const auto& got = std::get<PacketIn>(decoded.message);
  EXPECT_EQ(got.buffer_id, 7u);
  EXPECT_EQ(got.in_port, 3u);
  ASSERT_NE(got.packet, nullptr);
  EXPECT_EQ(pkt::FlowKey::from_packet(*got.packet), pkt::FlowKey::from_packet(*pin.packet));
  EXPECT_EQ(got.packet->payload_size(), pin.packet->payload_size());
}

TEST(Wire, PacketOutWithoutPacketStaysEmpty) {
  PacketOut pout;
  pout.buffer_id = 5;
  pout.in_port = 1;
  pout.actions = output_to(3);

  const auto decoded = must_roundtrip(pout);
  const auto& got = std::get<PacketOut>(decoded.message);
  EXPECT_EQ(got.buffer_id, 5u);
  EXPECT_EQ(got.packet, nullptr);
}

TEST(Wire, AllSimpleMessagesRoundTrip) {
  must_roundtrip(EchoRequest{0xDEAD});
  must_roundtrip(EchoReply{0xBEEF});
  must_roundtrip(StatsRequest{});
  must_roundtrip(PortStatus{4, PortChange::kDown});
  must_roundtrip(FeaturesReply{42, 8, "ovs-closet-2"});

  FlowRemoved removed;
  removed.match = Match::exact_flow(sample_key());
  removed.priority = 100;
  removed.cookie = 11;
  removed.reason = RemovalReason::kIdleTimeout;
  removed.packet_count = 1234;
  removed.byte_count = 56789;
  const auto decoded = must_roundtrip(removed);
  const auto& got = std::get<FlowRemoved>(decoded.message);
  EXPECT_EQ(got.byte_count, 56789u);
  EXPECT_EQ(got.match, removed.match);
}

TEST(Wire, StatsReplyWithFlowsRoundTrips) {
  StatsReply stats;
  stats.table_lookups = 1000;
  stats.table_hits = 900;
  for (int i = 0; i < 5; ++i) {
    FlowStats flow;
    pkt::FlowKey key = sample_key();
    key.tp_src = static_cast<std::uint16_t>(1000 + i);
    flow.match = Match::exact(0, key);
    flow.priority = 100;
    flow.packet_count = static_cast<std::uint64_t>(i * 10);
    flow.byte_count = static_cast<std::uint64_t>(i * 1000);
    stats.flows.push_back(flow);
  }
  const auto decoded = must_roundtrip(stats);
  const auto& got = std::get<StatsReply>(decoded.message);
  EXPECT_EQ(got.table_hits, 900u);
  ASSERT_EQ(got.flows.size(), 5u);
  EXPECT_EQ(got.flows[4].byte_count, 4000u);
}

TEST(Wire, DecodeRejectsMalformedFrames) {
  const auto good = encode_message(EchoRequest{1}, 0);

  auto bad_version = good;
  bad_version[0] = 0x04;
  EXPECT_FALSE(decode_message(bad_version).has_value());

  auto bad_type = good;
  bad_type[1] = 0xEE;
  EXPECT_FALSE(decode_message(bad_type).has_value());

  auto truncated = good;
  truncated.pop_back();
  EXPECT_FALSE(decode_message(truncated).has_value());  // length mismatch

  auto padded = good;
  padded.push_back(0);
  EXPECT_FALSE(decode_message(padded).has_value());
}

TEST(Wire, StreamSegmentationHandlesPartialFrames) {
  std::vector<std::uint8_t> stream;
  for (std::uint32_t xid = 1; xid <= 3; ++xid) {
    const auto frame = encode_message(EchoRequest{xid}, xid);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  // Append half of a fourth frame.
  const auto partial = encode_message(EchoRequest{4}, 4);
  stream.insert(stream.end(), partial.begin(), partial.begin() + 5);

  std::vector<DecodedFrame> frames;
  const std::size_t consumed = decode_stream(stream, frames);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(consumed, stream.size() - 5);
  EXPECT_EQ(std::get<EchoRequest>(frames[2].message).token, 3u);

  // Feeding the tail plus the rest completes the fourth frame.
  std::vector<std::uint8_t> rest(stream.begin() + static_cast<std::ptrdiff_t>(consumed),
                                 stream.end());
  rest.insert(rest.end(), partial.begin() + 5, partial.end());
  frames.clear();
  EXPECT_EQ(decode_stream(rest, frames), rest.size());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].xid, 4u);
}

TEST(Wire, WholeScenarioSurvivesWireEncodedChannels) {
  // Run a complete redirect + detect + block scenario with every control
  // message byte-encoded and re-parsed: behavior must be identical to the
  // structured channel, with zero codec failures.
  net::Network network;
  network.enable_wire_encoding();
  auto& backbone = network.add_legacy_switch("backbone");
  auto& ovs1 = network.add_as_switch("ovs1", backbone);
  auto& ovs2 = network.add_as_switch("ovs2", backbone);
  auto& ids = network.add_service_element(svc::ServiceType::kIntrusionDetection, ovs2);
  (void)ids;

  ctrl::Policy policy;
  policy.tp_dst = 80;
  policy.action = ctrl::PolicyAction::kRedirect;
  policy.service_chain = {svc::ServiceType::kIntrusionDetection};
  network.controller().policies().add(policy);

  auto& alice = network.add_host("alice", ovs1);
  auto& bob = network.add_host("bob", ovs2);
  net::HttpServerApp server(bob, {.port = 80, .response_size = 4096});
  network.start();

  net::HttpClientApp client(alice, {.server = bob.ip(), .sessions = 2, .concurrency = 1,
                                    .expected_response = 4096});
  client.start();
  net::AttackApp attacker(alice, {.server = bob.ip(), .packets = 10});
  attacker.start();
  network.run_for(2 * kSecond);

  EXPECT_EQ(client.responses_completed(), 2u);
  EXPECT_EQ(network.controller().stats().flows_blocked_by_event, 1u);
  EXPECT_TRUE(network.controller().topology().full_mesh());  // LLDP survived too
}

TEST(Wire, FuzzDecodeNeverCrashes) {
  std::mt19937_64 rng(42);
  for (int i = 0; i < 5000; ++i) {
    std::vector<std::uint8_t> bytes(rng() % 96);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    (void)decode_message(bytes);
    std::vector<DecodedFrame> frames;
    (void)decode_stream(bytes, frames);
  }
}

}  // namespace
}  // namespace livesec::of
