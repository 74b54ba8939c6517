// Byte-level wire codec for the control-channel messages (OpenFlow 1.0-style
// framing: fixed header + typed body). The in-simulator SecureChannel passes
// structured messages for speed, but this codec makes the protocol layer
// byte-faithful: every Message can be framed for a real TCP/TLS channel and
// parsed back, and a frame stream can be segmented from a byte buffer.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "openflow/messages.h"

namespace livesec::of {

/// Wire message type codes (subset of OFPT_*).
enum class WireType : std::uint8_t {
  kEchoRequest = 2,
  kEchoReply = 3,
  kFeaturesReply = 6,
  kPacketIn = 10,
  kFlowRemoved = 11,
  kPortStatus = 12,
  kPacketOut = 13,
  kFlowMod = 14,
  kStatsRequest = 16,
  kStatsReply = 17,
  kFlowModBatch = 18,  // modeled extension: several FlowMods in one frame
};

inline constexpr std::uint8_t kWireVersion = 0x01;  // OpenFlow 1.0

/// Encodes one message into a framed byte vector:
///   version(1) type(1) length(2) xid(4) body...
std::vector<std::uint8_t> encode_message(const Message& message, std::uint32_t xid = 0);

/// Decoded frame: the message plus its transaction id.
struct DecodedFrame {
  Message message;
  std::uint32_t xid = 0;
};

/// Parses one complete frame. Returns nullopt for malformed input
/// (bad version, unknown type, truncated body, length mismatch).
std::optional<DecodedFrame> decode_message(std::span<const std::uint8_t> frame);

/// Stream segmentation: consumes as many complete frames as `buffer` holds,
/// appending them to `out`; returns the number of bytes consumed (callers
/// keep the unconsumed tail for the next read, exactly like a TCP decoder).
/// Malformed frames stop consumption (the caller should drop the channel).
std::size_t decode_stream(std::span<const std::uint8_t> buffer, std::vector<DecodedFrame>& out);

// Exposed for reuse/testing: Match and ActionList sub-codecs.
void encode_match(pkt::BufferWriter& w, const Match& match);
std::optional<Match> decode_match(pkt::BufferReader& r);
void encode_actions(pkt::BufferWriter& w, const ActionList& actions);
std::optional<ActionList> decode_actions(pkt::BufferReader& r);

}  // namespace livesec::of
