// Traffic applications: synthetic workloads reproducing the traffic mixes of
// paper §V (UDP access tests, HTTP through the IDS, SSH/BitTorrent for the
// visualization scenario, malicious flows for interactive enforcement).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/random.h"
#include "net/host.h"

namespace livesec::net {

/// Constant-bit-rate UDP sender (the paper's access-throughput workload).
class UdpCbrApp {
 public:
  struct Config {
    Ipv4Address dst;
    std::uint16_t dst_port = 9000;
    std::uint16_t src_port = 40000;
    double rate_bps = 100e6;
    std::size_t packet_payload = 1400;
    SimTime duration = 1 * kSecond;
    /// Explicit payload content; null = zero-filled `packet_payload` bytes.
    /// Flows sharing one PayloadPtr carry byte-identical content (and one
    /// memoized fuzzy digest) — the verdict-cache virality workload.
    pkt::PayloadPtr content{};
  };

  UdpCbrApp(Host& host, Config config);

  void start();
  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  void send_next();

  Host* host_;
  Config config_;
  pkt::PayloadPtr payload_;  // built once, shared by every packet of the flow
  SimTime started_at_ = 0;
  SimTime interval_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

/// HTTP/1.1-style server with a TCP-like ack-clocked transport: each request
/// opens a windowed transfer (at most `window` MTU segments in flight per
/// session); every client ack releases the next segment, so the send rate
/// self-clocks to the bottleneck (link or service element) instead of
/// blasting at line rate and overflowing queues. The first segment carries a
/// real "HTTP/1.1 200 OK" preamble so the L7 classifier and the IDS see
/// genuine protocol bytes. A request payload may override the transfer size
/// with "BYTES=<n>" (used by the client's stall-resume).
class HttpServerApp {
 public:
  struct Config {
    std::uint16_t port = 80;
    std::size_t response_size = 64 * 1024;
    std::size_t mtu_payload = 1400;
    /// Max segments in flight per session (TCP congestion-window stand-in).
    std::size_t window = 16;
  };

  HttpServerApp(Host& host, Config config);

  std::uint64_t requests_served() const { return requests_served_; }
  std::size_t active_transfers() const { return transfers_.size(); }

 private:
  struct Transfer {
    Ipv4Address client_ip;
    std::uint16_t client_port = 0;
    std::size_t remaining = 0;
    std::size_t in_flight = 0;
    bool header_sent = false;
  };

  void fill_window(Transfer& transfer);

  Host* host_;
  Config config_;
  pkt::PayloadPtr mtu_payload_;  // full-MTU body segment, shared across sessions
  std::uint64_t requests_served_ = 0;
  std::map<std::pair<std::uint32_t, std::uint16_t>, Transfer> transfers_;
};

/// HTTP client: opens `sessions` GET requests, `concurrency` at a time; each
/// uses a distinct ephemeral source port (=> a distinct flow for flow-grain
/// load balancing). A new request is issued when the previous response has
/// been (approximately) fully received.
class HttpClientApp {
 public:
  struct Config {
    Ipv4Address server;
    std::uint16_t server_port = 80;
    std::uint16_t first_src_port = 20000;
    std::size_t sessions = 10;
    std::size_t concurrency = 4;
    std::size_t expected_response = 64 * 1024;
    std::string path = "/index.html";
  };

  HttpClientApp(Host& host, Config config);

  void start();
  std::uint64_t responses_completed() const { return responses_completed_; }
  std::uint64_t response_bytes() const { return response_bytes_; }
  bool done() const { return responses_completed_ >= config_.sessions; }

 private:
  void issue_request();
  void send_request(std::uint16_t src_port, std::size_t bytes);
  void watchdog();

  Host* host_;
  Config config_;
  std::uint16_t next_src_port_;
  std::size_t issued_ = 0;
  std::uint64_t responses_completed_ = 0;
  std::uint64_t response_bytes_ = 0;
  std::uint64_t resumes_sent_ = 0;
  bool watchdog_running_ = false;

  struct Outstanding {
    std::size_t remaining = 0;
    SimTime last_progress = 0;
  };
  std::unordered_map<std::uint16_t, Outstanding> outstanding_;  // by src port
};

/// Periodic SSH-like session traffic (small encrypted-looking payloads after
/// a real "SSH-2.0-..." banner) — the visualization scenario's SSH user.
class SshApp {
 public:
  struct Config {
    Ipv4Address server;
    std::uint16_t src_port = 30022;
    SimTime keystroke_interval = 200 * kMillisecond;
    SimTime duration = 10 * kSecond;
  };

  SshApp(Host& host, Config config);
  void start();
  std::uint64_t packets_sent() const { return packets_sent_; }

 private:
  void tick();

  Host* host_;
  Config config_;
  pkt::PayloadPtr keystroke_payload_;
  SimTime started_at_ = 0;
  bool banner_sent_ = false;
  std::uint64_t packets_sent_ = 0;
};

/// BitTorrent-like bulk transfer: a real BT handshake then sustained
/// MTU-sized piece traffic to several peers — the "user started downloading
/// by BitTorrent, link utilization jumped" event of Figure 8.
class BitTorrentApp {
 public:
  struct Config {
    std::vector<Ipv4Address> peers;
    std::uint16_t first_src_port = 36881;
    double rate_bps = 40e6;
    SimTime duration = 5 * kSecond;
  };

  BitTorrentApp(Host& host, Config config);
  void start();
  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  void send_next();

  Host* host_;
  Config config_;
  pkt::PayloadPtr piece_payload_;  // MTU-sized piece, shared across peers
  SimTime started_at_ = 0;
  SimTime interval_ = 0;
  std::size_t next_peer_ = 0;
  bool handshakes_sent_ = false;
  std::uint64_t bytes_sent_ = 0;
};

/// Malicious client: issues an HTTP request whose URL/content matches an IDS
/// rule (default: the "malicious website" marker of Figure 8), so an IDS SE
/// raises an attack event and the controller blocks the flow.
class AttackApp {
 public:
  struct Config {
    Ipv4Address server;
    std::uint16_t server_port = 80;
    std::uint16_t src_port = 28080;
    /// Payload embedded in the request; defaults to IDS rule 1014.
    std::string attack_payload = "GET /exploit HTTP/1.1\r\nHost: malware-distribution.example\r\n\r\n";
    /// Packets to send (the flow keeps transmitting so the post-block drop
    /// is observable).
    int packets = 20;
    SimTime interval = 50 * kMillisecond;
  };

  AttackApp(Host& host, Config config);
  void start();
  std::uint64_t packets_sent() const { return packets_sent_; }

 private:
  void send_next();

  Host* host_;
  Config config_;
  pkt::PayloadPtr attack_payload_;
  int remaining_ = 0;
  std::uint64_t packets_sent_ = 0;
};

}  // namespace livesec::net
