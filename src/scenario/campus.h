// Deterministic campus-at-scale scenario generator (DESIGN.md §9).
//
// The scale benchmarks and churn tests need a realistic large campus —
// thousands of AS switches, up to a million hosts, a diurnal traffic mix
// with roaming, DHCP lease reuse and flash crowds — but instantiating a
// simulator object per host would cost more memory than the controller
// state under test. The generator therefore materializes nothing: every
// host record is computed on demand from its index (O(1), no storage), and
// the workload is an endless, strictly time-ordered event stream drawn
// from a counter-based SplitMix64 stream, so the same seed always produces
// the same campus and the same traffic — across runs and platforms.
#pragma once

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/ip_address.h"
#include "common/mac_address.h"
#include "common/types.h"

namespace livesec::scenario {

struct CampusConfig {
  std::uint32_t hosts = 10'000;
  /// Access ports per AS switch; the switch count follows from `hosts`.
  std::uint32_t hosts_per_switch = 256;
  std::uint64_t seed = 0x11BE5EC;

  /// Mean flow starts per host per second at peak intensity.
  double flows_per_host_per_sec = 0.05;
  /// Fraction of events that are a host roaming to another switch (Wi-Fi
  /// mobility) and a DHCP lease ending up reassigned to another host.
  double roam_fraction = 0.02;
  double relese_fraction = 0.01;

  /// Diurnal cycle length; intensity swings between `night_floor` and 1.
  SimTime day_length = 24 * 3600 * kSecond;
  double night_floor = 0.15;

  /// Flash crowds: every `flash_interval` a window of `flash_duration`
  /// concentrates `flash_bias` of flow traffic onto `flash_targets` hosts
  /// (a lecture hall joining a stream, a release download).
  SimTime flash_interval = 4 * 3600 * kSecond;
  SimTime flash_duration = 10 * 60 * kSecond;
  double flash_bias = 0.7;
  std::uint32_t flash_targets = 8;

  /// Content virality (verdict-cache workload, DESIGN.md §11): this fraction
  /// of flow events carries one of `viral_contents` shared payloads — K
  /// users fetching the same release/stream — instead of flow-unique bytes.
  /// The unique-payload ratio of the workload is thus ~(1 - viral_fraction).
  /// 0 disables virality (and draws nothing, so pre-existing seeds keep
  /// producing bit-identical event streams).
  double viral_fraction = 0.0;
  std::uint32_t viral_contents = 4;
};

/// One host of the generated campus, computed from its index.
struct CampusHost {
  std::uint32_t index = 0;
  MacAddress mac;
  Ipv4Address ip;
  DatapathId dpid = 0;  // AS switch the host hangs off
  PortId port = kInvalidPort;
};

class CampusGenerator {
 public:
  /// Workload event kinds, in the order the controller would see them.
  enum class EventKind : std::uint8_t {
    kFlow,     ///< `host` opens a flow to `peer`
    kRoam,     ///< `host` re-attaches at `peer`'s switch (keeps its IP)
    kReLease,  ///< `host`'s DHCP lease expires; its IP is re-leased to `peer`
  };

  struct Event {
    EventKind kind = EventKind::kFlow;
    SimTime at = 0;  // strictly non-decreasing across next_event() calls
    std::uint32_t host = 0;
    std::uint32_t peer = 0;
    /// Payload content of a kFlow event: 0 = flow-unique bytes,
    /// 1..viral_contents = the shared viral content with that id.
    std::uint32_t content = 0;
  };

  explicit CampusGenerator(CampusConfig config);

  const CampusConfig& config() const { return config_; }

  /// Number of AS switches the host population spreads over.
  std::uint32_t switch_count() const { return switch_count_; }
  /// Port every AS switch uses as its Legacy-Switching uplink.
  PortId ls_uplink_port() const { return config_.hosts_per_switch + 1; }

  /// Host record for index `i` (O(1), nothing stored). MACs carry the
  /// locally-administered bit; IPs are drawn from 10.0.0.0/8.
  CampusHost host(std::uint32_t i) const;

  /// Traffic intensity in [night_floor, 1] at simulated time `t`.
  double diurnal_intensity(SimTime t) const;
  /// True while a flash-crowd window is open at `t`.
  bool in_flash_crowd(SimTime t) const;

  /// Draws the next workload event. The stream is endless and strictly
  /// time-ordered; interarrival times shrink with diurnal intensity.
  Event next_event();

  /// Deterministic payload bytes for a content id (same seed + id + size ->
  /// same bytes on every platform). Viral flows of one content id therefore
  /// carry byte-identical payloads; distinct ids differ from the first
  /// 8-byte window on.
  std::vector<std::uint8_t> content_payload(std::uint32_t content, std::size_t bytes) const;

  /// Current position of the event clock.
  SimTime now() const { return clock_; }

 private:
  /// Counter-based deterministic uniform draw.
  std::uint64_t next_u64() { return splitmix64(seed_ ^ ++counter_); }
  double next_unit();  // uniform in [0, 1)
  std::uint32_t next_host() { return static_cast<std::uint32_t>(next_u64() % config_.hosts); }

  CampusConfig config_;
  std::uint32_t switch_count_ = 0;
  std::uint64_t seed_ = 0;
  std::uint64_t counter_ = 0;
  SimTime clock_ = 0;
};

}  // namespace livesec::scenario
