#include "scenario/campus.h"

#include <algorithm>
#include <cmath>

namespace livesec::scenario {

CampusGenerator::CampusGenerator(CampusConfig config)
    : config_(config), seed_(splitmix64(config.seed)) {
  config_.hosts = std::max<std::uint32_t>(config_.hosts, 1);
  config_.hosts_per_switch = std::max<std::uint32_t>(config_.hosts_per_switch, 1);
  switch_count_ = (config_.hosts + config_.hosts_per_switch - 1) / config_.hosts_per_switch;
}

CampusHost CampusGenerator::host(std::uint32_t i) const {
  CampusHost h;
  h.index = i;
  // Locally-administered unicast MACs; index-derived, so host(i) needs no
  // lookup table even at a million hosts.
  h.mac = MacAddress::from_uint64(0x02'0000'0000'00ull | i);
  // 10.0.0.0/8 gives 16M addresses; +1 skips the network address.
  h.ip = Ipv4Address((10u << 24) | (i + 1));
  h.dpid = 1 + i / config_.hosts_per_switch;
  h.port = static_cast<PortId>(1 + i % config_.hosts_per_switch);
  return h;
}

double CampusGenerator::diurnal_intensity(SimTime t) const {
  if (config_.day_length <= 0) return 1.0;
  const double phase =
      2.0 * 3.14159265358979323846 * static_cast<double>(t % config_.day_length) /
      static_cast<double>(config_.day_length);
  // Cosine day curve: midnight trough, midday peak.
  const double wave = 0.5 * (1.0 - std::cos(phase));
  return config_.night_floor + (1.0 - config_.night_floor) * wave;
}

bool CampusGenerator::in_flash_crowd(SimTime t) const {
  if (config_.flash_interval <= 0 || config_.flash_duration <= 0) return false;
  // Window opens at the middle of each interval (never at t = 0, so cold
  // starts are not instantly in a crowd).
  const SimTime pos = t % config_.flash_interval;
  const SimTime open = config_.flash_interval / 2;
  return pos >= open && pos < open + config_.flash_duration;
}

double CampusGenerator::next_unit() {
  // 53 high bits -> uniform double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * (1.0 / 9007199254740992.0);
}

CampusGenerator::Event CampusGenerator::next_event() {
  // Poisson-ish arrivals: exponential interarrival whose mean tracks the
  // diurnal intensity (fewer events at night, a rush at midday).
  const double rate_per_sec = std::max(
      config_.flows_per_host_per_sec * config_.hosts * diurnal_intensity(clock_), 1e-9);
  const double mean_gap = static_cast<double>(kSecond) / rate_per_sec;
  const double draw = -std::log(1.0 - next_unit());
  clock_ += std::max<SimTime>(1, static_cast<SimTime>(draw * mean_gap));

  Event ev;
  ev.at = clock_;
  ev.host = next_host();
  const double kind = next_unit();
  if (kind < config_.roam_fraction) {
    ev.kind = EventKind::kRoam;
    ev.peer = next_host();  // re-attach at this host's switch
  } else if (kind < config_.roam_fraction + config_.relese_fraction) {
    ev.kind = EventKind::kReLease;
    ev.peer = next_host();  // the expired lease is reassigned to this host
  } else {
    ev.kind = EventKind::kFlow;
    // Virality draw first, so the peer-selection stream below is untouched
    // when the knob is off (existing seeds stay bit-identical).
    if (config_.viral_fraction > 0 && next_unit() < config_.viral_fraction) {
      ev.content = 1 + static_cast<std::uint32_t>(
                           next_u64() % std::max<std::uint32_t>(config_.viral_contents, 1));
    }
    if (in_flash_crowd(clock_) && next_unit() < config_.flash_bias) {
      // Hot targets rotate per window, drawn deterministically from the
      // window ordinal so every generator instance agrees on the crowd.
      const std::uint64_t window = static_cast<std::uint64_t>(clock_ / config_.flash_interval);
      const std::uint64_t pick = next_u64() % std::max<std::uint32_t>(config_.flash_targets, 1);
      ev.peer = static_cast<std::uint32_t>(splitmix64(seed_ ^ (window << 8) ^ pick) %
                                           config_.hosts);
    } else {
      ev.peer = next_host();
    }
  }
  if (ev.peer == ev.host) ev.peer = (ev.peer + 1) % config_.hosts;
  return ev;
}

std::vector<std::uint8_t> CampusGenerator::content_payload(std::uint32_t content,
                                                           std::size_t bytes) const {
  // Keyed off the campus seed and the content id only — independent of the
  // event stream position, so every flow of one content id gets the same
  // bytes no matter when it starts.
  std::vector<std::uint8_t> out(bytes);
  const std::uint64_t key = splitmix64(seed_ ^ (0xC0'47E47ull + content));
  for (std::size_t i = 0; i < bytes; i += 8) {
    const std::uint64_t word = splitmix64(key + i / 8);
    for (std::size_t b = 0; b < 8 && i + b < bytes; ++b) {
      out[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
  return out;
}

}  // namespace livesec::scenario
