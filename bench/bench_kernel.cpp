// B-K — Simulation-kernel hot path: raw event throughput and end-to-end
// packet throughput of the discrete-event kernel itself.
//
// Every LiveSec number (§V.B throughput, latency, scaling) is produced by
// this kernel, so its overhead is the noise floor of the whole reproduction.
// Two workloads:
//
//   B-K1  events_drain_1m — 1024 concurrent self-rescheduling event chains
//         (the in-flight packet count of ~1k active flows), ~1M dispatches
//         total, callbacks capturing ~32 bytes (what a link
//         delivery captures). Run once on the production kernel and once on
//         the std::function reference heap (reference_event_queue.h), so the
//         speedup ratio is reproducible on any host.
//
//   B-K2  fit_redirect — FIT-building-style deployment (Figure 6): clients
//         and sinks behind AS switches on a legacy backbone, UDP traffic
//         redirected through IDS service elements (4 rewrite hops per
//         policied flow, paper §IV.A). Measures wall-clock packets/sec and
//         events/sec, i.e. how fast the kernel pushes real LiveSec traffic,
//         and the simulation-deterministic events dispatched per delivered
//         packet (`fit_redirect_events_per_packet`): one per link hop.
//
// `--json` emits the machine-readable form recorded in BENCH_kernel.json,
// including the process's peak RSS once the FIT runs are done
// (`fit_redirect_peak_rss_mb`): the kernel's queues must stay bounded by the
// events in flight, not by the events dispatched.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "net/network.h"
#include "net/traffic.h"
#include "sim/reference_event_queue.h"
#include "sim/simulator.h"

using namespace livesec;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- B-K1: self-rescheduling drain -----------------------------------------

constexpr std::uint64_t kLanes = 1024;        // concurrent in-flight events
constexpr std::uint64_t kHopsPerLane = 1000;  // ~1.02M dispatches total
constexpr std::uint64_t kDelaySpread = 1024;  // reschedule 0..spread-1 ns ahead

/// Minimal kernel around the reference heap so both queues run the exact
/// same workload through the same scheduling interface.
class ReferenceSimulator {
 public:
  SimTime now() const { return now_; }
  void schedule(SimTime delay, std::function<void()> action) {
    queue_.push(now_ + delay, std::move(action));
  }
  std::uint64_t run() {
    std::uint64_t count = 0;
    while (!queue_.empty()) {
      sim::ReferenceEvent e = queue_.pop();
      now_ = e.time;
      e.action();
      ++count;
    }
    return count;
  }

 private:
  SimTime now_ = 0;
  sim::ReferenceEventQueue queue_;
};

/// One hop of a chain: advance an xorshift stream, reschedule self 0..999 ns
/// ahead. The capture (sim*, remaining, rng, acc = 32 bytes) mirrors what the
/// Link delivery callback captures on the real packet path.
template <typename Sim>
void hop(Sim& sim, std::uint64_t remaining, std::uint64_t rng, std::uint64_t acc) {
  if (remaining == 0) return;
  std::uint64_t r = rng;
  r ^= r << 13;
  r ^= r >> 7;
  r ^= r << 17;
  sim.schedule(static_cast<SimTime>(r % kDelaySpread),
               [&sim, remaining, r, acc] { hop(sim, remaining - 1, r, acc + r); });
}

/// Best of `kDrainRepeats` runs: the host is a small shared container, so a
/// single run can lose a big slice of wall time to a neighbor; the max is
/// the least-disturbed measurement.
constexpr int kDrainRepeats = 5;

template <typename Sim>
double run_drain(std::uint64_t& dispatched) {
  double best = 0;
  for (int rep = 0; rep < kDrainRepeats; ++rep) {
    Sim sim;
    for (std::uint64_t lane = 0; lane < kLanes; ++lane) {
      hop(sim, kHopsPerLane, 0x9E3779B97F4A7C15ull * (lane + 1), 0);
    }
    const auto start = Clock::now();
    dispatched = sim.run();
    const double elapsed = seconds_since(start);
    best = std::max(best, static_cast<double>(dispatched) / elapsed);
  }
  return best;
}

// --- B-K2: FIT-style redirection scenario ----------------------------------

struct FitResult {
  double packets_per_sec_wall = 0;  // delivered end-to-end packets / wall second
  double events_per_sec_wall = 0;   // kernel dispatches / wall second
  double events_per_packet = 0;     // kernel dispatches / delivered packet
  double goodput_bps = 0;           // simulated goodput (sanity anchor)
};

FitResult run_fit_once() {
  net::Network network;
  auto& backbone = network.add_legacy_switch("backbone");
  for (int i = 0; i < 2; ++i) {
    auto& se_sw = network.add_as_switch("se-sw" + std::to_string(i), backbone, 10e9);
    network.add_service_element(svc::ServiceType::kIntrusionDetection, se_sw);
  }
  ctrl::Policy policy;
  policy.nw_proto = static_cast<std::uint8_t>(pkt::IpProto::kUdp);
  policy.action = ctrl::PolicyAction::kRedirect;
  policy.service_chain = {svc::ServiceType::kIntrusionDetection};
  network.controller().policies().add(policy);

  auto& client_sw = network.add_as_switch("clients", backbone, 10e9);
  auto& sink_sw = network.add_as_switch("sinks", backbone, 10e9);
  std::vector<net::Host*> clients, sinks;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(&network.add_host("c" + std::to_string(i), client_sw, 10e9));
    sinks.push_back(&network.add_host("s" + std::to_string(i), sink_sw, 10e9));
  }
  network.start();

  const SimTime duration = 1 * kSecond;
  std::vector<std::unique_ptr<net::UdpCbrApp>> apps;
  for (int i = 0; i < 4; ++i) {
    for (int f = 0; f < 4; ++f) {
      apps.push_back(std::make_unique<net::UdpCbrApp>(
          *clients[static_cast<std::size_t>(i)],
          net::UdpCbrApp::Config{.dst = sinks[static_cast<std::size_t>(i)]->ip(),
                                 .dst_port = static_cast<std::uint16_t>(9000 + f),
                                 .src_port = static_cast<std::uint16_t>(40000 + f),
                                 .rate_bps = 75e6,
                                 .packet_payload = 1400,
                                 .duration = duration}));
    }
  }
  const SimTime sim_start = network.sim().now();
  for (auto& app : apps) app->start();

  const auto start = Clock::now();
  const std::uint64_t events = network.sim().run_until(sim_start + duration);
  const double elapsed = seconds_since(start);

  std::uint64_t delivered_packets = 0;
  std::uint64_t delivered_bytes = 0;
  for (auto* sink : sinks) {
    delivered_packets += sink->rx_ip_packets();
    delivered_bytes += sink->rx_ip_bytes();
  }
  FitResult r;
  r.packets_per_sec_wall = static_cast<double>(delivered_packets) / elapsed;
  r.events_per_sec_wall = static_cast<double>(events) / elapsed;
  r.events_per_packet = static_cast<double>(events) / static_cast<double>(delivered_packets);
  r.goodput_bps = static_cast<double>(delivered_bytes) * 8.0 /
                  to_seconds(network.sim().now() - sim_start);
  return r;
}

FitResult run_fit() {
  FitResult best;
  for (int rep = 0; rep < 2; ++rep) {
    const FitResult r = run_fit_once();
    if (r.packets_per_sec_wall > best.packets_per_sec_wall) best = r;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = benchjson::wants_json(argc, argv);
  if (!json) std::printf("=== B-K: simulation-kernel hot path ===\n");

  std::uint64_t dispatched = 0;
  const double kernel_eps = run_drain<sim::Simulator>(dispatched);
  std::uint64_t ref_dispatched = 0;
  const double ref_eps = run_drain<ReferenceSimulator>(ref_dispatched);
  const double speedup = kernel_eps / ref_eps;

  const FitResult fit = run_fit();
  const double fit_peak_rss = benchjson::proc_status_mb("VmHWM:");
  const unsigned hw = std::thread::hardware_concurrency();

  if (json) {
    benchjson::Emitter out("bench_kernel");
    out.metric("events_drain_1m", kernel_eps, "events/s");
    out.metric("events_drain_1m_refheap", ref_eps, "events/s");
    out.metric("events_drain_speedup", speedup, "x");
    out.metric("fit_redirect_packets_per_sec", fit.packets_per_sec_wall, "packets/s");
    out.metric("fit_redirect_events_per_sec", fit.events_per_sec_wall, "events/s");
    out.metric("fit_redirect_events_per_packet", fit.events_per_packet, "events/packet");
    out.metric("fit_redirect_goodput", fit.goodput_bps, "bps");
    out.metric("fit_redirect_peak_rss_mb", fit_peak_rss, "MB");
    out.metric("hardware_concurrency", hw, "threads");
    out.print();
  } else {
    std::printf("%-34s %12.0f events/s  (%llu dispatched)\n", "drain 1M (production kernel)",
                kernel_eps, static_cast<unsigned long long>(dispatched));
    std::printf("%-34s %12.0f events/s  (%llu dispatched)\n", "drain 1M (reference heap)",
                ref_eps, static_cast<unsigned long long>(ref_dispatched));
    std::printf("%-34s %11.2fx\n", "kernel vs reference heap", speedup);
    std::printf("%-34s %12.0f packets/s wall\n", "FIT redirect end-to-end", fit.packets_per_sec_wall);
    std::printf("%-34s %12.0f events/s wall\n", "FIT redirect kernel rate", fit.events_per_sec_wall);
    std::printf("%-34s %12.2f events/packet\n", "FIT redirect kernel cost", fit.events_per_packet);
    std::printf("%-34s %15s\n", "FIT redirect goodput", format_rate_bps(fit.goodput_bps).c_str());
    std::printf("%-34s %12.1f MB\n", "peak RSS after FIT redirect", fit_peak_rss);
  }
  return 0;
}
