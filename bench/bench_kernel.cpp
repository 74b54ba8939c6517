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
//         the pre-calendar reference heap (reference_event_queue.h), so the
//         speedup ratio is reproducible on any host.
//
//   B-K2  fit_redirect — FIT-building-style deployment (Figure 6): clients
//         and sinks behind AS switches on a legacy backbone, UDP traffic
//         redirected through IDS service elements (4 rewrite hops per
//         policied flow, paper §IV.A). Measures wall-clock packets/sec and
//         events/sec, i.e. how fast the kernel pushes real LiveSec traffic.
//
//   B-K3  parallel_drain — the B-K1 chain workload sharded over 16 islands
//         with periodic cross-island hops, run through the barrier-window
//         kernel at a sweep of thread counts (default 1/2/4/8; `--threads N`
//         or `--threads 1,4` restricts the sweep). The serial baseline is
//         the *same* workload on one plain Simulator, re-measured in the
//         same process interleaved A/B with the parallel runs so both see
//         the same machine weather. B-K2 is also re-run through
//         Network::enable_parallel as an end-to-end cross-check: its
//         simulated goodput must match the serial run bit for bit.
//
// `--json` emits the machine-readable form recorded in BENCH_kernel.json,
// including the process's peak RSS once both FIT runs are done
// (`fit_redirect_peak_rss_mb`): the kernel's queues must stay bounded by the
// events in flight, not by the events dispatched.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "net/network.h"
#include "net/traffic.h"
#include "sim/parallel.h"
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
  double goodput_bps = 0;           // simulated goodput (sanity anchor)
  std::uint64_t delivered_bytes = 0;  // exact, for serial/parallel equality
};

/// `threads` == 0 runs the serial kernel; > 0 routes the same deployment
/// through Network::enable_parallel with that worker count.
FitResult run_fit_once(unsigned threads = 0) {
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
  if (threads > 0) {
    network.enable_parallel(net::Network::ParallelConfig{.threads = threads, .max_islands = 8});
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
  std::uint64_t events = 0;
  if (sim::ParallelSimulator* par = network.parallel()) {
    const std::uint64_t before = par->stats().events;
    network.run_for(duration);
    events = par->stats().events - before;
  } else {
    events = network.sim().run_until(sim_start + duration);
  }
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
  r.goodput_bps = static_cast<double>(delivered_bytes) * 8.0 /
                  to_seconds(network.sim().now() - sim_start);
  r.delivered_bytes = delivered_bytes;
  return r;
}

FitResult run_fit(unsigned threads = 0) {
  FitResult best;
  for (int rep = 0; rep < 2; ++rep) {
    const FitResult r = run_fit_once(threads);
    if (r.packets_per_sec_wall > best.packets_per_sec_wall) best = r;
  }
  return best;
}

// --- B-K3: sharded drain through the barrier-window kernel -------------------

constexpr std::uint32_t kIslands = 16;
/// Window width and the minimum delay of a cross-island hop (the conservative
/// kernel's contract). ~8 local hops fit per window, so the barrier cost is
/// amortized the way a real building-partitioned campus amortizes it.
constexpr SimTime kIslandLookahead = 8192;
/// Every 16th hop forwards the chain to the next island over a "fiber run"
/// of >= lookahead, so the mailbox path stays continuously exercised.
constexpr std::uint64_t kCrossEvery = 16;

/// One hop of a sharded chain on island `at`. `sims` holds one Simulator per
/// island — or the same Simulator 16 times for the serial A/B baseline, in
/// which case schedule_cross degenerates to a plain local schedule and the
/// workload is identical event for event.
void island_hop(const std::vector<sim::Simulator*>& sims, std::uint32_t at,
                std::uint64_t remaining, std::uint64_t rng, std::uint64_t acc) {
  if (remaining == 0) return;
  std::uint64_t r = rng;
  r ^= r << 13;
  r ^= r >> 7;
  r ^= r << 17;
  sim::Simulator& self = *sims[at];
  if (remaining % kCrossEvery == 0) {
    const std::uint32_t next = (at + 1) % static_cast<std::uint32_t>(sims.size());
    self.schedule_cross(*sims[next],
                        kIslandLookahead + static_cast<SimTime>(r % kDelaySpread),
                        [&sims, next, remaining, r, acc] {
                          island_hop(sims, next, remaining - 1, r, acc + r);
                        });
  } else {
    self.schedule(static_cast<SimTime>(r % kDelaySpread),
                  [&sims, at, remaining, r, acc] {
                    island_hop(sims, at, remaining - 1, r, acc + r);
                  });
  }
}

void seed_island_lanes(const std::vector<sim::Simulator*>& sims) {
  for (std::uint64_t lane = 0; lane < kLanes; ++lane) {
    const std::uint32_t at = static_cast<std::uint32_t>(lane % sims.size());
    island_hop(sims, at, kHopsPerLane + 1, 0x9E3779B97F4A7C15ull * (lane + 1), 0);
  }
}

/// The sharded workload on one plain Simulator — the honest serial baseline.
double run_island_drain_serial(std::uint64_t& dispatched) {
  sim::Simulator sim;
  std::vector<sim::Simulator*> sims(kIslands, &sim);
  seed_island_lanes(sims);
  const auto start = Clock::now();
  dispatched = sim.run();
  return static_cast<double>(dispatched) / seconds_since(start);
}

struct ParallelDrainResult {
  double events_per_sec = 0;
  std::uint64_t dispatched = 0;
  sim::ParallelSimulator::Stats stats;
};

ParallelDrainResult run_island_drain_parallel(unsigned threads) {
  std::vector<std::unique_ptr<sim::Simulator>> owned(kIslands);
  std::vector<sim::Simulator*> sims(kIslands);
  sim::ParallelSimulator par(
      sim::ParallelSimulator::Config{.threads = threads, .lookahead = kIslandLookahead});
  for (std::uint32_t i = 0; i < kIslands; ++i) {
    owned[i] = std::make_unique<sim::Simulator>();
    sims[i] = owned[i].get();
    par.add_island(*owned[i]);
  }
  seed_island_lanes(sims);
  const auto start = Clock::now();
  ParallelDrainResult r;
  r.dispatched = par.run();
  r.events_per_sec = static_cast<double>(r.dispatched) / seconds_since(start);
  r.stats = par.stats();
  return r;
}

/// Parses `--threads 4` / `--threads 1,2,8` into the sweep list.
std::vector<unsigned> thread_sweep(int argc, char** argv) {
  std::vector<unsigned> sweep = {1, 2, 4, 8};
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) != "--threads") continue;
    sweep.clear();
    std::string list = argv[i + 1];
    for (std::size_t pos = 0; pos < list.size();) {
      std::size_t comma = list.find(',', pos);
      if (comma == std::string::npos) comma = list.size();
      const unsigned n = static_cast<unsigned>(std::atoi(list.substr(pos, comma - pos).c_str()));
      if (n > 0) sweep.push_back(n);
      pos = comma + 1;
    }
    if (sweep.empty()) sweep = {1, 2, 4, 8};
  }
  return sweep;
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

  // B-K3: interleaved A/B — every repetition measures the serial baseline
  // and every thread count back to back, so all configs share the machine's
  // weather and the speedup ratio is as fair as one host can make it.
  const std::vector<unsigned> sweep = thread_sweep(argc, argv);
  constexpr int kParallelRepeats = 3;
  double island_serial_eps = 0;
  std::uint64_t island_serial_dispatched = 0;
  std::vector<double> par_eps(sweep.size(), 0);
  std::vector<ParallelDrainResult> par_last(sweep.size());
  for (int rep = 0; rep < kParallelRepeats; ++rep) {
    std::uint64_t d = 0;
    island_serial_eps = std::max(island_serial_eps, run_island_drain_serial(d));
    island_serial_dispatched = d;
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      ParallelDrainResult r = run_island_drain_parallel(sweep[i]);
      par_eps[i] = std::max(par_eps[i], r.events_per_sec);
      par_last[i] = std::move(r);
    }
  }

  // End-to-end cross-check: the FIT scenario through the parallel kernel.
  // Simulated goodput must equal the serial run exactly (determinism), while
  // wall-clock throughput shows what the barrier overhead costs end to end.
  const FitResult fit_par = run_fit(/*threads=*/2);
  const bool fit_bytes_match = fit_par.delivered_bytes == fit.delivered_bytes;
  const double fit_peak_rss = benchjson::proc_status_mb("VmHWM:");

  const unsigned hw = std::thread::hardware_concurrency();

  if (json) {
    benchjson::Emitter out("bench_kernel");
    out.metric("events_drain_1m", kernel_eps, "events/s");
    out.metric("events_drain_1m_refheap", ref_eps, "events/s");
    out.metric("events_drain_speedup", speedup, "x");
    out.metric("fit_redirect_packets_per_sec", fit.packets_per_sec_wall, "packets/s");
    out.metric("fit_redirect_events_per_sec", fit.events_per_sec_wall, "events/s");
    out.metric("fit_redirect_goodput", fit.goodput_bps, "bps");
    out.metric("fit_redirect_peak_rss_mb", fit_peak_rss, "MB");
    out.metric("hardware_concurrency", hw, "threads");
    out.metric("parallel_drain_serial", island_serial_eps, "events/s");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const std::string tag = "_t" + std::to_string(sweep[i]);
      const sim::ParallelSimulator::Stats& st = par_last[i].stats;
      out.metric("parallel_drain" + tag, par_eps[i], "events/s");
      out.metric("parallel_drain_speedup" + tag, par_eps[i] / island_serial_eps, "x");
      out.metric("parallel_rounds" + tag, static_cast<double>(st.rounds), "windows");
      out.metric("parallel_window_stalls" + tag, static_cast<double>(st.window_stalls), "stalls");
      out.metric("parallel_remote_messages" + tag, static_cast<double>(st.remote_messages), "msgs");
      for (unsigned w = 0; w < st.threads; ++w) {
        out.metric("parallel" + tag + "_thread" + std::to_string(w) + "_events",
                   static_cast<double>(st.thread_events[w]), "events");
      }
      out.flag("parallel_drain_deterministic" + tag,
               par_last[i].dispatched == island_serial_dispatched);
    }
    out.metric("fit_redirect_parallel_t2_packets_per_sec", fit_par.packets_per_sec_wall,
               "packets/s");
    out.metric("fit_redirect_parallel_t2_goodput", fit_par.goodput_bps, "bps");
    out.flag("fit_redirect_parallel_goodput_matches", fit_bytes_match);
    out.print();
  } else {
    std::printf("%-34s %12.0f events/s  (%llu dispatched)\n", "drain 1M (production kernel)",
                kernel_eps, static_cast<unsigned long long>(dispatched));
    std::printf("%-34s %12.0f events/s  (%llu dispatched)\n", "drain 1M (reference heap)",
                ref_eps, static_cast<unsigned long long>(ref_dispatched));
    std::printf("%-34s %11.2fx\n", "calendar vs reference heap", speedup);
    std::printf("%-34s %12.0f packets/s wall\n", "FIT redirect end-to-end", fit.packets_per_sec_wall);
    std::printf("%-34s %12.0f events/s wall\n", "FIT redirect kernel rate", fit.events_per_sec_wall);
    std::printf("%-34s %15s\n", "FIT redirect goodput", format_rate_bps(fit.goodput_bps).c_str());
    std::printf("%-34s %12.1f MB\n", "peak RSS after FIT redirect", fit_peak_rss);
    std::printf("--- parallel kernel (16 islands, %u hw threads) ---\n", hw);
    std::printf("%-34s %12.0f events/s  (%llu dispatched)\n", "sharded drain (serial baseline)",
                island_serial_eps, static_cast<unsigned long long>(island_serial_dispatched));
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const sim::ParallelSimulator::Stats& st = par_last[i].stats;
      std::printf("%-2u threads %23s %12.0f events/s  %5.2fx  (%llu windows, %llu stalls%s)\n",
                  sweep[i], "", par_eps[i], par_eps[i] / island_serial_eps,
                  static_cast<unsigned long long>(st.rounds),
                  static_cast<unsigned long long>(st.window_stalls),
                  par_last[i].dispatched == island_serial_dispatched ? "" : ", COUNT MISMATCH");
    }
    std::printf("%-34s %12.0f packets/s wall  (goodput %s, %s)\n", "FIT redirect, 2 threads",
                fit_par.packets_per_sec_wall, format_rate_bps(fit_par.goodput_bps).c_str(),
                fit_bytes_match ? "matches serial" : "MISMATCH vs serial");
  }
  return 0;
}
