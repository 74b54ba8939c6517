// steadybench: entry point of the steady-state benchmark.
//
//   steadybench --workload service_warm|fit_building
//               --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//
// --trace 0 measures the end-to-end metrics untraced. --trace 1 measures
// half the region untraced and half traced, reports the per-layer metrics,
// writes the spans to DIR, and runs the determinism self-check. The last
// line of standard output is the result object.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace steady {
namespace {

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Windows per timed region; rates and call percentiles are window medians.
constexpr int kWindows = 10;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The p99 of timed calls moves with the machine's load epochs by more than
/// any bound the format allows, so it is reported with the per-layer
/// metrics (as `latency.call_p99_us`) and on every run's detail line.
constexpr MetricSpec kEndToEnd[] = {
    {"throughput_per_s", "1/s"},
    {"call_p50_us", "us"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// Every per-layer metric, in output order. A layer a workload does not
/// exercise reports 0.
constexpr MetricSpec kPerLayer[] = {
    {"latency.call_p99_us", "us"},
    {"controller.setup_call_us", "us"},
    {"controller.flow_removed_call_us", "us"},
    {"controller.arp_call_us", "us"},
    {"controller.busy_share", "ratio"},
    {"controller.decision_cache_hit_ratio", "ratio"},
    {"controller.decision_cache_invalidations", "count"},
    {"controller.flowmods_per_setup", "count"},
    {"controller.messages_per_setup", "count"},
    {"controller.setups_failed", "count"},
    {"controller.policy_lookup_ns", "ns"},
    {"controller.routing_find_ns", "ns"},
    {"topology.upsert_node_ns", "ns"},
    {"openflow.channel_drain_share", "ratio"},
    {"openflow.flow_table_lookup_ns", "ns"},
    {"switching.packets_forwarded", "count"},
    {"switching.miss_ratio", "ratio"},
    {"sim.busy_share", "ratio"},
    {"sim.events_per_packet", "count"},
    {"sim.events_per_s", "1/s"},
    {"services.se_packets", "count"},
    {"services.ids_inspect_ns_per_kb", "ns/KB"},
    {"monitor.events_per_setup", "count"},
    {"monitor.append_ns_per_event", "ns"},
    {"ha.busy_share", "ratio"},
    {"ha.frames_published", "count"},
    {"ha.bytes_per_setup", "B"},
    {"ha.records_coalesced_ratio", "ratio"},
    {"ha.standby_lag_records", "count"},
    {"harness.share", "ratio"},
    {"harness.trace_overhead_share", "ratio"},
    {"trace.layer_coverage", "ratio"},
    {"stationarity.half_rate_ratio", "ratio"},
    {"state.active_flows_max", "count"},
    {"state.event_rows_max", "count"},
    {"state.pending_setups_max", "count"},
    {"determinism.counts_match", "count"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir = ".";
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::string_view(value) == "1";
    } else if (key == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0 && argc % 2 == 1;
}

bool known_workload(const std::string& name) {
  return name == "service_warm" || name == "fit_building";
}

/// Steps the reduced determinism run takes: ~15k setups, or one episode.
int reduced_steps(const std::string& name) { return name == "fit_building" ? 1100 : 60; }

/// The workload at full size, or the reduced size of the determinism check.
std::unique_ptr<Workload> make(const std::string& name, std::uint64_t seed, bool reduced) {
  if (name == "service_warm") {
    ServiceParams p;
    p.seed = seed;
    if (reduced) p.live_flows = 2048;
    return make_service_warm(p);
  }
  if (name == "fit_building") {
    FitParams p;
    p.seed = seed;
    if (reduced) p.warmup_episodes = 1;
    return make_fit_building(p);
  }
  return nullptr;
}

std::string counts_json(const Counts& counts) {
  std::string out = "{";
  for (std::size_t i = 0; i < counts.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + counts[i].first + "\": " + std::to_string(counts[i].second);
  }
  return out + "}";
}

std::string doubles_json(const std::vector<double>& values) {
  std::string out = "[";
  char buf[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.6g", i == 0 ? "" : ", ", values[i]);
    out += buf;
  }
  return out + "]";
}

/// Prints the timed region's shape: per-window rates, half rates, state.
void print_detail(const char* label, const Measurement& m) {
  std::string state = "{";
  for (std::size_t i = 0; i < m.state_max.size(); ++i) {
    state += (i == 0 ? "\"" : ", \"") + m.state_max[i].name + "\": [" +
             std::to_string(m.state_max[i].value) + ", " + std::to_string(m.state_max[i].bound) + "]";
  }
  state += "}";
  std::printf(
      "%s {\"wall_s\": %.4f, \"ops\": %llu, \"calls\": %llu, \"window_rate\": %s, "
      "\"call_p99_us\": %.6g, \"first_half_rate\": %.6g, \"second_half_rate\": %.6g, "
      "\"state_max_and_bound\": %s}\n",
      label, m.wall_s, static_cast<unsigned long long>(m.ops),
      static_cast<unsigned long long>(m.calls), doubles_json(m.window_rate).c_str(),
      median(m.window_p99_us), m.first_half_rate, m.second_half_rate, state.c_str());
}

void check_state(const Measurement& m, std::vector<std::string>& failures) {
  for (const StateSize& s : m.state_max) {
    if (s.value > s.bound) {
      failures.push_back("live state " + s.name + " reached " + std::to_string(s.value) +
                         " > bound " + std::to_string(s.bound));
    }
  }
}

std::size_t state_max(const Measurement& m, const char* name) {
  for (const StateSize& s : m.state_max) {
    if (s.name == name) return s.value;
  }
  return 0;
}

/// Runs the reduced workload for a fixed number of steps; its counters.
Counts reduced_counts(const std::string& name, std::uint64_t seed) {
  std::unique_ptr<Workload> w = make(name, seed, true);
  Tracer off;
  std::vector<std::int64_t> ignored;
  for (int i = 0; i < reduced_steps(name); ++i) w->step(off, ignored);
  w->finish_and_check();
  return w->counts();
}

/// Per-layer metrics of the traced half, from span totals.
void trace_metrics(const Tracer& tracer, Metrics& out) {
  const auto t = tracer.totals();
  const double region = static_cast<double>(t[kRegion].total_ns);
  const auto share = [&](std::initializer_list<Layer> layers) {
    double ns = 0;
    for (Layer l : layers) ns += static_cast<double>(t[l].total_ns);
    return region > 0 ? ns / region : 0.0;
  };
  const auto mean_us = [&](Layer l) {
    return t[l].count > 0 ? static_cast<double>(t[l].total_ns) / static_cast<double>(t[l].count) / 1e3
                          : 0.0;
  };
  out.add("controller.setup_call_us", mean_us(kControllerSetup), "us");
  out.add("controller.flow_removed_call_us", mean_us(kControllerFlowRemoved), "us");
  out.add("controller.arp_call_us", mean_us(kControllerArp), "us");
  out.add("controller.busy_share", share({kControllerSetup, kControllerFlowRemoved, kControllerArp}),
          "ratio");
  out.add("openflow.channel_drain_share", share({kOpenflowDrain}), "ratio");
  out.add("sim.busy_share", share({kSimSlice}), "ratio");
  out.add("ha.busy_share", share({kHaFlush, kHaDeliver}), "ratio");
  out.add("harness.share", share({kHarness}), "ratio");
  // The region's self time is the wall time no span covered.
  out.add("trace.layer_coverage",
          region > 0 ? 1.0 - static_cast<double>(t[kRegion].self_ns) / region - share({kHarness}) : 0.0,
          "ratio");
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const MetricSpec* specs, std::size_t n_specs, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted) + ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < n_specs; ++i) {
    double value = 0;
    for (const Metrics::Row& r : metrics.rows) {
      if (r.name == specs[i].name) value = r.value;
    }
    if (!std::isfinite(value)) value = 0;
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out += std::string(i == 0 ? "" : ", ") + "\"" + specs[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run(const Args& args) {
  std::printf("fingerprint %s\n", machine_fingerprint().c_str());
  std::fflush(stdout);

  // Set-up, repeated; the last instance is measured.
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_times;
  for (int r = 0; r < kSetupRepeats; ++r) {
    workload.reset();
    const std::int64_t t0 = now_ns();
    workload = make(args.workload, args.seed, false);
    setup_times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  std::printf("setup_s %s\n", doubles_json(setup_times).c_str());
  const double setup_rss_mb = peak_rss_mb();

  Tracer tracer;
  Metrics metrics;
  std::vector<std::string> failures;
  if (!args.trace) {
    const Measurement m = measure(*workload, tracer, args.seconds, kWindows);
    print_detail("timed", m);
    check_state(m, failures);
    metrics.add("throughput_per_s", median(m.window_rate), "1/s");
    metrics.add("call_p50_us", median(m.window_p50_us), "us");
  } else {
    const Measurement plain = measure(*workload, tracer, args.seconds / 2, kWindows / 2);
    const Counts before = workload->counts();
    tracer.set_enabled(true);
    const Measurement traced = measure(*workload, tracer, args.seconds / 2, kWindows / 2);
    tracer.set_enabled(false);
    const Counts after = workload->counts();
    print_detail("untraced_half", plain);
    print_detail("traced_half", traced);
    check_state(plain, failures);
    check_state(traced, failures);
    trace_metrics(tracer, metrics);
    metrics.add("latency.call_p99_us", median(traced.window_p99_us), "us");
    const double plain_per_op = plain.wall_s / static_cast<double>(plain.ops);
    const double traced_per_op = traced.wall_s / static_cast<double>(traced.ops);
    metrics.add("harness.trace_overhead_share", (traced_per_op - plain_per_op) / plain_per_op, "ratio");
    metrics.add("stationarity.half_rate_ratio", traced.second_half_rate / traced.first_half_rate,
                "ratio");
    metrics.add("state.active_flows_max", static_cast<double>(state_max(traced, "active_flows")), "count");
    metrics.add("state.event_rows_max", static_cast<double>(state_max(traced, "event_rows")), "count");
    metrics.add("state.pending_setups_max", static_cast<double>(state_max(traced, "pending_setups")),
                "count");
    std::printf("traced_counts %s\n", counts_json(after).c_str());
    workload->layer_metrics(before, after, traced.wall_s, metrics);
    const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".spans.csv";
    if (!tracer.write_csv(path)) std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }

  const std::vector<std::string> checks = workload->finish_and_check();
  failures.insert(failures.end(), checks.begin(), checks.end());
  const std::uint64_t attempted = workload->attempted();
  const std::uint64_t completed = workload->completed();
  const std::uint64_t failed = attempted > completed ? attempted - completed : 0;
  metrics.add("setup_s", median(setup_times), "s");
  const double end_rss_mb = peak_rss_mb();
  metrics.add("peak_rss_mb", end_rss_mb, "MB");
  std::printf("memory {\"peak_rss_mb_after_setup\": %.3f, \"peak_rss_mb_at_end\": %.3f}\n",
              setup_rss_mb, end_rss_mb);
  workload.reset();

  if (args.trace) {
    // Determinism: two reduced runs of one seed give identical counters; a
    // second seed is reported beside them.
    const Counts first = reduced_counts(args.workload, args.seed);
    const Counts second = reduced_counts(args.workload, args.seed);
    const Counts other = reduced_counts(args.workload, args.seed + 1);
    std::printf("determinism seed %llu %s\n", static_cast<unsigned long long>(args.seed),
                counts_json(first).c_str());
    std::printf("determinism seed %llu %s\n", static_cast<unsigned long long>(args.seed + 1),
                counts_json(other).c_str());
    const bool match = first == second;
    if (!match) failures.push_back("reduced runs of one seed disagree: " + counts_json(second));
    metrics.add("determinism.counts_match", match ? 1 : 0, "count");
  }

  for (const std::string& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  const bool correct = failures.empty() && failed == 0 && attempted > 0;
  if (args.trace) {
    print_result(correct, attempted, failed, kPerLayer, std::size(kPerLayer), metrics);
  } else {
    print_result(correct, attempted, failed, kEndToEnd, std::size(kEndToEnd), metrics);
  }
  return 0;
}

}  // namespace
}  // namespace steady

int main(int argc, char** argv) {
  steady::Args args;
  if (!steady::parse(argc, argv, args) || !steady::known_workload(args.workload)) {
    std::fprintf(stderr,
                 "usage: steadybench --workload service_warm|fit_building "
                 "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n");
    return 2;
  }
  return steady::run(args);
}
