// Shared measurement machinery of the steady-state benchmark: wall clock,
// in-memory span tracer, windowed closed-loop runner, metric output.
//
// The benchmark times calls into the program's public functions from its
// own files; nothing inside the library is instrumented.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace steady {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Where the traced run attributes wall time. Each span wraps one call the
/// benchmark makes into a layer's public API (or the benchmark's own input
/// generation, `kHarness`).
enum Layer : std::uint8_t {
  kRegion,                 ///< one measured window (the root span)
  kHarness,                ///< building inputs, picking flows to expire
  kControllerSetup,        ///< Controller::handle_switch_message, flow packet-in
  kControllerFlowRemoved,  ///< Controller::handle_switch_message, FlowRemoved
  kControllerArp,          ///< Controller::handle_switch_message, ARP packet-in
  kOpenflowDrain,          ///< Simulator::run_until(now): channel deliveries
  kHaFlush,                ///< HaCluster::flush_replication
  kHaDeliver,              ///< Simulator::run_until(later): frames to the standby
  kSimSlice,               ///< Simulator::run_until over one data-plane slice
  kLayerCount
};
const char* layer_name(Layer layer);

/// Spans kept in memory and written out after the run. A span records its
/// layer, start, end and parent; a layer's self time is its spans' time
/// minus the time of their children.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;
  struct Span {
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::uint32_t parent = kNoParent;
    Layer layer = kRegion;
  };
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span that later spans nest under; returns its id for close().
  std::uint32_t open(Layer layer);
  void close(std::uint32_t id);
  /// Records a finished span under the innermost open one.
  void record(Layer layer, std::int64_t start, std::int64_t end) {
    if (enabled_) spans_.push_back(Span{start, end, parent(), layer});
  }

  std::array<Totals, kLayerCount> totals() const;
  /// One line per span: layer,start_ns,end_ns,parent_index.
  bool write_csv(const std::string& path) const;

 private:
  std::uint32_t parent() const { return stack_.empty() ? kNoParent : stack_.back(); }

  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// Times a scope as one span of `layer` (no clock reads when tracing is off).
class Scope {
 public:
  Scope(Tracer& tracer, Layer layer)
      : tracer_(tracer), layer_(layer), start_(tracer.enabled() ? now_ns() : 0) {}
  ~Scope() {
    if (tracer_.enabled()) tracer_.record(layer_, start_, now_ns());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  Layer layer_;
  std::int64_t start_;
};

/// Deterministic counters of a workload, by name (a snapshot).
using Counts = std::vector<std::pair<std::string, std::uint64_t>>;
/// after - before, per name (both snapshots of one workload).
std::uint64_t delta(const Counts& before, const Counts& after, const std::string& name);

/// Named metric values, in output order.
struct Metrics {
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows;
  void add(std::string name, double value, std::string unit) {
    rows.push_back(Row{std::move(name), value, std::move(unit)});
  }
};

/// A live-state size the stationarity check bounds.
struct StateSize {
  std::string name;
  std::size_t value = 0;
  std::size_t bound = 0;
};

/// One closed-loop workload: set up by its constructor, then driven in
/// batches until the timed region ends.
class Workload {
 public:
  virtual ~Workload() = default;

  /// One batch of closed-loop work. Returns operations completed (flow
  /// setups installed, or packets delivered) and appends the wall time of
  /// each latency-timed call to `calls`.
  virtual std::uint64_t step(Tracer& tracer, std::vector<std::int64_t>& calls) = 0;

  /// Operations issued so far (setups sent, packets sent).
  virtual std::uint64_t attempted() const = 0;
  /// Operations that completed so far (installs, deliveries).
  virtual std::uint64_t completed() const = 0;
  /// Deterministic counters, for per-layer deltas and the determinism check.
  virtual Counts counts() const = 0;
  /// Live state that must stay bounded while the loop runs.
  virtual std::vector<StateSize> live_state() const = 0;
  /// Completes outstanding work after the timed region, then checks the
  /// outputs. Returns one message per failed check.
  virtual std::vector<std::string> finish_and_check() = 0;
  /// Per-layer metrics from counters and replays of recorded inputs.
  virtual void layer_metrics(const Counts& before, const Counts& after, double wall_s,
                             Metrics& out) = 0;
};

/// What one timed region measured.
struct Measurement {
  double wall_s = 0;
  std::uint64_t ops = 0;
  std::vector<double> window_rate;    // ops per wall second, per window
  std::vector<double> window_p50_us;  // timed-call percentiles, per window
  std::vector<double> window_p99_us;
  std::uint64_t calls = 0;            // latency samples taken
  double first_half_rate = 0;
  double second_half_rate = 0;
  std::vector<StateSize> state_max;   // largest value seen per live-state entry
};

/// Drives `workload` for `seconds` of wall time in `windows` equal windows,
/// sampling its live state after every window.
Measurement measure(Workload& workload, Tracer& tracer, double seconds, int windows);

double median(std::vector<double> values);
/// q-quantile (0..1) of `values` (reorders it).
double quantile(std::vector<std::int64_t>& values, double q);

/// Peak resident set (VmHWM) in MB; 0 where /proc is unavailable.
double peak_rss_mb();

/// One-line JSON description of the machine the run measured on.
std::string machine_fingerprint();

/// SplitMix64 step: the benchmark's only source of input randomness.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace steady
