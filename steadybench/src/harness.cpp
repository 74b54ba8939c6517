#include "harness.h"

#include <linux/perf_event.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace steady {

const char* layer_name(Layer layer) {
  switch (layer) {
    case kRegion: return "region";
    case kHarness: return "harness";
    case kControllerSetup: return "controller.setup";
    case kControllerFlowRemoved: return "controller.flow_removed";
    case kControllerArp: return "controller.arp";
    case kOpenflowDrain: return "openflow.drain";
    case kHaFlush: return "ha.flush";
    case kHaDeliver: return "ha.deliver";
    case kSimSlice: return "sim.slice";
    case kLayerCount: break;
  }
  return "?";
}

std::uint32_t Tracer::open(Layer layer) {
  if (!enabled_) return kNoParent;
  const auto id = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(Span{now_ns(), 0, parent(), layer});
  stack_.push_back(id);
  return id;
}

void Tracer::close(std::uint32_t id) {
  if (!enabled_ || id == kNoParent) return;
  spans_[id].end = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::array<Tracer::Totals, kLayerCount> Tracer::totals() const {
  std::array<Totals, kLayerCount> out{};
  for (const Span& s : spans_) {
    const std::int64_t dur = s.end - s.start;
    Totals& t = out[s.layer];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur;
    if (s.parent != kNoParent) out[spans_[s.parent].layer].self_ns -= dur;
  }
  return out;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "layer,start_ns,end_ns,parent\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%lld,%lld,%lld\n", layer_name(s.layer), static_cast<long long>(s.start),
                 static_cast<long long>(s.end),
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent));
  }
  return std::fclose(f) == 0;
}

std::uint64_t delta(const Counts& before, const Counts& after, const std::string& name) {
  const auto count_of = [&](const Counts& counts) -> std::uint64_t {
    for (const auto& [key, value] : counts) {
      if (key == name) return value;
    }
    return 0;
  };
  return count_of(after) - count_of(before);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<std::int64_t>& values, double q) {
  if (values.empty()) return 0;
  const auto at = static_cast<std::size_t>(q * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(at), values.end());
  return static_cast<double>(values[at]);
}

Measurement measure(Workload& workload, Tracer& tracer, double seconds, int windows) {
  Measurement m;
  m.state_max = workload.live_state();
  std::vector<std::int64_t> calls;
  calls.reserve(1u << 20);
  std::vector<double> window_s;
  const std::int64_t start = now_ns();
  const auto window_ns = static_cast<std::int64_t>(seconds * 1e9 / windows);
  for (int k = 0; k < windows; ++k) {
    calls.clear();
    const std::int64_t deadline = start + (k + 1) * window_ns;
    const std::uint32_t region = tracer.open(kRegion);
    const std::int64_t w_start = now_ns();
    std::int64_t t = w_start;
    std::uint64_t ops = 0;
    while (t < deadline) {
      ops += workload.step(tracer, calls);
      t = now_ns();
    }
    tracer.close(region);
    const double dt = static_cast<double>(t - w_start) / 1e9;
    window_s.push_back(dt);
    m.window_rate.push_back(static_cast<double>(ops) / dt);
    m.ops += ops;
    m.calls += calls.size();
    if (!calls.empty()) {
      m.window_p50_us.push_back(quantile(calls, 0.50) / 1e3);
      m.window_p99_us.push_back(quantile(calls, 0.99) / 1e3);
    }
    const std::vector<StateSize> state = workload.live_state();
    for (std::size_t i = 0; i < state.size() && i < m.state_max.size(); ++i) {
      m.state_max[i].value = std::max(m.state_max[i].value, state[i].value);
    }
  }
  m.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  double ops_half[2] = {0, 0};
  double secs_half[2] = {0, 0};
  for (int k = 0; k < windows; ++k) {
    const int half = 2 * k < windows ? 0 : 1;
    ops_half[half] += m.window_rate[static_cast<std::size_t>(k)] * window_s[static_cast<std::size_t>(k)];
    secs_half[half] += window_s[static_cast<std::size_t>(k)];
  }
  m.first_half_rate = secs_half[0] > 0 ? ops_half[0] / secs_half[0] : 0;
  m.second_half_rate = secs_half[1] > 0 ? ops_half[1] / secs_half[1] : 0;
  return m;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

namespace {

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// "ok", or why a hardware instruction counter cannot be opened.
std::string perf_event_status() {
  perf_event_attr attr{};
  attr.size = sizeof attr;
  attr.type = PERF_TYPE_HARDWARE;
  attr.config = PERF_COUNT_HW_INSTRUCTIONS;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  const long fd = syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
  if (fd < 0) return std::strerror(errno);
  close(static_cast<int>(fd));
  return "ok";
}

}  // namespace

std::string machine_fingerprint() {
  std::string cpu;
  {
    std::ifstream info("/proc/cpuinfo");
    std::string line;
    while (std::getline(info, line)) {
      if (line.rfind("model name", 0) == 0) {
        cpu = line.substr(line.find(':') + 2);
        break;
      }
    }
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  std::string l2;
  std::string l3;
  for (int i = 0; i < 8; ++i) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string level = read_line(dir + "level");
    if (level == "2") l2 = read_line(dir + "size");
    if (level == "3") l3 = read_line(dir + "size");
  }
  std::ostringstream out;
  out << "{\"cpu\": \"" << json_escape(cpu) << "\", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"affinity_cpus\": " << affinity << ", \"l2\": \"" << l2 << "\", \"l3\": \"" << l3
      << "\", \"perf_event_open\": \"" << json_escape(perf_event_status())
      << "\", \"compiler\": \"" << json_escape(__VERSION__) << "\"}";
  return out.str();
}

}  // namespace steady
