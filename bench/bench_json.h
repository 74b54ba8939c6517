// Shared --json support for the system benches (the printf-style binaries;
// the google-benchmark ones translate --json to --benchmark_format=json).
//
// Output shape, one object per binary:
//   {"bench": "<name>", "results": [{"name": ..., "value": ..., "unit": ...}]}
// Values are finite doubles; names are stable identifiers so downstream
// tooling can track the perf trajectory across commits.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace livesec::benchjson {

/// True when the binary was invoked with --json anywhere on the command line.
inline bool wants_json(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") return true;
  }
  return false;
}

/// A memory figure of this process from /proc/self/status, e.g. "VmRSS:"
/// (resident now) or "VmHWM:" (peak resident), in MB; 0 where unavailable.
inline double proc_status_mb(std::string_view field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double mb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (!std::string_view(line).starts_with(field)) continue;
    long kb = 0;
    if (std::sscanf(line + field.size(), "%ld", &kb) == 1) mb = static_cast<double>(kb) / 1024.0;
    break;
  }
  std::fclose(f);
  return mb;
}

/// Collects named metrics and prints them as one JSON object. In text mode
/// callers keep their existing printf reporting and simply skip print().
class Emitter {
 public:
  explicit Emitter(std::string bench_name) : bench_(std::move(bench_name)) {}

  void metric(std::string name, double value, std::string unit) {
    results_.push_back(Row{std::move(name), value, std::move(unit)});
  }
  void flag(std::string name, bool value) {
    results_.push_back(Row{std::move(name), value ? 1.0 : 0.0, "bool"});
  }

  void print() const {
    std::printf("{\"bench\": \"%s\", \"results\": [", bench_.c_str());
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const Row& r = results_[i];
      const double v = std::isfinite(r.value) ? r.value : 0.0;
      std::printf("%s{\"name\": \"%s\", \"value\": %.6g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", r.name.c_str(), v, r.unit.c_str());
    }
    std::printf("]}\n");
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };

  std::string bench_;
  std::vector<Row> results_;
};

}  // namespace livesec::benchjson
