// The benchmark's workloads. Each constructor is the workload's
// set-up; README.md records why each exists and what it exercises.
#pragma once

#include <cstdint>
#include <memory>

#include "harness.h"

namespace steady {

/// Event-database row bound of the controller workload (the way
/// bench_scale bounds it), and the live-row ceiling the stationarity check
/// allows for it: sealed segments plus one open segment and staging.
inline constexpr std::size_t kEventStoreRows = 8192;
inline constexpr std::size_t kEventStoreRowBound = 2 * kEventStoreRows;

struct ServiceParams {
  int clients = 32;
  int services = 8;
  int redirected_services = 3;  ///< services behind the IDS redirect
  int policies = 1000;
  std::uint32_t live_flows = 32768;
  std::uint32_t batch = 256;
  std::uint64_t seed = 1;
};

struct FitParams {
  int clients = 4;
  int flows_per_client = 4;  ///< half 1400 B payloads, half 64 B
  /// Untimed episodes before timing starts: the first sets the flows up;
  /// by the fourth the process stops growing.
  int warmup_episodes = 4;
  std::uint64_t seed = 1;
};

std::unique_ptr<Workload> make_service_warm(const ServiceParams& params);
std::unique_ptr<Workload> make_fit_building(const FitParams& params);

}  // namespace steady
