// Named fleet scenarios: the workload catalogue for the simulator.
//
// A scenario is a parameterisation of the whole fleet -- load curve, link
// quality, clock behaviour, lifecycle churn, serving drills -- looked up
// by name from the fleet_simulator tool, bench_fleet, and the tests.
// Every scenario registered here MUST have a row in docs/SIMULATION.md's
// catalogue table; darnet_analyze enforces the two-way contract
// (sim-doc-missing / sim-doc-stale), exactly like the obs metric rules.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/link.hpp"
#include "sim/vehicle.hpp"

namespace darnet::sim {

/// Everything a FleetSimulator run needs. make() on a Scenario fills one
/// in from (sessions, seed); knobs are per-vehicle templates -- vehicle
/// seeds, drifts, and offsets are derived per vehicle from `seed`.
struct ScenarioConfig {
  std::string name = "steady";
  int sessions = 100;
  std::uint64_t seed = 42;
  double duration_s = 10.0;

  // Vehicle template.
  double frame_period_s = 0.25;
  double imu_period_s = 0.05;
  double transmit_period_s = 0.25;
  int frame_payload_floats = 64;
  /// Per-vehicle drift drawn uniform from [-drift_ppm_max, drift_ppm_max].
  double drift_ppm_max = 100.0;
  /// Per-vehicle initial clock offset drawn uniform from [-max, max].
  double initial_offset_max_s = 0.005;
  double latency_compensation_s = 0.015;
  LinkConfig link;  // uplink and downlink template

  // Fleet-level behaviour.
  LoadCurve load;
  double infer_period_s = 0.25;
  /// Per-request deadline: frame capture (device) time + this budget.
  double deadline_budget_s = 0.75;
  double clock_sync_period_s = 5.0;
  double clock_probe_period_s = 1.0;

  // Churn: vehicles join staggered over [0, join_spread_s] and a
  // leave_fraction of them stop partway through the run.
  double join_spread_s = 0.0;
  double leave_fraction = 0.0;

  // Degraded-mode drill: toggle serve::Server::force_degraded every half
  // period (0 disables). Implies the two-modality ensemble.
  double degraded_flap_period_s = 0.0;
  /// Build (and fit) the IMU side of the ensemble.
  bool imu_ensemble = false;

  // Sharded serving tier (serve::Router). The bridge always routes
  // through a Router; 1 shard routes every session to shard 0, which
  // preserves the historical single-Server request sequence bit-for-bit.
  int shards = 1;
  /// Tenants cycle over vehicles: tenant id = vehicle id % tenants.
  int tenants = 1;
  /// Per-tenant admission quota: continuous token refill in requests/s
  /// (0 leaves every tenant unmetered) and the bucket capacity in
  /// requests (clamped to >= 1 when quotas are on).
  double tenant_refill_per_s = 0.0;
  double tenant_burst = 0.0;
};

/// A catalogue entry: the name is the CLI handle and the documentation
/// key; `stresses` is the one-line purpose shown by --list.
struct Scenario {
  std::string name;
  std::string stresses;
  std::function<ScenarioConfig(int sessions, std::uint64_t seed)> make;
};

/// All registered scenarios, in registration (documentation) order.
[[nodiscard]] const std::vector<Scenario>& scenarios();

/// Lookup by name; nullptr when unknown.
[[nodiscard]] const Scenario* find_scenario(std::string_view name);

/// Re-time a scenario to a different run length: duration-relative knobs
/// (burst window, diurnal period, join spread) scale proportionally so a
/// 2-second smoke run exercises the same phases as the 10-second default.
void set_duration(ScenarioConfig& config, double duration_s);

}  // namespace darnet::sim
