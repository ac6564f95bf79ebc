// Fault-injection harness for chaos testing the serving core.
//
// The service's fault-tolerance claims (one terminal status per job, no
// deadlock, no poisoned runners) are only worth what the tests can throw
// at them. This harness plants named failure points inside the serving
// path — deferred build(), the mapper body, the topology-cache fill, a
// slow-runner stall — and arms them either programmatically
// (set_fault_config, used by tests/chaos_test.cpp) or from the
// MIMDMAP_FAULT environment variable, e.g.
//
//   MIMDMAP_FAULT="build=0.1,mapper=0.05,topo-alloc=0.02,slow-ms=3,seed=7"
//
// Each probability is per-opportunity in [0, 1]. Draws come from one
// process-wide counter-based stream (seeded, lock-free), so a given seed
// yields a reproducible fault schedule for a fixed interleaving of
// opportunities. When no fault is armed — the production configuration —
// every hook is a single relaxed atomic load.
#pragma once

#include <cstdint>
#include <string>

#include "core/cancellation.hpp"

namespace mimdmap {

struct FaultConfig {
  /// P(throw std::runtime_error) at the deferred-build site in run_map_job.
  double build_throw = 0.0;
  /// P(throw std::runtime_error) in the mapper body, after the engine is up.
  double mapper_throw = 0.0;
  /// P(throw std::bad_alloc) in the TopologyCache fill path.
  double topo_alloc_fail = 0.0;
  /// Stall each runner this long at job start (widens cancellation races).
  /// A stall ends early when the job's token signals or when
  /// set_fault_config installs a new config — tests hold jobs "running"
  /// with a long stall and release them by restoring the previous config.
  int slow_runner_ms = 0;
  /// Seed of the process-wide draw stream.
  std::uint64_t seed = 0x5eed;

  [[nodiscard]] bool any() const noexcept {
    return build_throw > 0.0 || mapper_throw > 0.0 || topo_alloc_fail > 0.0 ||
           slow_runner_ms > 0;
  }
};

/// Installs `config` process-wide and returns the previous one. Resets the
/// draw stream to config.seed. Tests install, run, then restore {}.
FaultConfig set_fault_config(const FaultConfig& config);

/// The active configuration (after env overlay, if any).
[[nodiscard]] FaultConfig fault_config();

/// True iff any fault is armed — the one-load fast path every hook checks
/// first. The first call parses MIMDMAP_FAULT (once per process).
[[nodiscard]] bool fault_injection_enabled() noexcept;

/// Parses a MIMDMAP_FAULT-style spec ("key=value,key=value"). Throws
/// std::invalid_argument on malformed specs. Exposed for tests.
[[nodiscard]] FaultConfig parse_fault_spec(const std::string& spec);

// -- Hook sites (no-ops unless armed) ------------------------------------

/// Deferred-build site: may throw std::runtime_error("fault: build").
void fault_point_build();
/// Mapper body: may throw std::runtime_error("fault: mapper").
void fault_point_mapper();
/// Topology-cache fill: may throw std::bad_alloc.
void fault_point_topo_alloc();
/// Runner stall at job start; returns early once `cancel` signals or the
/// config is replaced.
void fault_sleep_runner(const CancelToken& cancel);

}  // namespace mimdmap
