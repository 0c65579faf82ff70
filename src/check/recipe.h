// The one spec recipe: how a ScenarioSpec becomes a world and how the
// world's end state is read back, shared by check::run_spec (on
// harness::Scenario, the one-domain windowless configuration) and
// check::run_spec_sharded (on a domain-partitioned harness::ShardedScenario):
// node clamps and background ramps, client starts and stops, fault windows
// clamped to the quiet tail and the crash instant, the EndState snapshot,
// the vacuity gate, the counter tally and the oracle loop. Each runner
// keeps only what really differs — its config, crash scheduling, teardown
// and which trace it digests.
#pragma once

#include <vector>

#include "check/fuzzer.h"
#include "check/oracle.h"
#include "check/spec.h"
#include "harness/sharded_scenario.h"
#include "obs/trace.h"

namespace eden::check {

// The harness config every spec run shares (seed, TTL, tracing, load
// feedback); runners add their own fields on top.
[[nodiscard]] harness::ScenarioConfig spec_config(const ScenarioSpec& spec);
[[nodiscard]] harness::NetKind spec_net_kind(const ScenarioSpec& spec);

// Nodes and their ramps, clients and their stops, and the fault windows,
// in that order, scheduled on a freshly constructed world.
void build_spec_world(const ScenarioSpec& spec,
                      harness::ShardedScenario& world);

// After run_until(horizon): snapshot the end state (the registry of the
// manager active at the horizon), apply the vacuity gate and sum the
// client counters into `out`.
void observe_spec_world(const ScenarioSpec& spec,
                        harness::ShardedScenario& world, SpecOutcome& out);

// Evaluate `oracles` (null = default_oracles()) over `events` and the
// snapshot in `out`.
void check_oracles(const ScenarioSpec& spec,
                   const std::vector<obs::TraceEvent>& events,
                   const harness::StubTimeouts& timeouts,
                   const std::vector<const Oracle*>* oracles,
                   SpecOutcome& out);

}  // namespace eden::check
