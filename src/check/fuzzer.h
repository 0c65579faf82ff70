// ScenarioFuzzer: seed -> random ScenarioSpec -> deterministic run ->
// oracle verdicts. generate_spec() draws topology, churn, fault windows,
// jitter regime and client workload from a single forked Rng stream, so a
// seed is a complete description of a run. run_spec() materializes the
// spec through harness::Scenario with the shared spec recipe
// (check/recipe.h), executes it to the horizon, snapshots the end state,
// and evaluates the invariant oracle catalog over the pre-teardown trace
// prefix.
//
// The generator keeps every sampled scenario inside the envelope the
// oracles are sound for: a quiet cooldown tail (no churn or fault window
// in the last `cooldown_sec`), fault windows short enough that idle
// eviction cannot fire from a cut alone, and a user idle TTL comfortably
// above the probing period. run_spec() clamps churn/fault times to that
// envelope for hand-written specs too.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "check/oracle.h"
#include "check/spec.h"

namespace eden::check {

struct FuzzLimits {
  std::size_t max_nodes{10};
  std::size_t max_clients{5};
  std::size_t max_faults{6};
  double min_horizon_sec{22.0};
  double max_horizon_sec{40.0};
  // Opt-in overload generator families (flash-crowd-into-one-cell,
  // diurnal-wave, slow-leak-degradation) layered on top of the base spec
  // with load feedback enabled. Off by default so every pre-existing seed
  // keeps producing a byte-identical spec; the family mutation draws from
  // its own Rng fork ("check-overload") and never touches the base stream.
  bool overload_families{false};
  // Opt-in manager-crash family: the spec gets a warm standby plus a
  // deterministic crash point (journal::CrashPoint) fired mid-churn, so
  // every run exercises journal replay and takeover. Draws from its own
  // fork ("check-crash"), applied after the base (and overload) streams.
  bool crash_points{false};
};

// Pure function of (seed, limits): same inputs, same spec.
[[nodiscard]] ScenarioSpec generate_spec(std::uint64_t seed,
                                         const FuzzLimits& limits = {});

struct RunOptions {
  // Oracle set to evaluate; null = default_oracles().
  const std::vector<const Oracle*>* oracles{nullptr};
};

// What a spec run reports on either harness (check/recipe.h): oracle
// verdicts, the end-of-run snapshot and the client counters summed over
// the fleet.
struct SpecOutcome {
  std::vector<Violation> violations;
  EndState end;
  std::uint64_t frames_sent{0};
  std::uint64_t frames_ok{0};
  std::uint64_t frames_failed{0};
  std::uint64_t joins{0};
  std::uint64_t switches{0};
  std::uint64_t failovers{0};
  std::uint64_t hard_failures{0};
  [[nodiscard]] bool ok() const { return violations.empty(); }
};

struct RunReport : SpecOutcome {
  // FNV-1a over the full trace JSONL (teardown included) — the bitwise
  // determinism witness: same spec => same digest, on any thread count.
  std::uint64_t trace_digest{0};
  std::size_t trace_events{0};
};

[[nodiscard]] RunReport run_spec(const ScenarioSpec& spec,
                                 const RunOptions& options = {});

[[nodiscard]] std::uint64_t fnv1a64(std::string_view data);

}  // namespace eden::check
