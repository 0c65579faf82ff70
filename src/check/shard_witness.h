// Shard witness: run a ScenarioSpec through harness::ShardedScenario and
// pin the result against the one-shard sequential reference. Both sides
// report the SAME canonical artifacts — the pre-teardown trace merged into
// (time, site) order, the merged metrics, and the global-order fleet stats
// — so `digest(shards = N) == digest(shards = 0)` is a bitwise proof that
// geohash partitioning, conservative windows and cross-shard routing did
// not change a single observable event of the run.
//
// Shard-count convention for run_spec_sharded():
//   shards == 0  → one domain, windowless (the sequential reference;
//                  run_until degenerates to a single Simulator drain)
//   shards == 1  → one domain, windows forced to the all-pairs delay
//                  floor (exercises the window machinery without
//                  any cross-shard traffic)
//   shards >= 2  → geohash-partitioned domains, conservative lookahead
//
// The world is built by the same spec recipe as check::run_spec()
// (check/recipe.h); standby/crash specs are rejected, since the harness
// allows a standby at one domain only. The witness digest deliberately
// differs from check::run_spec()'s: run_spec digests the raw recording
// order of a single simulator (teardown included), which is well-defined
// only for the sequential configuration (harness::Scenario). The witness
// digests the canonical merge of the pre-teardown prefix, the strongest
// artifact that is meaningful at EVERY shard count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/fuzzer.h"
#include "check/spec.h"
#include "common/types.h"
#include "harness/sharded_scenario.h"

namespace eden::check {

struct ShardRunOptions : RunOptions {
  // Fixed window override; 0 derives windows from the lookahead bound.
  SimDuration window{0};
  // Keep the canonical JSONL text in the report (divergence diffing).
  bool keep_trace{false};
};

struct ShardRunReport : SpecOutcome {
  // FNV-1a over the canonical (time, site)-merged pre-teardown trace
  // JSONL. Identical for every shard count and every window length — the
  // sharded == sequential determinism witness.
  std::uint64_t trace_digest{0};
  std::size_t trace_events{0};
  std::string trace_jsonl;  // only when ShardRunOptions::keep_trace
  harness::ShardStats shards;
};

[[nodiscard]] ShardRunReport run_spec_sharded(
    const ScenarioSpec& spec, unsigned shards,
    const ShardRunOptions& options = {});

}  // namespace eden::check
