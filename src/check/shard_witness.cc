#include "check/shard_witness.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "check/recipe.h"
#include "obs/trace_merge.h"

namespace eden::check {

ShardRunReport run_spec_sharded(const ScenarioSpec& spec, unsigned shards,
                                const ShardRunOptions& options) {
  if (spec.standby) {
    // Failover specs re-route the fleet to the standby mid-run, which the
    // harness allows at one domain only; the witness compares several.
    throw std::invalid_argument(
        "run_spec_sharded does not support standby/failover specs");
  }
  harness::ShardedConfig config;
  config.base = spec_config(spec);
  config.shards = std::max(1u, shards);
  // shards == 0 is the windowless sequential reference; any explicit shard
  // count exercises the window machinery even when the partition
  // happens to keep every host in one domain.
  config.force_windows = shards != 0;
  config.window = options.window;
  harness::ShardedScenario scenario(config, spec_net_kind(spec),
                                    spec.default_rtt_ms, spec.default_bw_mbps,
                                    spec.jitter_sigma);
  build_spec_world(spec, scenario);
  scenario.run_until(sec(spec.horizon_sec));

  ShardRunReport report;
  observe_spec_world(spec, scenario, report);

  // The witness artifact: the pre-teardown trace, canonicalized. Causally
  // related events are always >= 1 tick apart (every message has a positive
  // delay floor), so (time, site) order preserves causality and the oracle
  // catalog stays sound over the merged stream; same-tick events on
  // different sites are concurrent and land in a fixed canonical order
  // regardless of which domain recorded them.
  const std::vector<obs::TraceEvent> canonical = scenario.canonical_trace();
  report.trace_events = canonical.size();
  std::string jsonl = obs::events_to_jsonl(canonical);
  report.trace_digest = fnv1a64(jsonl);
  if (options.keep_trace) report.trace_jsonl = std::move(jsonl);
  report.shards = scenario.shard_stats();
  check_oracles(spec, canonical, config.base.timeouts, options.oracles,
                report);
  return report;
}

}  // namespace eden::check
