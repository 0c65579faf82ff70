// Scenario: the sequential configuration of the one harness
// (harness/sharded_scenario.h) — one domain, no windows, and the FIFO
// delivery path: arrivals scheduled in send order, jitter drawn from the
// fabric's own Rng stream. Every paper figure is measured in this world.
// Besides the constructors it holds only one-domain accessors; every
// builder, fault, failover, stats and observability method is the
// harness's.
//
// It alone takes a custom network model (ModelFactory) and exposes the
// MatrixNetwork for mutation: a custom or mutable model has no cross-shard
// delay floor that lookahead() could trust.
#pragma once

#include "harness/sharded_scenario.h"

namespace eden::harness {

class Scenario : public ShardedScenario {
 public:
  explicit Scenario(ScenarioConfig config, NetKind kind = NetKind::kGeo,
                    double default_rtt_ms = 20.0, double default_bw_mbps = 100.0,
                    double jitter_sigma = 0.05)
      : ShardedScenario(config, builtin_model(kind, default_rtt_ms,
                                              default_bw_mbps, jitter_sigma)) {}
  // Custom network model (e.g. net::TraceNetwork).
  Scenario(ScenarioConfig config, const ModelFactory& factory)
      : ShardedScenario(config, factory) {}

  // ---- the one domain ----
  [[nodiscard]] sim::Simulator& simulator() { return domain(0).sim; }
  [[nodiscard]] sim::SimScheduler& scheduler() { return domain(0).scheduler; }
  [[nodiscard]] net::SimNetwork& fabric() { return *domain(0).fabric; }
  [[nodiscard]] net::HostTable& hosts() { return domain(0).hosts; }
  // Null unless observability is enabled.
  [[nodiscard]] obs::TraceRecorder* trace_recorder() {
    return domain(0).trace.get();
  }
  [[nodiscard]] obs::MetricsRegistry* metrics_registry() {
    return domain(0).metrics.get();
  }
  [[nodiscard]] net::NodeApi* node_api(NodeId id) {
    return node_api_for(0, id);
  }
  // Null if the other kind (or a custom model) was chosen.
  [[nodiscard]] net::MatrixNetwork* matrix_network() {
    return dynamic_cast<net::MatrixNetwork*>(&model());
  }
};

}  // namespace eden::harness
