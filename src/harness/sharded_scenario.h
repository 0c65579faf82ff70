// ShardedScenario: the geohash-partitioned counterpart of Scenario. The
// world is split into shard domains — each with its own sim::Simulator,
// SimNetwork fabric, host table, fault injector and fleets — advanced in
// conservative-lookahead windows: every domain runs [w0, w1) (half-open)
// independently, then a single-threaded barrier injects the cross-shard
// messages buffered by the ShardRouter into their destination domains'
// delivery lanes. The window length never exceeds the minimum possible
// cross-shard one-way delay (lookahead()), so no injected message can land
// inside a window its destination already executed — the classic
// conservative parallel-DES contract.
//
// Determinism: fabrics run in deterministic-delivery mode (canonical
// delivery keys + counter-based jitter; see SimNetwork), host→shard
// placement is a pure function of position (geohash cell hash), and the
// manager is pinned to domain 0. The merged run — traces canonicalized by
// obs::merge_shard_traces, metrics merged in domain order, fleet stats
// aggregated in global client order — is bitwise identical across shard
// counts, which eden::check's shard witness pins against the one-shard
// sequential reference.
//
// Threading: domains within a window run on a persistent WindowPool;
// threads == 1 (the default) runs them inline. Everything between windows
// (barriers, build calls, fault injection, stat readers) is
// single-threaded by construction. Every domain's fabric samples the one
// network model the scenario owns; its lookups write nothing, so windows
// share it without locks.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "client/edge_client.h"
#include "common/rng.h"
#include "common/types.h"
#include "geo/geohash.h"
#include "harness/fleet.h"
#include "harness/scenario.h"
#include "harness/sim_stubs.h"
#include "harness/window_pool.h"
#include "manager/central_manager.h"
#include "net/host_table.h"
#include "net/network_model.h"
#include "net/shard_router.h"
#include "net/sim_network.h"
#include "node/edge_node.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/clock.h"
#include "sim/simulator.h"

namespace eden::harness {

struct ShardedConfig {
  ScenarioConfig base{};
  // Number of shard domains; 0 is clamped to 1. shards == 1 without
  // force_windows degenerates to a windowless sequential run (the witness
  // reference).
  unsigned shards{1};
  // WindowPool threads for the per-window domain fan-out (0 = hardware).
  unsigned threads{1};
  // Geohash prefix length hashed for host→shard placement. Coarser than
  // the protocol's discovery precision: co-located hosts MUST share a
  // shard (zero-distance pairs have no cross-shard delay floor).
  int cell_precision{4};
  // Fixed window length override; 0 derives the window from lookahead().
  // A nonzero value is still clamped to the lookahead bound.
  SimDuration window{0};
  // Exercise the window/barrier machinery even when no cross-shard pair
  // exists (shards == 1): windows shrink to the all-pairs delay floor
  // instead of one giant window per run_until() call.
  bool force_windows{false};
};

// Per-domain event-loop counters for bench reporting.
struct ShardStats {
  std::vector<std::uint64_t> events_per_domain;
  std::uint64_t windows{0};                 // barrier count
  std::uint64_t stalled_domain_windows{0};  // (domain, window) pairs idle
  std::uint64_t cross_shard_messages{0};
  SimDuration window_length{0};             // last derived window
};

class ShardedScenario {
 public:
  explicit ShardedScenario(ShardedConfig config, NetKind kind = NetKind::kGeo,
                           double default_rtt_ms = 20.0,
                           double default_bw_mbps = 100.0,
                           double jitter_sigma = 0.05);

  ShardedScenario(const ShardedScenario&) = delete;
  ShardedScenario& operator=(const ShardedScenario&) = delete;

  // ---- infrastructure ----
  [[nodiscard]] std::size_t shard_count() const { return domains_.size(); }
  [[nodiscard]] const ShardedConfig& config() const { return config_; }
  [[nodiscard]] manager::CentralManager& central_manager() { return *manager_; }
  [[nodiscard]] HostId manager_host() const { return manager_host_; }
  [[nodiscard]] SimTime now() const { return cursor_; }
  [[nodiscard]] sim::Simulator& simulator_of(std::size_t domain) {
    return domains_[domain].sim;
  }
  // The GeoNetwork every domain samples from, null for kMatrix.
  [[nodiscard]] net::GeoNetwork* geo_network();
  // The one network model shared by every domain's fabric.
  [[nodiscard]] const net::NetworkModel& network_model() const {
    return *model_;
  }

  // ---- nodes (global indices, in add order across all domains) ----
  std::size_t add_node(const NodeSpec& spec);
  using NodePlacementFn = std::function<void(std::size_t, NodeSpec&)>;
  std::size_t add_nodes(const NodeSpec& base, std::size_t count,
                        const NodePlacementFn& placement = {});
  [[nodiscard]] std::size_t node_count() const { return node_refs_.size(); }
  [[nodiscard]] node::EdgeNode& node(std::size_t index);
  [[nodiscard]] const NodeSpec& node_spec(std::size_t index) const;
  [[nodiscard]] NodeId node_id(std::size_t index) const;
  [[nodiscard]] std::uint32_t node_domain(std::size_t index) const {
    return node_refs_[index].domain;
  }

  void start_node(std::size_t index);
  void stop_node(std::size_t index, bool graceful);
  void schedule_node_start(std::size_t index, SimTime at);
  void schedule_node_stop(std::size_t index, SimTime at, bool graceful);
  // Run `fn(node)` on the node's own domain at time `at`.
  void schedule_at_node(std::size_t index, SimTime at,
                        std::function<void(node::EdgeNode&)> fn);

  // Route-loss simulation (see Scenario::set_route). Build-time /
  // between-windows only: resolvers on every domain read this set.
  void set_route(NodeId id, bool routed);

  // ---- clients (global indices) ----
  std::size_t add_edge_client(const ClientSpot& spot,
                              client::ClientConfig config);
  using ClientSpotFn = std::function<ClientSpot(std::size_t)>;
  using ClientConfigFn = std::function<client::ClientConfig(std::size_t)>;
  std::size_t add_edge_clients(const ClientSpotFn& spot_fn,
                               const ClientConfigFn& config_fn,
                               std::size_t count);
  [[nodiscard]] std::size_t edge_client_count() const {
    return client_refs_.size();
  }
  [[nodiscard]] client::EdgeClient& edge_client(std::size_t index);
  [[nodiscard]] std::uint32_t client_domain(std::size_t index) const {
    return client_refs_[index].domain;
  }
  // Run `fn(client)` on the client's own domain at time `at`.
  void schedule_at_client(std::size_t index, SimTime at,
                          std::function<void(client::EdgeClient&)> fn);

  // ---- faults (fan out to every domain's injector) ----
  void cut_link(HostId a, HostId b, SimTime from, SimTime until);
  void partition(HostId a, HostId b, SimTime from, SimTime until);
  void slow_link(HostId a, HostId b, double factor, SimTime from,
                 SimTime until);
  void isolate_host(HostId host, SimTime from, SimTime until);

  // ---- execution ----
  // Advance every domain to `horizon` in conservative windows. Equivalent
  // to the sequential run_until(horizon): every message arriving at or
  // before the horizon has been delivered when this returns.
  void run_until(SimTime horizon);

  // The conservative window bound: the largest window length guaranteed
  // not to miss a cross-shard arrival, derived from the minimum possible
  // cross-shard one-way delay (exact over pairs for small worlds, a
  // last-mile tier bound for large ones; times the deterministic-jitter
  // floor exp(-kDetJitterZClamp * sigma) and the smallest injected
  // slow-link factor). Throws std::runtime_error if the floor collapses
  // to zero ticks.
  [[nodiscard]] SimDuration lookahead() const;

  // ---- merged results (identical across shard counts) ----
  [[nodiscard]] FleetStats fleet_stats() const;
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const;
  // Per-shard traces merged into canonical (time, site) order; empty when
  // tracing is off.
  [[nodiscard]] std::vector<obs::TraceEvent> canonical_trace() const;
  void require_nonvacuous_run() const;

  [[nodiscard]] ShardStats shard_stats() const;
  [[nodiscard]] std::string geohash_of(const geo::GeoPoint& position) const;

 private:
  struct Domain {
    sim::Simulator sim;
    sim::SimScheduler scheduler{sim};
    net::HostTable hosts;
    net::FaultInjector faults;
    std::unique_ptr<net::SimNetwork> fabric;
    std::unique_ptr<obs::TraceRecorder> trace;
    std::unique_ptr<obs::MetricsRegistry> metrics;
    std::optional<SimManagerStub> manager_stub;
    NodeFleet nodes;
    ClientFleet clients;
    // Per-domain stubs for nodes owned elsewhere (lazy; the rpc rides this
    // domain's fabric, the server closure ships to the owner's domain).
    std::deque<SimNodeStub> remote_stubs;
    std::unordered_map<NodeId, net::NodeApi*> stub_cache;
    std::uint64_t stalled_windows{0};
  };
  struct EntityRef {
    std::uint32_t domain;
    std::uint32_t index;
  };

  [[nodiscard]] std::uint32_t domain_of_position(
      const geo::GeoPoint& position) const;
  void register_position(HostId host, const geo::GeoPoint& position,
                         net::AccessTier tier, double extra_rtt_ms,
                         const std::string& network_tag);
  [[nodiscard]] node::EdgeNodeConfig make_node_config(const NodeSpec& spec,
                                                      HostId host) const;
  [[nodiscard]] net::NodeApi* node_api_for(std::uint32_t domain, NodeId id);
  [[nodiscard]] client::NodeResolver resolver(std::uint32_t domain);
  [[nodiscard]] bool cross_domain_pairs_exist() const;

  ShardedConfig config_;
  NetKind kind_;
  double default_rtt_ms_;
  Rng rng_;
  net::ShardRouter router_;
  // Declared before domains_ so it outlives every fabric sampling from it.
  std::unique_ptr<net::NetworkModel> model_;
  std::deque<Domain> domains_;
  std::unique_ptr<manager::CentralManager> manager_;
  HostId manager_host_;
  std::uint32_t next_host_{0};
  std::vector<std::uint32_t> host_domain_;  // indexed by host id
  std::vector<EntityRef> node_refs_;        // global node index → (domain, i)
  std::vector<EntityRef> client_refs_;
  std::unordered_map<NodeId, std::size_t> node_index_by_id_;
  std::unordered_set<NodeId> unrouted_;
  std::unique_ptr<WindowPool> pool_;
  SimTime cursor_{0};
  std::uint64_t windows_{0};
  SimDuration last_window_{0};
  double min_last_mile_ms_{1e30};  // over registered hosts (tier bound)
  double min_slow_factor_{1.0};    // over injected slow_link windows
};

}  // namespace eden::harness
