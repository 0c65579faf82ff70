// Scenario: one-stop wiring of a full EDEN deployment inside the
// discrete-event simulator — central manager, edge nodes, clients, network
// model, host liveness — with helpers for scheduling node churn and
// building the optimal-solver inputs. Every bench and integration test is
// a Scenario plus a policy choice.
//
// Scale architecture: node/client runtimes live in structure-of-arrays
// fleets (harness/fleet.h — one deque per column, stable addresses, one
// allocation per block instead of per entity), all edge clients share one
// SimManagerStub parameterised by the caller id carried in each request,
// and bulk builders (add_nodes / add_edge_clients) construct whole fleets
// without per-entity call overhead. fleet_stats() aggregates across the
// fleet without copying per-client sample vectors around.
//
// The construction API (add_node / add_edge_client, schedule_at_node /
// schedule_at_client, the owned fault windows) matches ShardedScenario's,
// so one spec recipe (check/recipe.h) builds a world on either harness.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "baselines/node_info.h"
#include "baselines/latency_model.h"
#include "baselines/static_client.h"
#include "client/edge_client.h"
#include "common/rng.h"
#include "common/types.h"
#include "geo/geohash.h"
#include "harness/fleet.h"
#include "harness/sim_stubs.h"
#include "journal/backend.h"
#include "journal/manager_journal.h"
#include "journal/standby.h"
#include "manager/central_manager.h"
#include "net/host_table.h"
#include "net/network_model.h"
#include "net/sim_network.h"
#include "node/edge_node.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/clock.h"
#include "sim/simulator.h"

namespace eden::harness {

// Durable-manager failover wiring (DESIGN.md §15). When enabled the
// scenario journals every registry mutation to an in-memory byte log,
// allocates a warm-standby manager host that tails it, and can inject a
// deterministic manager crash + takeover (schedule_manager_crash). Off by
// default: a non-standby scenario builds no journal and stays
// byte-identical to the pre-failover harness.
struct StandbyConfig {
  bool enabled{false};
  journal::JournalOptions journal{};
  // Warm-tail period: how often the standby applies new committed batches.
  SimDuration tail_period{msec(500.0)};
  journal::StandbyOptions standby_options{};
};

struct ScenarioConfig {
  std::uint64_t seed{42};
  manager::GlobalPolicy manager_policy{};
  SimDuration heartbeat_ttl{sec(3.0)};
  StubTimeouts timeouts{};
  WireSizes wire_sizes{};
  int geohash_precision{6};
  // Opt-in observability: when true the scenario owns a TraceRecorder +
  // MetricsRegistry and wires them through every component it builds.
  bool trace{false};
  // Load-feedback elasticity (phase switching): enables the manager's
  // overload policy, heartbeat feedback acks on every node, executor
  // shedding under throttle, and fast-fail dropped-frame responses. Off by
  // default — with it off, every run is byte-identical to the pre-feedback
  // harness (same RNG draws, same traces).
  bool load_feedback{false};
  manager::OverloadPolicy overload{};
  StandbyConfig standby{};
};

// NodeSpec, ClientSpot, FleetStats and NetKind moved to harness/fleet.h
// (shared with the sharded runner); they remain visible here unchanged.

class Scenario {
 public:
  explicit Scenario(ScenarioConfig config, NetKind kind = NetKind::kGeo,
                    double default_rtt_ms = 20.0, double default_bw_mbps = 100.0,
                    double jitter_sigma = 0.05);

  // Custom network model (e.g. net::TraceNetwork): the factory receives the
  // scenario's clock, since trace replay is time-dependent.
  using ModelFactory =
      std::function<std::unique_ptr<net::NetworkModel>(sim::Clock&)>;
  Scenario(ScenarioConfig config, const ModelFactory& factory);

  // ---- infrastructure access ----
  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }
  [[nodiscard]] sim::SimScheduler& scheduler() { return scheduler_; }
  [[nodiscard]] net::SimNetwork& fabric() { return *fabric_; }
  [[nodiscard]] net::HostTable& hosts() { return hosts_; }
  [[nodiscard]] manager::CentralManager& central_manager() { return *manager_; }
  // The manager currently owning the registry: the primary until a
  // takeover completes, the standby after.
  [[nodiscard]] manager::CentralManager& active_manager() {
    return takeover_done_ ? *standby_manager_ : *manager_;
  }
  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] const ScenarioConfig& config() const { return config_; }
  // Concrete network model (null if the other kind was chosen).
  [[nodiscard]] net::GeoNetwork* geo_network();
  [[nodiscard]] net::MatrixNetwork* matrix_network();
  [[nodiscard]] const net::NetworkModel& network_model() const { return *model_; }

  // ---- nodes ----
  std::size_t add_node(const NodeSpec& spec);
  // Bulk construction: `count` nodes cloned from `base`; `placement`
  // (optional) mutates the spec for each index — position, name, tier...
  // Returns the index of the first node added.
  using NodePlacementFn = std::function<void(std::size_t, NodeSpec&)>;
  std::size_t add_nodes(const NodeSpec& base, std::size_t count,
                        const NodePlacementFn& placement = {});
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] node::EdgeNode& node(std::size_t index) {
    return nodes_.nodes[index];
  }
  [[nodiscard]] const NodeSpec& node_spec(std::size_t index) const {
    return nodes_.specs[index];
  }
  [[nodiscard]] NodeId node_id(std::size_t index) const {
    return nodes_.nodes[index].id();
  }
  [[nodiscard]] net::NodeApi* node_api(NodeId id);
  // Index of the node with this id, if any.
  [[nodiscard]] std::optional<std::size_t> node_index(NodeId id) const;

  void start_node(std::size_t index);
  void stop_node(std::size_t index, bool graceful);
  void schedule_node_start(std::size_t index, SimTime at);
  void schedule_node_stop(std::size_t index, SimTime at, bool graceful);
  // Run `fn(node)` at time `at` (same surface as ShardedScenario).
  void schedule_at_node(std::size_t index, SimTime at,
                        std::function<void(node::EdgeNode&)> fn);

  // ---- clients ----
  client::EdgeClient& add_edge_client(const ClientSpot& spot,
                                      client::ClientConfig config);
  // Bulk construction: `count` clients, spot and config produced per index.
  // Returns the index of the first client added.
  using ClientSpotFn = std::function<ClientSpot(std::size_t)>;
  using ClientConfigFn = std::function<client::ClientConfig(std::size_t)>;
  std::size_t add_edge_clients(const ClientSpotFn& spot_fn,
                               const ClientConfigFn& config_fn,
                               std::size_t count);
  baselines::StaticClient& add_static_client(const ClientSpot& spot,
                                             workload::AppProfile app);
  [[nodiscard]] std::size_t edge_client_count() const {
    return edge_clients_.size();
  }
  [[nodiscard]] client::EdgeClient& edge_client(std::size_t index) {
    return edge_clients_.clients[index];
  }
  [[nodiscard]] baselines::StaticClient& static_client(std::size_t index) {
    return static_clients_.clients[index];
  }
  [[nodiscard]] std::size_t static_client_count() const {
    return static_clients_.size();
  }
  [[nodiscard]] HostId client_host(const ClientId& id) const { return id; }
  // Run `fn(client)` at time `at` (same surface as ShardedScenario).
  void schedule_at_client(std::size_t index, SimTime at,
                          std::function<void(client::EdgeClient&)> fn);

  // ---- faults (net::FaultInjector semantics) ----
  // The scenario owns the injector and attaches it to the fabric with the
  // first window, so fault-free runs pay nothing per send.
  void cut_link(HostId a, HostId b, SimTime from, SimTime until);
  void partition(HostId a, HostId b, SimTime from, SimTime until);
  void slow_link(HostId a, HostId b, double factor, SimTime from,
                 SimTime until);
  void isolate_host(HostId host, SimTime from, SimTime until);

  [[nodiscard]] client::NodeResolver resolver();

  // ---- analytics ----
  [[nodiscard]] std::vector<baselines::NodeInfo> node_infos() const;
  // Prediction input for the optimal solver over the given client hosts
  // (uses base RTTs — no jitter — like an offline profile would).
  [[nodiscard]] baselines::PredictInput predict_input(
      const std::vector<HostId>& clients, double fps,
      double frame_bytes) const;

  // Merged counters + latency distribution across every edge client.
  [[nodiscard]] FleetStats fleet_stats() const;

  // Guard against vacuous runs greenwashing a fuzz sweep: throws
  // std::runtime_error when the scenario has no edge clients at all, or
  // when frame-sending clients exist but not a single frame ever left one
  // (e.g. every node spec churned away before any client attached). Call
  // after run_until(horizon); a passing run returns silently.
  void require_nonvacuous_run() const;

  [[nodiscard]] std::string geohash_of(const geo::GeoPoint& position) const;

  void run_until(SimTime t) { simulator_.run_until(t); }

  // ---- observability ----
  // Turns on tracing + metrics after construction (idempotent; implied by
  // ScenarioConfig::trace). Wires the manager and every node/client built
  // so far and from now on.
  void enable_observability();
  // Null unless observability is enabled.
  [[nodiscard]] obs::TraceRecorder* trace_recorder() {
    return trace_recorder_.get();
  }
  [[nodiscard]] obs::MetricsRegistry* metrics_registry() {
    return metrics_registry_.get();
  }
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const {
    return metrics_registry_ ? metrics_registry_->snapshot()
                             : obs::MetricsSnapshot{};
  }
  // Simulates losing/regaining the route to a node: with the route cut,
  // node_api() (and thus every client resolver) returns nullptr for it —
  // the "deregistered node still held by a client" liveness case.
  void set_route(NodeId id, bool routed);

  // ---- durable manager + warm-standby failover (StandbyConfig) ----
  //
  // Kill the primary at `at` with one of the four deterministic crash
  // points, then hand the registry to the standby `takeover_delay` later.
  // kBeforeAck/kMidBatch/kTornTail arm the journal and fire inside the
  // next group commit (with a 1 s flush-and-die fallback when the registry
  // is idle); kAfterAppend force-flushes and kills immediately. The dead
  // primary is isolated from the crash instant on, so it emits nothing.
  // Requires StandbyConfig::enabled.
  void schedule_manager_crash(SimTime at, journal::CrashPoint point,
                              SimDuration takeover_delay);
  // Ends the warm-tail timer loop; call before draining the simulator to
  // completion (run_all) in a standby scenario that never crashes.
  void stop_standby_tail() { standby_tail_active_ = false; }

  [[nodiscard]] bool standby_enabled() const { return standby_ != nullptr; }
  [[nodiscard]] bool manager_crashed() const { return crashed_; }
  [[nodiscard]] bool takeover_done() const { return takeover_done_; }
  [[nodiscard]] HostId standby_host() const { return standby_host_; }
  [[nodiscard]] std::uint64_t recovered_lsn() const { return recovered_lsn_; }
  // Replay-determinism witness: the standby's incrementally-tailed dump vs
  // a fresh chaos-free replay of the surviving journal bytes, both taken
  // at the takeover instant. Empty until a takeover happened.
  [[nodiscard]] const std::string& standby_dump() const {
    return standby_dump_;
  }
  [[nodiscard]] const std::string& expected_dump() const {
    return expected_dump_;
  }
  [[nodiscard]] journal::ManagerJournal* manager_journal() {
    return manager_journal_.get();
  }

 private:
  void build_standby();
  void schedule_standby_tail();
  void on_crash_trigger(journal::CrashPoint point);
  void crash_primary(journal::CrashPoint point);
  void do_takeover();
  // The owned injector, attached to the fabric on first use.
  net::FaultInjector& faults();
  HostId allocate_host();
  void register_position(HostId host, const geo::GeoPoint& position,
                         net::AccessTier tier, double extra_rtt_ms = 0.0,
                         const std::string& network_tag = {});
  [[nodiscard]] node::EdgeNodeConfig make_node_config(const NodeSpec& spec,
                                                      HostId host) const;

  ScenarioConfig config_;
  sim::Simulator simulator_;
  sim::SimScheduler scheduler_;
  std::unique_ptr<net::NetworkModel> model_;
  net::HostTable hosts_;
  Rng rng_;
  // Declared before fabric_ so it outlives every fabric lookup.
  net::FaultInjector faults_;
  std::unique_ptr<net::SimNetwork> fabric_;
  HostId manager_host_;
  std::unique_ptr<manager::CentralManager> manager_;
  // One manager stub for the whole client fleet (the wire source comes
  // from each request's client id); constructed right after the manager.
  std::optional<SimManagerStub> manager_stub_;
  // Mutable manager address every stub/link resolves per send; flipped to
  // the standby at takeover. Always initialized (to the primary), so
  // non-standby runs behave identically to the fixed wiring.
  ManagerRoute route_{};
  // Standby state; all null unless StandbyConfig::enabled.
  std::unique_ptr<journal::MemoryBackend> journal_backend_;
  std::unique_ptr<journal::ManagerJournal> manager_journal_;
  std::unique_ptr<journal::ManagerJournal> standby_journal_;
  std::unique_ptr<manager::CentralManager> standby_manager_;
  std::unique_ptr<journal::StandbyManager> standby_;
  HostId standby_host_;
  SimDuration takeover_delay_{msec(500.0)};
  bool standby_tail_active_{false};
  bool crashed_{false};
  bool takeover_done_{false};
  std::uint64_t recovered_lsn_{0};
  std::string standby_dump_;
  std::string expected_dump_;
  std::uint32_t next_host_{0};
  std::unique_ptr<obs::TraceRecorder> trace_recorder_;
  std::unique_ptr<obs::MetricsRegistry> metrics_registry_;
  NodeFleet nodes_;
  std::unordered_map<NodeId, SimNodeStub*> stubs_by_id_;
  std::unordered_map<NodeId, std::size_t> node_index_by_id_;
  std::unordered_set<NodeId> unrouted_;
  ClientFleet edge_clients_;
  StaticFleet static_clients_;
};

}  // namespace eden::harness
