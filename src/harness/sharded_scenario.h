// ShardedScenario: the one simulation harness. It wires a full EDEN
// deployment inside the discrete-event simulator — central manager and
// optional warm standby, edge nodes, edge and static clients, network
// model, host liveness and fault windows — with helpers for scheduling
// node churn and building the optimal-solver inputs. harness::Scenario
// (scenario.h) is its sequential configuration; every bench, test, repro
// and fuzz family runs on this class.
//
// Domains: the world is split into shard domains — each with its own
// sim::Simulator, SimNetwork fabric, host table, fault injector and fleets
// — advanced in conservative-lookahead windows: every domain runs [w0, w1)
// (half-open) independently, then a single-threaded barrier injects the
// cross-shard messages buffered by the ShardRouter into their destination
// domains' simulators. The window length never exceeds the minimum
// possible cross-shard one-way delay (lookahead()), so no injected message
// can land inside a window its destination already executed — the classic
// conservative parallel-DES contract. One domain without force_windows
// runs one window per run_until() call.
//
// Delivery: the public constructor runs every fabric in deterministic-
// delivery mode (canonical delivery keys + counter-based jitter; see
// SimNetwork), host→shard placement is a pure function of position
// (geohash cell hash), and the manager is pinned to domain 0. The merged
// run — traces canonicalized by obs::merge_shard_traces, metrics merged in
// domain order, fleet stats aggregated in global client order — is
// bitwise identical across shard counts, which eden::check's shard witness
// pins against the one-shard windowless reference. Scenario's protected
// constructor keeps one domain and the FIFO delivery path instead
// (arrivals scheduled in send order, jitter from the fabric's Rng stream),
// the world every paper figure was measured in.
//
// Scale: node/client runtimes live in structure-of-arrays fleets
// (harness/fleet.h), the edge clients of a domain share one
// SimManagerStub parameterised by the caller id carried in each request,
// and every stub and link resolves the manager through one ManagerRoute.
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
#include <vector>

#include "baselines/latency_model.h"
#include "baselines/node_info.h"
#include "baselines/static_client.h"
#include "client/edge_client.h"
#include "common/types.h"
#include "geo/geohash.h"
#include "harness/fleet.h"
#include "harness/sim_stubs.h"
#include "harness/window_pool.h"
#include "journal/backend.h"
#include "journal/manager_journal.h"
#include "journal/standby.h"
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

// Durable-manager failover wiring (DESIGN.md §15). When enabled the
// harness journals every registry mutation to an in-memory byte log,
// allocates a warm-standby manager host that tails it, and can inject a
// deterministic manager crash + takeover (schedule_manager_crash). Off by
// default: a run without a standby builds no journal. One domain only.
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
  // Opt-in observability: when true the harness owns a TraceRecorder +
  // MetricsRegistry per domain and wires them through every component it
  // builds.
  bool trace{false};
  // Load-feedback elasticity (phase switching): enables the manager's
  // overload policy, heartbeat feedback acks on every node, executor
  // shedding under throttle, and fast-fail dropped-frame responses. Off by
  // default: the paper's protocol has no feedback path, so the figures run
  // without it.
  bool load_feedback{false};
  manager::OverloadPolicy overload{};
  StandbyConfig standby{};
};

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
  // Throws std::invalid_argument for a standby with more than one domain:
  // a takeover re-routes every stub at once, which other domains would
  // observe in the middle of a window.
  explicit ShardedScenario(ShardedConfig config, NetKind kind = NetKind::kGeo,
                           double default_rtt_ms = 20.0,
                           double default_bw_mbps = 100.0,
                           double jitter_sigma = 0.05);

  ShardedScenario(const ShardedScenario&) = delete;
  ShardedScenario& operator=(const ShardedScenario&) = delete;

  // Builds the network model; receives domain 0's clock, since trace
  // replay (net::TraceNetwork) is time-dependent.
  using ModelFactory =
      std::function<std::unique_ptr<net::NetworkModel>(sim::Clock&)>;

  // ---- infrastructure ----
  [[nodiscard]] std::size_t shard_count() const { return domains_.size(); }
  [[nodiscard]] const ShardedConfig& config() const { return config_; }
  [[nodiscard]] manager::CentralManager& central_manager() { return *manager_; }
  // The manager currently owning the registry: the primary until a
  // takeover completes, the standby after.
  [[nodiscard]] manager::CentralManager& active_manager() {
    return *route_.manager;
  }
  [[nodiscard]] sim::Simulator& simulator_of(std::size_t domain) {
    return domains_[domain].sim;
  }
  // The GeoNetwork every domain samples from, null for other models.
  [[nodiscard]] net::GeoNetwork* geo_network();
  // The one network model shared by every domain's fabric.
  [[nodiscard]] const net::NetworkModel& network_model() const {
    return *model_;
  }

  // ---- nodes (global indices, in add order across all domains) ----
  std::size_t add_node(const NodeSpec& spec);
  // Bulk construction: `count` nodes cloned from `base`; `placement`
  // (optional) mutates the spec for each index — position, name, tier...
  // Returns the index of the first node added.
  using NodePlacementFn = std::function<void(std::size_t, NodeSpec&)>;
  std::size_t add_nodes(const NodeSpec& base, std::size_t count,
                        const NodePlacementFn& placement = {});
  [[nodiscard]] std::size_t node_count() const { return node_refs_.size(); }
  [[nodiscard]] node::EdgeNode& node(std::size_t index);
  [[nodiscard]] const NodeSpec& node_spec(std::size_t index) const;
  [[nodiscard]] NodeId node_id(std::size_t index) const;
  // Index of the node with this id, if any.
  [[nodiscard]] std::optional<std::size_t> node_index(NodeId id) const;

  void start_node(std::size_t index);
  void stop_node(std::size_t index, bool graceful);
  void schedule_node_start(std::size_t index, SimTime at);
  void schedule_node_stop(std::size_t index, SimTime at, bool graceful);
  // Run `fn(node)` on the node's own domain at time `at`.
  void schedule_at_node(std::size_t index, SimTime at,
                        std::function<void(node::EdgeNode&)> fn);

  // Simulates losing/regaining the route to a node: with the route cut,
  // every client resolver returns nullptr for it — the "deregistered node
  // still held by a client" liveness case. Build-time / between-windows
  // only: resolvers on every domain read this set.
  void set_route(NodeId id, bool routed);

  // ---- clients (global indices) ----
  client::EdgeClient& add_edge_client(const ClientSpot& spot,
                                      client::ClientConfig config);
  // Bulk construction: `count` clients, spot and config produced per index.
  // Returns the index of the first client added.
  using ClientSpotFn = std::function<ClientSpot(std::size_t)>;
  using ClientConfigFn = std::function<client::ClientConfig(std::size_t)>;
  std::size_t add_edge_clients(const ClientSpotFn& spot_fn,
                               const ClientConfigFn& config_fn,
                               std::size_t count);
  [[nodiscard]] std::size_t edge_client_count() const {
    return client_refs_.size();
  }
  [[nodiscard]] client::EdgeClient& edge_client(std::size_t index);
  // Run `fn(client)` on the client's own domain at time `at`.
  void schedule_at_client(std::size_t index, SimTime at,
                          std::function<void(client::EdgeClient&)> fn);
  baselines::StaticClient& add_static_client(const ClientSpot& spot,
                                             workload::AppProfile app);

  // ---- faults (net::FaultInjector semantics) ----
  // Each window fans out to every domain's injector; the injectors are
  // attached to their fabrics with the first window, so fault-free runs
  // pay nothing per send.
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

  // ---- analytics ----
  [[nodiscard]] std::vector<baselines::NodeInfo> node_infos() const;
  // Prediction input for the optimal solver over the given client hosts
  // (uses base RTTs — no jitter — like an offline profile would).
  [[nodiscard]] baselines::PredictInput predict_input(
      const std::vector<HostId>& clients, double fps,
      double frame_bytes) const;

  // ---- merged results (identical across shard counts) ----
  // Merged counters + latency distribution across every edge client.
  [[nodiscard]] FleetStats fleet_stats() const;
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const;
  // Per-shard traces merged into canonical (time, site) order; empty when
  // tracing is off.
  [[nodiscard]] std::vector<obs::TraceEvent> canonical_trace() const;
  // Guard against vacuous runs greenwashing a fuzz sweep: throws
  // std::runtime_error when the scenario has no edge clients at all, or
  // when frame-sending clients exist but not a single frame ever left one
  // (e.g. every node spec churned away before any client attached). Call
  // after run_until(horizon); a passing run returns silently.
  void require_nonvacuous_run() const;

  [[nodiscard]] ShardStats shard_stats() const;
  [[nodiscard]] std::string geohash_of(const geo::GeoPoint& position) const;

  // ---- observability ----
  // Turns on tracing + metrics after construction (idempotent; implied by
  // ScenarioConfig::trace). Wires the managers, the journal and every
  // node/client built so far and from now on.
  void enable_observability();

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

 protected:
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
    StaticFleet statics;
    // Per-domain stubs for nodes owned elsewhere (lazy; the rpc rides this
    // domain's fabric, the server closure ships to the owner's domain).
    std::deque<SimNodeStub> remote_stubs;
    // Resolved endpoints by NodeId::value (null = not resolved yet).
    std::vector<net::NodeApi*> stub_cache;
    std::uint64_t stalled_windows{0};
  };

  // The sequential configuration (harness::Scenario): one domain, no
  // windows, FIFO delivery.
  ShardedScenario(const ScenarioConfig& config, const ModelFactory& factory);

  [[nodiscard]] static ModelFactory builtin_model(NetKind kind,
                                                  double default_rtt_ms,
                                                  double default_bw_mbps,
                                                  double jitter_sigma);
  [[nodiscard]] Domain& domain(std::size_t index) { return domains_[index]; }
  [[nodiscard]] net::NetworkModel& model() { return *model_; }
  // The rpc endpoint of node `id` as seen from `domain`; null if the node
  // is unknown or its route is cut.
  [[nodiscard]] net::NodeApi* node_api_for(std::uint32_t domain, NodeId id);

 private:
  struct EntityRef {
    std::uint32_t domain;
    std::uint32_t index;
  };

  ShardedScenario(ShardedConfig config, const ModelFactory& factory,
                  double default_rtt_ms, bool deterministic);

  [[nodiscard]] std::uint32_t domain_of_position(
      const geo::GeoPoint& position) const;
  // Allocates the next host id in `domain`, registers its position with
  // the model and, when `alive`, marks it alive.
  HostId add_host(std::uint32_t domain, const geo::GeoPoint& position,
                  net::AccessTier tier, bool alive, double extra_rtt_ms = 0.0,
                  const std::string& network_tag = {});
  [[nodiscard]] std::unique_ptr<manager::CentralManager> make_manager();
  [[nodiscard]] node::EdgeNodeConfig make_node_config(const NodeSpec& spec,
                                                      HostId host) const;
  [[nodiscard]] client::NodeResolver resolver(std::uint32_t domain);
  [[nodiscard]] bool cross_domain_pairs_exist() const;
  // Attaches every domain's injector to its fabric.
  void attach_faults();
  void build_standby();
  void schedule_standby_tail();
  void on_crash_trigger(journal::CrashPoint point);
  void crash_primary(journal::CrashPoint point);
  void do_takeover();

  ShardedConfig config_;
  double default_rtt_ms_;
  net::ShardRouter router_;
  // Declared before domains_ so it outlives every fabric sampling from it.
  std::unique_ptr<net::NetworkModel> model_;
  // Where every stub and link sends manager traffic; flipped to the
  // standby at takeover. Declared before domains_, whose stubs and links
  // point at it.
  ManagerRoute route_{};
  std::deque<Domain> domains_;
  HostId manager_host_;
  std::unique_ptr<manager::CentralManager> manager_;
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
  std::vector<std::uint32_t> host_domain_;  // indexed by host id
  std::vector<EntityRef> node_refs_;        // global node index → (domain, i)
  std::vector<EntityRef> client_refs_;
  // Dense by NodeId::value — node ids are host ids, which add_host hands
  // out from one sequence — so every send resolves its node without
  // hashing.
  static constexpr std::size_t kNoNode = static_cast<std::size_t>(-1);
  std::vector<std::size_t> node_index_by_id_;  // kNoNode for non-nodes
  std::vector<std::uint8_t> unrouted_;         // set_route(id, false)
  std::unique_ptr<WindowPool> pool_;
  SimTime cursor_{0};
  std::uint64_t windows_{0};
  SimDuration last_window_{0};
  double min_last_mile_ms_{1e30};  // over registered hosts (tier bound)
  double min_slow_factor_{1.0};    // over injected slow_link windows
};

}  // namespace eden::harness
