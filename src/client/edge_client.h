// EdgeClient: the client-side runtime of the EDEN protocol and the heart
// of the paper's contribution. Runs the client-centric probing procedure of
// Algorithm 2 every probing period (discovery -> RTT/process probes ->
// SortLocalSelectionPolicy -> synchronized Join/Leave), keeps the
// proactively-connected backup edge list, streams AR frames at an adaptive
// rate, and performs immediate failover through the failure monitor.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "client/selection_policy.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "net/api.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/clock.h"
#include "workload/app_profile.h"

namespace eden::client {

struct ClientConfig {
  ClientId id;
  std::string geohash;
  std::string network_tag;

  int top_n{3};                          // candidate edge list size
  SimDuration probing_period{sec(5.0)};  // T_probing
  SimDuration probe_timeout{msec(400.0)};
  SimDuration join_timeout{msec(400.0)};
  SimDuration discovery_timeout{msec(500.0)};
  // Failure monitor: a lightweight keepalive probe to the current node
  // every period; this many consecutive misses declare the connection
  // interrupted (node death), triggering the immediate backup switch.
  SimDuration keepalive_period{msec(500.0)};
  int keepalive_misses{2};
  // Reactive (non-proactive) reconnection pays this connection
  // re-establishment cost before re-running discovery.
  SimDuration reconnect_penalty{msec(800.0)};
  // Our approach keeps warm connections to all TopN candidates; false
  // reproduces the "re-connect" baseline of Fig 4 / Fig 10a.
  bool proactive_connections{true};

  LocalPolicy policy{LocalPolicy::kGlobalOverhead};
  QosFilter qos{};
  int max_join_retries{2};  // re-discoveries after a Join() conflict

  // Only switch away from the current node when the best candidate's
  // selection key improves on the current node's by this fraction —
  // damping for synchronized re-selection storms. 0 reproduces the bare
  // Algorithm 2 behaviour (switch whenever Current != C[0]).
  double switch_margin{0.1};
  // Each probing period is jittered by +/- this fraction so that client
  // populations do not probe in lockstep.
  double probing_jitter{0.15};

  workload::AppProfile app{};
  bool send_frames{true};  // false: selection-only client (probing studies)
};

struct ClientStats {
  std::uint64_t frames_sent{0};
  std::uint64_t frames_ok{0};
  std::uint64_t frames_failed{0};
  std::uint64_t discoveries{0};
  std::uint64_t probes_sent{0};  // RTT+process probe pairs
  std::uint64_t probe_failures{0};
  std::uint64_t switches{0};       // voluntary better-node switches
  std::uint64_t failovers{0};      // backup takeovers after failure
  std::uint64_t hard_failures{0};  // all backups dead -> reactive reconnect
  std::uint64_t join_conflicts{0};
  std::uint64_t joins{0};
  // Strict-QoS mode: probing cycles in which no candidate satisfied the
  // latency bound and the user stayed (or became) unattached (§IV-D).
  std::uint64_t qos_rejections{0};
  // Server-initiated re-discover hints honored (once per node+epoch).
  std::uint64_t redisc_hints{0};

  ClientStats& operator+=(const ClientStats& other) {
    frames_sent += other.frames_sent;
    frames_ok += other.frames_ok;
    frames_failed += other.frames_failed;
    discoveries += other.discoveries;
    probes_sent += other.probes_sent;
    probe_failures += other.probe_failures;
    switches += other.switches;
    failovers += other.failovers;
    hard_failures += other.hard_failures;
    join_conflicts += other.join_conflicts;
    joins += other.joins;
    qos_rejections += other.qos_rejections;
    redisc_hints += other.redisc_hints;
    return *this;
  }
};

// Resolves a node id to the transport stub used to reach it. Returning
// nullptr means "no route"; a stub to a dead node simply times out.
using NodeResolver = std::function<net::NodeApi*(NodeId)>;

// Structured client-side protocol events for tracing/observability.
struct ClientEvent {
  enum class Kind {
    kJoined,       // attached to `node` (first attach or after rejection)
    kSwitched,     // voluntarily moved to a better `node`
    kFailover,     // failure monitor moved us to backup `node`
    kHardFailure,  // all backups dead; reactive re-discovery begins
    kQosRejected,  // strict QoS: no candidate meets the bound
  };
  Kind kind;
  SimTime at{0};
  NodeId node;  // invalid for kHardFailure / kQosRejected
};

[[nodiscard]] const char* to_string(ClientEvent::Kind kind);

class EdgeClient {
 public:
  EdgeClient(sim::Scheduler& scheduler, net::ManagerApi& manager,
             NodeResolver resolver, ClientConfig config);

  // Begin the probing loop and (if configured) the frame stream.
  void start();
  void stop();

  // Run one probing cycle now (also used by tests).
  void trigger_probing_cycle();

  // Observe protocol events (joins, switches, failovers...). One hook;
  // set before start().
  using EventHook = std::function<void(const ClientEvent&)>;
  void set_event_hook(EventHook hook) { event_hook_ = std::move(hook); }

  // Opt-in tracing/metrics; either pointer may be null. Both must outlive
  // the client. When never called, every hook is a single null-check.
  void set_observability(obs::TraceRecorder* trace,
                         obs::MetricsRegistry* metrics);

  // ---- introspection ----
  [[nodiscard]] const ClientConfig& config() const { return config_; }
  [[nodiscard]] ClientId id() const { return config_.id; }
  [[nodiscard]] std::optional<NodeId> current_node() const { return current_; }
  [[nodiscard]] const std::vector<NodeId>& backup_nodes() const {
    return backups_;
  }
  [[nodiscard]] const ClientStats& stats() const { return stats_; }
  [[nodiscard]] const TimeSeries& latency_series() const { return latency_; }
  [[nodiscard]] const Samples& latency_samples() const { return samples_; }
  [[nodiscard]] double fps() const { return rate_.fps(); }
  [[nodiscard]] const std::vector<ProbeResult>& last_probe_results() const {
    return last_sorted_;
  }

 private:
  struct ProbeCycle {
    std::vector<ProbeResult> results;
    std::size_t pending{0};
    std::uint64_t cycle{0};
  };

  // Reusable ProbeCycle slots. Straggler probe callbacks from an aborted
  // cycle can outlive it (they hold the shared_ptr), so a slot is only
  // recycled once its use_count drops back to the pool's own reference —
  // and the pool stays tiny (concurrent cycles + stragglers). Keeping the
  // slot also keeps its results vector's capacity: the results are sorted
  // in place and the join completion holds the cycle, not a copy of the
  // list, so a steady-state probe cycle allocates nothing.
  [[nodiscard]] std::shared_ptr<ProbeCycle> acquire_probe_cycle();

  void arm_probing_timer();
  void probing_cycle(int retries_left);
  void probe_candidates(const std::vector<net::CandidateInfo>& candidates,
                        int retries_left);
  void finish_probe_cycle(const std::shared_ptr<ProbeCycle>& cycle,
                          int retries_left);
  // Joins the best of the cycle's sorted results. The join completion
  // captures the cycle (16 bytes), which keeps the sorted list alive for
  // adopt_backups without copying it.
  void attempt_join(std::shared_ptr<ProbeCycle> cycle, int retries_left);
  void adopt_backups(const std::vector<ProbeResult>& sorted,
                     std::size_t skip_first);

  void arm_frame_timer();
  void send_frame();
  void on_frame_done(NodeId target, std::uint64_t frame_id, SimTime sent_at,
                     const std::optional<net::FrameResponse>& resp);
  // Server-initiated elasticity: act on a re-discover hint piggybacked on a
  // frame response, at most once per (node, phase epoch).
  void maybe_honor_redisc(NodeId target, std::uint64_t epoch);
  void arm_keepalive_timer();
  void keepalive_tick();
  void on_keepalive_miss(NodeId target);

  // Failure monitor.
  void handle_node_failure(NodeId failed);
  void try_backup(std::size_t index);
  void reactive_reconnect();
  void emit(ClientEvent::Kind kind, NodeId node = {});
  void trace(obs::EventKind kind, HostId subject = {}, std::uint64_t span = 0,
             double value = 0.0);
  // Closes the in-flight probing cycle: clears the latch, traces the span
  // end, and records the cycle duration histogram.
  void end_cycle();

  sim::Scheduler* scheduler_;
  net::ManagerApi* manager_;
  NodeResolver resolver_;
  ClientConfig config_;

  // Named metric handles, resolved once in set_observability(); all null
  // when metrics are disabled.
  struct Metrics {
    obs::Counter* keepalive_misses{nullptr};
    obs::Counter* failovers{nullptr};
    obs::Counter* hard_failures{nullptr};
    obs::Counter* frames_ok{nullptr};
    obs::Counter* frames_failed{nullptr};
    obs::Histogram* probe_cycle_ms{nullptr};
    obs::Histogram* join_ms{nullptr};
    obs::Histogram* failover_ms{nullptr};
  };

  bool running_{false};
  bool cycle_in_flight_{false};
  SimTime last_congestion_reprobe_{0};
  std::uint64_t cycle_counter_{0};
  SimTime cycle_started_at_{0};
  SimTime failure_detected_at_{-1};
  std::optional<NodeId> current_;
  std::vector<NodeId> backups_;
  std::vector<ProbeResult> last_sorted_;
  std::vector<std::shared_ptr<ProbeCycle>> cycle_pool_;
  std::uint64_t next_frame_id_{1};
  sim::EventId probing_event_{sim::kInvalidEvent};
  sim::EventId frame_event_{sim::kInvalidEvent};
  sim::EventId keepalive_event_{sim::kInvalidEvent};
  int keepalive_miss_count_{0};
  bool keepalive_in_flight_{false};
  // Highest phase epoch already honored per node — a degraded node stamps
  // its hint on every response, and re-probing once per episode is enough.
  std::unordered_map<NodeId, std::uint64_t> honored_epoch_;

  workload::RateController rate_;
  Rng rng_;
  EventHook event_hook_;
  obs::TraceRecorder* trace_{nullptr};
  Metrics metrics_;
  ClientStats stats_;
  TimeSeries latency_;
  Samples samples_;
};

}  // namespace eden::client
