// EdgeNode: the server-side runtime of the EDEN protocol. Implements the
// probing APIs of Table I in the paper (RTT_probe, Process_probe, Join,
// Unexpected_join, Leave), the what-if test-workload cache with its three
// invocation triggers (§IV-C2), the seqNum join synchronization of
// Algorithm 1, the performance monitor, and heartbeats to the central
// manager.
//
// The class is transport-agnostic: handlers are plain synchronous methods;
// the simulation harness and the TCP runtime wrap them behind net::NodeApi.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.h"
#include "net/api.h"
#include "net/protocol.h"
#include "node/executor.h"
#include "obs/trace.h"
#include "sim/clock.h"

namespace eden::node {

struct EdgeNodeConfig {
  NodeId id;
  std::string geohash;
  std::string network_tag;
  // Transport address advertised through registration/heartbeats; used by
  // the live TCP runtime, ignored by the simulator.
  std::string endpoint;
  // Application server types deployed on this node; empty = serves all.
  std::vector<std::string> app_types;
  bool dedicated{false};
  bool is_cloud{false};
  ExecutorConfig executor;
  SimDuration heartbeat_period{sec(1.0)};
  // Algorithm 1 line 5: the post-join test workload runs after roughly two
  // common user RTTs, so it observes the new user's traffic.
  SimDuration test_workload_delay{msec(30.0)};
  // Performance-monitor trigger (§IV-C2 scenario 3): re-run the test
  // workload when live processing times drift this fraction away from the
  // cached what-if value...
  double perf_change_threshold{0.25};
  // ...but no more often than this.
  SimDuration min_perf_test_interval{msec(500.0)};
  double current_ema_alpha{0.2};
  // Attached users that have been silent (no frames, no probes) this long
  // are evicted — they crashed or failed over elsewhere without a Leave().
  SimDuration user_idle_ttl{sec(15.0)};
  // Overload-aware elasticity: heartbeats ride the feedback rpc (telemetry
  // up, HeartbeatAck back), shed frames are fast-failed to the client, and
  // frame responses carry the manager's re-discover hint while degraded.
  // Off by default — the legacy one-way heartbeat path draws the exact
  // same RNG sequence as before.
  bool load_feedback{false};
  // Verification-harness fault: freeze seqNum so every state change keeps
  // the same value. Breaks the Algorithm 1 exactly-one-admission invariant
  // on purpose — eden::check's selftest proves its oracles catch it. Never
  // set outside the fuzzer.
  bool chaos_freeze_seq_num{false};
};

struct EdgeNodeStats {
  std::uint64_t probes_received{0};
  std::uint64_t test_invocations{0};
  std::uint64_t frames_processed{0};
  std::uint64_t joins_accepted{0};
  std::uint64_t joins_rejected{0};
  std::uint64_t unexpected_joins{0};
  std::uint64_t leaves{0};
  std::uint64_t evictions{0};  // idle users dropped without a Leave()
  std::uint64_t frames_shed{0};  // executor refusals fast-failed to clients
  std::uint64_t rejoins{0};      // manager-signaled re-registrations
};

class EdgeNode {
 public:
  EdgeNode(sim::Scheduler& scheduler, EdgeNodeConfig config,
           net::ManagerLink* manager = nullptr);

  // Register with the manager, begin heartbeats, measure the initial
  // what-if performance.
  void start();
  // Leave the system. Graceful stop deregisters from the manager; an
  // abrupt stop (node churn, crash) just goes dark — in-flight work is
  // dropped and the manager learns via missed heartbeats.
  void stop(bool graceful);
  [[nodiscard]] bool running() const { return running_; }

  // ---- Table I handlers (server side) ----
  // `from` (when valid) refreshes the prober's liveness if it is attached —
  // selection-only clients stay attached through their periodic probes.
  [[nodiscard]] net::ProcessProbeResponse handle_process_probe(
      ClientId from = ClientId{});
  [[nodiscard]] net::JoinResponse handle_join(const net::JoinRequest& request);
  bool handle_unexpected_join(const net::JoinRequest& request);
  void handle_leave(ClientId client);
  void handle_offload(const net::FrameRequest& request,
                      net::Done<net::FrameResponse> done);

  // ---- Introspection ----
  [[nodiscard]] NodeId id() const { return config_.id; }
  [[nodiscard]] const EdgeNodeConfig& config() const { return config_; }
  [[nodiscard]] int attached_users() const {
    return static_cast<int>(attached_.size());
  }
  // Sorted ids of the currently attached users (end-of-run oracle input).
  [[nodiscard]] std::vector<ClientId> attached_ids() const;
  [[nodiscard]] std::uint64_t seq_num() const { return seq_num_; }
  [[nodiscard]] double whatif_ms() const { return whatif_ms_; }
  [[nodiscard]] double current_ms() const;
  [[nodiscard]] const EdgeNodeStats& stats() const { return stats_; }
  [[nodiscard]] net::NodeStatus status() const;
  [[nodiscard]] Executor& executor() { return executor_; }
  // p95 over the recent-frame window, 0 before any frame completed.
  [[nodiscard]] double p95_proc_ms() const;
  // Manager-declared overload phase, as of the last heartbeat ack.
  [[nodiscard]] bool degraded() const { return degraded_; }
  [[nodiscard]] std::uint64_t phase_epoch() const { return phase_epoch_; }

  // Simulate the owner starting higher-priority host workloads.
  void set_background_load(double fraction);

  // Set the advertised transport address (live runtime learns its port
  // only after binding). Call before start().
  void set_endpoint(std::string endpoint) {
    config_.endpoint = std::move(endpoint);
  }

  // Opt-in lifecycle tracing (register/heartbeat/death/deregister); the
  // recorder must outlive the node. Null disables.
  void set_observability(obs::TraceRecorder* trace) { trace_ = trace; }

 private:
  // Shared tail of the three state-change triggers: bump seqNum and
  // (re-)measure the what-if performance after `delay`.
  void bump_state(SimDuration delay);
  void invoke_test_workload(SimDuration delay);
  void trace_event(obs::EventKind kind, HostId subject = {},
                   std::uint64_t span = 0, double value = 0.0);
  void send_heartbeat();
  void arm_heartbeat();

  sim::Scheduler* scheduler_;
  EdgeNodeConfig config_;
  net::ManagerLink* manager_;
  Executor executor_;

  // One attached user. The table is a vector sorted by client id and
  // searched by bisection: a node serves tens of users, and every offload
  // and process probe looks its sender up, so a flat array beats a hash
  // table's cache misses. Iteration (evictions, attached_ids) runs in
  // ascending client id.
  struct AttachedUser {
    ClientId client;
    double rate_fps{0};
    SimTime last_seen{0};
  };
  // First entry not below `client` (its entry when attached).
  [[nodiscard]] std::vector<AttachedUser>::iterator user_position(
      ClientId client);
  // The entry for `client`, or nullptr when it is not attached.
  [[nodiscard]] AttachedUser* find_user(ClientId client);
  // Inserts `client`, or refreshes its entry when already attached.
  void attach_user(ClientId client, double rate_fps);
  void evict_idle_users();
  std::vector<AttachedUser> attached_;

  // Sliding window of recent frame processing times feeding the p95 the
  // heartbeat telemetry reports. Fixed ring: no allocation, and 32 frames
  // of history reacts within a second or two at typical offload rates.
  // Samples age out after kP95FreshFor — a node clients were steered away
  // from stops reporting its last hot frames forever, so the manager's
  // exit thresholds can actually clear once the backlog drains.
  static constexpr std::size_t kP95Window = 32;
  static constexpr SimDuration kP95FreshFor = sec(10.0);
  void record_proc_sample(double proc_ms);

  bool running_{false};
  bool degraded_{false};          // per last HeartbeatAck
  std::uint64_t phase_epoch_{0};  // per last HeartbeatAck
  std::array<double, kP95Window> proc_samples_{};
  std::array<SimTime, kP95Window> proc_sample_at_{};
  std::size_t proc_sample_count_{0};
  std::size_t proc_sample_next_{0};
  std::uint64_t seq_num_{0};
  double whatif_ms_;
  bool test_pending_{false};
  bool test_rerun_{false};
  SimTime last_test_at_{0};
  double current_ema_ms_{0};
  bool has_current_ema_{false};
  sim::EventId heartbeat_event_{sim::kInvalidEvent};
  obs::TraceRecorder* trace_{nullptr};
  EdgeNodeStats stats_;
};

}  // namespace eden::node
