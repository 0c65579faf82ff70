#include "node/edge_node.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace eden::node {

EdgeNode::EdgeNode(sim::Scheduler& scheduler, EdgeNodeConfig config,
                   net::ManagerLink* manager)
    : scheduler_(&scheduler),
      config_(std::move(config)),
      manager_(manager),
      executor_(scheduler, config_.executor),
      whatif_ms_(config_.executor.base_frame_ms) {}

void EdgeNode::start() {
  if (running_) return;
  running_ = true;
  if (trace_ != nullptr) {
    trace_->record({scheduler_->now(), obs::EventKind::kNodeRegister,
                    config_.id, {}, 0, 0.0});
  }
  if (manager_ != nullptr) manager_->register_node(status());
  arm_heartbeat();
  invoke_test_workload(0);  // establish the initial what-if baseline
}

void EdgeNode::stop(bool graceful) {
  if (!running_) return;
  running_ = false;
  if (trace_ != nullptr) {
    trace_->record({scheduler_->now(),
                    graceful ? obs::EventKind::kNodeDeregister
                             : obs::EventKind::kNodeDeath,
                    config_.id, {}, 0,
                    static_cast<double>(attached_.size())});
  }
  executor_.reset();
  attached_.clear();
  if (heartbeat_event_ != sim::kInvalidEvent) {
    scheduler_->cancel(heartbeat_event_);
    heartbeat_event_ = sim::kInvalidEvent;
  }
  test_pending_ = false;
  test_rerun_ = false;
  if (graceful && manager_ != nullptr) manager_->deregister(config_.id);
}

net::NodeStatus EdgeNode::status() const {
  net::NodeStatus s;
  s.node = config_.id;
  s.geohash = config_.geohash;
  s.cores = config_.executor.cores;
  s.base_frame_ms = config_.executor.base_frame_ms;
  s.attached_users = attached_users();
  s.utilization = executor_.utilization();
  s.dedicated = config_.dedicated;
  s.is_cloud = config_.is_cloud;
  s.network_tag = config_.network_tag;
  s.endpoint = config_.endpoint;
  s.app_types = config_.app_types;
  s.queue_depth = executor_.queued();
  s.burst_credits = executor_.credits_core_sec();
  s.p95_proc_ms = p95_proc_ms();
  return s;
}

void EdgeNode::record_proc_sample(double proc_ms) {
  proc_samples_[proc_sample_next_] = proc_ms;
  proc_sample_at_[proc_sample_next_] = scheduler_->now();
  proc_sample_next_ = (proc_sample_next_ + 1) % kP95Window;
  proc_sample_count_ = std::min(proc_sample_count_ + 1, kP95Window);
}

double EdgeNode::p95_proc_ms() const {
  // Only samples fresh enough to describe the node's current condition
  // count; once the feedback loop steers clients away, the last hot frames
  // must not pin the reported p95 (and the overload set) high forever.
  const SimTime now = scheduler_->now();
  std::array<double, kP95Window> fresh;
  std::ptrdiff_t n = 0;
  for (std::size_t i = 0; i < proc_sample_count_; ++i) {
    if (now - proc_sample_at_[i] <= kP95FreshFor) fresh[n++] = proc_samples_[i];
  }
  if (n == 0) return 0.0;
  const std::ptrdiff_t rank = (n * 95 + 99) / 100 - 1;  // ceil(0.95 n) - 1
  std::nth_element(fresh.begin(), fresh.begin() + rank, fresh.begin() + n);
  return fresh[static_cast<std::size_t>(rank)];
}

void EdgeNode::trace_event(obs::EventKind kind, HostId subject,
                           std::uint64_t span, double value) {
  if (trace_ == nullptr) return;
  trace_->record({scheduler_->now(), kind, config_.id, subject, span, value});
}

std::vector<ClientId> EdgeNode::attached_ids() const {
  std::vector<ClientId> out;
  out.reserve(attached_.size());
  for (const AttachedUser& user : attached_) out.push_back(user.client);
  return out;
}

std::vector<EdgeNode::AttachedUser>::iterator EdgeNode::user_position(
    ClientId client) {
  return std::lower_bound(
      attached_.begin(), attached_.end(), client,
      [](const AttachedUser& u, ClientId c) { return u.client < c; });
}

EdgeNode::AttachedUser* EdgeNode::find_user(ClientId client) {
  const auto it = user_position(client);
  return it != attached_.end() && it->client == client ? &*it : nullptr;
}

void EdgeNode::attach_user(ClientId client, double rate_fps) {
  const auto it = user_position(client);
  const AttachedUser user{client, rate_fps, scheduler_->now()};
  if (it != attached_.end() && it->client == client) {
    *it = user;
  } else {
    attached_.insert(it, user);
  }
}

double EdgeNode::current_ms() const {
  // Before any live frame completes, the cached what-if value is the best
  // estimate of what existing users experience.
  return has_current_ema_ ? current_ema_ms_ : whatif_ms_;
}

net::ProcessProbeResponse EdgeNode::handle_process_probe(ClientId from) {
  ++stats_.probes_received;
  if (AttachedUser* user = find_user(from)) {
    user->last_seen = scheduler_->now();
  }
  net::ProcessProbeResponse resp;
  resp.whatif_ms = whatif_ms_;
  resp.current_ms = current_ms();
  resp.attached_users = attached_users();
  resp.seq_num = seq_num_;
  return resp;
}

net::JoinResponse EdgeNode::handle_join(const net::JoinRequest& request) {
  // Algorithm 1: accept only when the node state is unchanged since the
  // client's probe, so the what-if prediction the client acted on is still
  // valid.
  if (!running_ || request.seq_num != seq_num_) {
    ++stats_.joins_rejected;
    trace_event(obs::EventKind::kNodeJoinReject, request.client, seq_num_);
    return {false, seq_num_};
  }
  trace_event(obs::EventKind::kNodeJoinAccept, request.client, seq_num_);
  attach_user(request.client, request.rate_fps);
  ++stats_.joins_accepted;
  bump_state(config_.test_workload_delay);
  return {true, seq_num_};
}

bool EdgeNode::handle_unexpected_join(const net::JoinRequest& request) {
  if (!running_) return false;
  // Failover joins cannot be rejected (Table I): a client that just lost
  // its node must not be stranded.
  trace_event(obs::EventKind::kNodeUnexpectedJoin, request.client, seq_num_);
  attach_user(request.client, request.rate_fps);
  ++stats_.unexpected_joins;
  bump_state(config_.test_workload_delay);
  return true;
}

void EdgeNode::handle_leave(ClientId client) {
  const auto it = user_position(client);
  if (it == attached_.end() || it->client != client) return;
  attached_.erase(it);
  trace_event(obs::EventKind::kNodeLeave, client);
  ++stats_.leaves;
  bump_state(0);
}

void EdgeNode::handle_offload(const net::FrameRequest& request,
                              net::Done<net::FrameResponse> done) {
  if (!running_) return;
  if (AttachedUser* user = find_user(request.client)) {
    user->last_seen = scheduler_->now();
  }
  executor_.submit(request.cost, [this, frame_id = request.frame_id,
                                  client = request.client,
                                  done = std::move(done)](double proc_ms) mutable {
    if (!running_) return;
    if (proc_ms < 0) {
      // The executor shed the frame. With load feedback on, tell the client
      // immediately (it fails the frame without burning its rpc timeout);
      // legacy mode keeps the historical go-dark behavior byte-for-byte.
      if (!config_.load_feedback) return;
      ++stats_.frames_shed;
      trace_event(obs::EventKind::kNodeShed, client, 0,
                  static_cast<double>(frame_id));
      net::FrameResponse resp{frame_id, proc_ms};
      resp.dropped = true;
      if (degraded_) resp.redisc_epoch = phase_epoch_;
      done(resp);
      return;
    }
    record_proc_sample(proc_ms);
    ++stats_.frames_processed;
    current_ema_ms_ = has_current_ema_
                          ? (1 - config_.current_ema_alpha) * current_ema_ms_ +
                                config_.current_ema_alpha * proc_ms
                          : proc_ms;
    has_current_ema_ = true;
    // Performance-monitor trigger: live times drifted away from the cached
    // what-if value (rate changes, host workloads, throttling...).
    const double reference = std::max(1e-6, whatif_ms_);
    const double drift = std::abs(current_ema_ms_ - whatif_ms_) / reference;
    if (drift > config_.perf_change_threshold && !test_pending_ &&
        scheduler_->now() - last_test_at_ >= config_.min_perf_test_interval) {
      bump_state(0);
    }
    net::FrameResponse resp{frame_id, proc_ms};
    // Piggyback the manager's re-discover hint on successful frames too —
    // a degraded node that still completes work should shed load before it
    // starts dropping. degraded_ is only ever set via the feedback ack, so
    // this is dead when load_feedback is off.
    if (degraded_) resp.redisc_epoch = phase_epoch_;
    done(resp);
  });
}

void EdgeNode::bump_state(SimDuration delay) {
  // "seqNum is updated along with test workload invocation" — one shared
  // critical section for all three triggers. chaos_freeze_seq_num is the
  // fuzzer's seeded fault: the test workload still runs, but the seqNum
  // guard of Algorithm 1 stops advancing.
  if (!config_.chaos_freeze_seq_num) {
    ++seq_num_;
    trace_event(obs::EventKind::kSeqNumBump, {}, 0,
                static_cast<double>(seq_num_));
  }
  invoke_test_workload(delay);
}

void EdgeNode::invoke_test_workload(SimDuration delay) {
  if (test_pending_) {
    test_rerun_ = true;  // coalesce: re-measure once the current run lands
    return;
  }
  test_pending_ = true;
  scheduler_->schedule_after(delay, [this] {
    if (!running_) return;
    last_test_at_ = scheduler_->now();
    ++stats_.test_invocations;
    executor_.submit(1.0, [this](double proc_ms) {
      if (!running_) return;
      if (proc_ms < 0) {
        // The executor shed the test frame (saturated admission queue).
        // Before refusals surfaced through the completion this silently
        // wedged the what-if cache: test_pending_ stayed true forever and
        // the node never re-measured. Retry once the pressure has had a
        // chance to ease.
        test_pending_ = false;
        test_rerun_ = false;
        invoke_test_workload(config_.min_perf_test_interval);
        return;
      }
      whatif_ms_ = proc_ms;
      test_pending_ = false;
      if (test_rerun_) {
        test_rerun_ = false;
        invoke_test_workload(0);
      }
    });
  });
}

void EdgeNode::evict_idle_users() {
  std::size_t kept = 0;
  for (const AttachedUser& user : attached_) {
    if (scheduler_->now() - user.last_seen > config_.user_idle_ttl) {
      trace_event(obs::EventKind::kNodeEvict, user.client);
      ++stats_.evictions;
    } else {
      attached_[kept++] = user;
    }
  }
  const bool evicted = kept < attached_.size();
  attached_.resize(kept);
  // An eviction is a workload decrease — same critical section as Leave().
  if (evicted) bump_state(0);
}

void EdgeNode::send_heartbeat() {
  evict_idle_users();
  if (trace_ != nullptr) {
    trace_->record({scheduler_->now(), obs::EventKind::kNodeHeartbeat,
                    config_.id, {}, 0,
                    static_cast<double>(attached_.size())});
  }
  if (manager_ == nullptr) return;
  if (!config_.load_feedback) {
    manager_->heartbeat(status());
    return;
  }
  // Telemetry must describe the node *now*: the executor's accounting is
  // lazy (runs on submit/complete), so an idle node would otherwise report
  // the zero credit balance of its last busy moment forever — and the
  // manager's exit thresholds could never clear.
  executor_.refresh();
  manager_->heartbeat_feedback(
      status(), [this](std::optional<net::HeartbeatAck> ack) {
        if (!running_ || !ack) return;
        degraded_ = ack->degraded;
        phase_epoch_ = ack->phase_epoch;
        if (ack->rejoined) {
          // The manager had expired us: whatever seqNum clients observed
          // before the gap must not admit them now. Same critical section
          // as every other state change, so no seqNum value is reused
          // across the rejoin. (The manager records the kNodeRejoin event.)
          ++stats_.rejoins;
          bump_state(0);
        }
      });
}

void EdgeNode::arm_heartbeat() {
  heartbeat_event_ =
      scheduler_->schedule_after(config_.heartbeat_period, [this] {
        if (!running_) return;
        send_heartbeat();
        arm_heartbeat();
      });
}

void EdgeNode::set_background_load(double fraction) {
  executor_.set_background_load(fraction);
  // Host workloads change the node's performance envelope — same critical
  // section as the other state changes.
  if (running_) bump_state(0);
}

}  // namespace eden::node
