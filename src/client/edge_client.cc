#include "client/edge_client.h"

#include <algorithm>

#include "common/logging.h"

namespace eden::client {

const char* to_string(ClientEvent::Kind kind) {
  switch (kind) {
    case ClientEvent::Kind::kJoined: return "joined";
    case ClientEvent::Kind::kSwitched: return "switched";
    case ClientEvent::Kind::kFailover: return "failover";
    case ClientEvent::Kind::kHardFailure: return "hard-failure";
    case ClientEvent::Kind::kQosRejected: return "qos-rejected";
  }
  return "?";
}

void EdgeClient::emit(ClientEvent::Kind kind, NodeId node) {
  if (event_hook_) event_hook_(ClientEvent{kind, scheduler_->now(), node});
}

void EdgeClient::set_observability(obs::TraceRecorder* trace,
                                   obs::MetricsRegistry* metrics) {
  trace_ = trace;
  if (metrics == nullptr) {
    metrics_ = Metrics{};
    return;
  }
  metrics_.keepalive_misses = &metrics->counter("client.keepalive_misses");
  metrics_.failovers = &metrics->counter("client.failovers");
  metrics_.hard_failures = &metrics->counter("client.hard_failures");
  metrics_.frames_ok = &metrics->counter("client.frames_ok");
  metrics_.frames_failed = &metrics->counter("client.frames_failed");
  metrics_.probe_cycle_ms = &metrics->histogram("client.probe_cycle_ms");
  metrics_.join_ms = &metrics->histogram("client.join_ms");
  metrics_.failover_ms = &metrics->histogram("client.failover_ms");
}

void EdgeClient::trace(obs::EventKind kind, HostId subject, std::uint64_t span,
                       double value) {
  if (trace_ == nullptr) return;
  trace_->record({scheduler_->now(), kind, config_.id, subject, span, value});
}

void EdgeClient::end_cycle() {
  cycle_in_flight_ = false;
  const double ms = to_ms(scheduler_->now() - cycle_started_at_);
  trace(obs::EventKind::kProbeCycleEnd, {}, cycle_counter_, ms);
  if (metrics_.probe_cycle_ms) metrics_.probe_cycle_ms->observe(ms);
}

EdgeClient::EdgeClient(sim::Scheduler& scheduler, net::ManagerApi& manager,
                       NodeResolver resolver, ClientConfig config)
    : scheduler_(&scheduler),
      manager_(&manager),
      resolver_(std::move(resolver)),
      config_(std::move(config)),
      rate_(config_.app),
      rng_(0x9e3779b97f4a7c15ull ^ config_.id.value) {}

void EdgeClient::start() {
  if (running_) return;
  running_ = true;
  probing_cycle(config_.max_join_retries);
  arm_probing_timer();
  arm_keepalive_timer();
  if (config_.send_frames) arm_frame_timer();
}

void EdgeClient::stop() {
  if (!running_) return;
  running_ = false;
  if (probing_event_ != sim::kInvalidEvent) scheduler_->cancel(probing_event_);
  if (frame_event_ != sim::kInvalidEvent) scheduler_->cancel(frame_event_);
  if (keepalive_event_ != sim::kInvalidEvent) {
    scheduler_->cancel(keepalive_event_);
  }
  probing_event_ = sim::kInvalidEvent;
  frame_event_ = sim::kInvalidEvent;
  keepalive_event_ = sim::kInvalidEvent;
  // A stop mid-cycle used to leave these latches set forever (the in-flight
  // callbacks bail on !running_ without clearing them), which blocked every
  // probing cycle after a restart. Clearing them here is safe for the same
  // reason: whatever was in flight is a no-op once running_ is false.
  cycle_in_flight_ = false;
  keepalive_in_flight_ = false;
  keepalive_miss_count_ = 0;
  if (current_) {
    if (auto* api = resolver_(*current_)) api->leave(config_.id);
    current_.reset();
  }
}

void EdgeClient::trigger_probing_cycle() {
  probing_cycle(config_.max_join_retries);
}

void EdgeClient::arm_probing_timer() {
  // Jitter each period so fleets of clients do not probe (and then join)
  // in lockstep.
  const double jitter = std::clamp(config_.probing_jitter, 0.0, 0.9);
  const double factor = rng_.uniform(1.0 - jitter, 1.0 + jitter);
  const auto period = static_cast<SimDuration>(
      static_cast<double>(config_.probing_period) * factor);
  probing_event_ = scheduler_->schedule_after(period, [this] {
    if (!running_) return;
    probing_cycle(config_.max_join_retries);
    arm_probing_timer();
  });
}

// ---- Algorithm 2: discovery -> probe -> sort -> join ----

void EdgeClient::probing_cycle(int retries_left) {
  if (!running_ || cycle_in_flight_) return;
  cycle_in_flight_ = true;
  cycle_started_at_ = scheduler_->now();
  ++cycle_counter_;
  trace(obs::EventKind::kProbeCycleBegin, {}, cycle_counter_);
  ++stats_.discoveries;
  net::DiscoveryRequest request;
  request.client = config_.id;
  request.geohash = config_.geohash;
  request.network_tag = config_.network_tag;
  request.top_n = config_.top_n;
  request.app_type = config_.app.app_type;
  trace(obs::EventKind::kDiscoverySend, {}, cycle_counter_);
  manager_->discover(request, [this, retries_left](
                                  std::optional<net::DiscoveryResponse> resp) {
    if (!running_) return;
    if (!resp || resp->candidates.empty()) {
      trace(obs::EventKind::kDiscoveryResult, {}, cycle_counter_,
            resp ? 0.0 : -1.0);
      end_cycle();
      return;  // manager unreachable or empty system; next period retries
    }
    trace(obs::EventKind::kDiscoveryResult, {}, cycle_counter_,
          static_cast<double>(resp->candidates.size()));
    probe_candidates(resp->candidates, retries_left);
  });
}

std::shared_ptr<EdgeClient::ProbeCycle> EdgeClient::acquire_probe_cycle() {
  for (auto& slot : cycle_pool_) {
    if (slot.use_count() == 1) {
      slot->results.clear();
      slot->pending = 0;
      slot->cycle = 0;
      return slot;
    }
  }
  auto cycle = std::make_shared<ProbeCycle>();
  cycle_pool_.push_back(cycle);
  return cycle;
}

void EdgeClient::probe_candidates(
    const std::vector<net::CandidateInfo>& candidates, int retries_left) {
  auto cycle = acquire_probe_cycle();
  cycle->cycle = cycle_counter_;
  cycle->pending = candidates.size();
  cycle->results.reserve(candidates.size());

  for (const auto& candidate : candidates) {
    net::NodeApi* api = resolver_(candidate.node);
    if (api == nullptr) {
      if (--cycle->pending == 0) finish_probe_cycle(cycle, retries_left);
      continue;
    }
    ++stats_.probes_sent;
    trace(obs::EventKind::kProbeSend, candidate.node, cycle->cycle);
    const SimTime t0 = scheduler_->now();
    // Algorithm 2 lines 5-9: time the RTT probe ourselves, then fetch the
    // cached what-if performance.
    api->rtt_probe(config_.id, [this, cycle, retries_left, api,
                                node = candidate.node, t0](bool ok) {
      if (!running_) return;
      if (!ok) {
        ++stats_.probe_failures;
        trace(obs::EventKind::kProbeResult, node, cycle->cycle, -1.0);
        if (--cycle->pending == 0) finish_probe_cycle(cycle, retries_left);
        return;
      }
      const double d_prop_ms = to_ms(scheduler_->now() - t0);
      api->process_probe(
          config_.id, [this, cycle, retries_left, node, d_prop_ms](
                          std::optional<net::ProcessProbeResponse> pp) {
            if (!running_) return;
            if (pp) {
              cycle->results.push_back(
                  ProbeResult{node, d_prop_ms, *pp, config_.app.frame_cost});
              trace(obs::EventKind::kProbeResult, node, cycle->cycle,
                    d_prop_ms);
            } else {
              ++stats_.probe_failures;
              trace(obs::EventKind::kProbeResult, node, cycle->cycle, -1.0);
            }
            if (--cycle->pending == 0) finish_probe_cycle(cycle, retries_left);
          });
    });
  }
  if (candidates.empty()) finish_probe_cycle(cycle, retries_left);
}

void EdgeClient::finish_probe_cycle(const std::shared_ptr<ProbeCycle>& cycle,
                                    int retries_left) {
  std::vector<ProbeResult>& sorted = cycle->results;
  const bool had_responses = !sorted.empty();
  sort_candidates_in_place(sorted, config_.policy, config_.qos,
                           0x517cc1b727220a95ull ^ config_.id.value);
  last_sorted_ = sorted;
  if (sorted.empty()) {
    if (had_responses && config_.qos.strict) {
      // Candidates answered but none satisfies the QoS bound: the user is
      // rejected from the system this cycle (§IV-D). Detach so existing
      // users keep their QoS; the periodic probing keeps retrying.
      ++stats_.qos_rejections;
      trace(obs::EventKind::kQosReject, {}, cycle_counter_);
      emit(ClientEvent::Kind::kQosRejected);
      if (current_) {
        if (auto* api = resolver_(*current_)) api->leave(config_.id);
        current_.reset();
        backups_.clear();
      }
    }
    end_cycle();
    return;
  }
  if (current_ && sorted.front().node == *current_) {
    // Already on the best candidate: just refresh the backup list
    // (Algorithm 2 line 20).
    adopt_backups(sorted, 1);
    end_cycle();
    return;
  }
  if (current_) {
    // Hysteresis: stay put unless the best candidate beats the cost of
    // staying by the configured margin. Staying costs d_prop + the node's
    // live processing time — NOT the what-if join cost, since this client
    // is already counted in the node's load.
    const auto key = [this](const ProbeResult& r) {
      return config_.policy == LocalPolicy::kLocalOverhead ? r.lo() : r.go();
    };
    for (const auto& r : sorted) {
      if (r.node != *current_) continue;
      const double stay_cost = r.d_prop_ms + r.process.current_ms;
      if (key(sorted.front()) >= stay_cost * (1.0 - config_.switch_margin)) {
        adopt_backups(sorted, 0);  // better node becomes the first backup
        end_cycle();
        return;
      }
      break;
    }
  }
  attempt_join(cycle, retries_left);
}

void EdgeClient::attempt_join(std::shared_ptr<ProbeCycle> cycle,
                              int retries_left) {
  const ProbeResult& best = cycle->results.front();
  net::NodeApi* api = resolver_(best.node);
  if (api == nullptr) {
    end_cycle();
    return;
  }
  net::JoinRequest request;
  request.client = config_.id;
  request.seq_num = best.process.seq_num;
  request.rate_fps = rate_.fps();
  const NodeId node = best.node;
  trace(obs::EventKind::kJoinSend, node, cycle_counter_);
  const SimTime join_sent_at = scheduler_->now();
  api->join(request, [this, cycle = std::move(cycle), retries_left,
                      join_sent_at, node](std::optional<net::JoinResponse> jr) {
    const std::vector<ProbeResult>& sorted = cycle->results;
    if (!running_) return;
    const double join_ms = to_ms(scheduler_->now() - join_sent_at);
    if (jr && jr->accepted) {
      trace(obs::EventKind::kJoinAccept, node, cycle_counter_, join_ms);
      if (metrics_.join_ms) metrics_.join_ms->observe(join_ms);
      const bool switched = current_ && *current_ != node;
      if (switched) {
        if (auto* prev = resolver_(*current_)) prev->leave(config_.id);
        ++stats_.switches;
        trace(obs::EventKind::kSwitch, node, cycle_counter_);
      }
      ++stats_.joins;
      current_ = node;
      adopt_backups(sorted, 1);
      end_cycle();
      emit(switched ? ClientEvent::Kind::kSwitched : ClientEvent::Kind::kJoined,
           node);
      return;
    }
    // Join rejected (state changed since probing) or timed out: Algorithm 2
    // line 14 — repeat the probing process from the edge discovery step.
    trace(obs::EventKind::kJoinReject, node, cycle_counter_, join_ms);
    ++stats_.join_conflicts;
    adopt_backups(sorted, 1);
    end_cycle();
    if (retries_left > 0) {
      scheduler_->schedule_after(msec(10.0), [this, retries_left] {
        if (running_) probing_cycle(retries_left - 1);
      });
    }
  });
}

void EdgeClient::adopt_backups(const std::vector<ProbeResult>& sorted,
                               std::size_t skip_first) {
  backups_.clear();
  for (std::size_t i = skip_first; i < sorted.size(); ++i) {
    if (current_ && sorted[i].node == *current_) continue;
    backups_.push_back(sorted[i].node);
  }
}

// ---- frame stream ----

void EdgeClient::arm_frame_timer() {
  frame_event_ = scheduler_->schedule_after(
      config_.app.frame_interval(rate_.fps()), [this] {
        if (!running_) return;
        send_frame();
        arm_frame_timer();
      });
}

void EdgeClient::send_frame() {
  if (!current_) return;  // not attached (yet / reconnecting)
  const NodeId target = *current_;
  net::NodeApi* api = resolver_(target);
  const std::uint64_t frame_id = next_frame_id_++;
  if (api == nullptr) {
    // No route to the current node: the frame is lost before it hits the
    // wire. Previously this returned silently — frames vanished uncounted
    // and the client stayed attached forever. Count the drop and fail over
    // immediately: unlike a timeout, a missing route is definitive, so
    // there is no congestion ambiguity to damp.
    ++stats_.frames_sent;
    ++stats_.frames_failed;
    if (metrics_.frames_failed) metrics_.frames_failed->inc();
    rate_.on_frame_failure();
    trace(obs::EventKind::kFrameSend, target, frame_id);
    trace(obs::EventKind::kFrameDrop, target, 0,
          static_cast<double>(frame_id));
    handle_node_failure(target);
    return;
  }
  ++stats_.frames_sent;
  trace(obs::EventKind::kFrameSend, target, frame_id);
  net::FrameRequest request;
  request.client = config_.id;
  request.frame_id = frame_id;
  request.bytes = config_.app.frame_bytes;
  request.cost = config_.app.frame_cost;
  const SimTime sent_at = scheduler_->now();
  api->offload(request, [this, target, frame_id,
                         sent_at](std::optional<net::FrameResponse> resp) {
    if (!running_) return;
    on_frame_done(target, frame_id, sent_at, resp);
  });
}

void EdgeClient::on_frame_done(NodeId target, std::uint64_t frame_id,
                               SimTime sent_at,
                               const std::optional<net::FrameResponse>& resp) {
  if (resp && !resp->dropped) {
    const double e2e_ms = to_ms(scheduler_->now() - sent_at);
    ++stats_.frames_ok;
    trace(obs::EventKind::kFrameOk, target, frame_id, e2e_ms);
    if (metrics_.frames_ok) metrics_.frames_ok->inc();
    latency_.add(scheduler_->now(), e2e_ms);
    samples_.add(e2e_ms);
    rate_.on_frame_latency(e2e_ms);
    if (resp->redisc_epoch > 0) maybe_honor_redisc(target, resp->redisc_epoch);
    return;
  }
  ++stats_.frames_failed;
  if (metrics_.frames_failed) metrics_.frames_failed->inc();
  rate_.on_frame_failure();
  trace(obs::EventKind::kFrameDrop, target, 0, static_cast<double>(frame_id));
  if (!current_ || *current_ != target) return;  // stale timeout
  if (resp && resp->redisc_epoch > 0) {
    // The node explicitly shed the frame and wants us elsewhere: honor the
    // hint (rate-limited per epoch) instead of the blunt congestion damper.
    maybe_honor_redisc(target, resp->redisc_epoch);
    return;
  }
  // A timed-out frame on the current node means congestion (node death is
  // the keepalive's business): re-select at most once per half probing
  // period so a stream of timeouts does not become a probe storm.
  const SimDuration min_gap = config_.probing_period / 2;
  if (scheduler_->now() - last_congestion_reprobe_ >= min_gap) {
    last_congestion_reprobe_ = scheduler_->now();
    probing_cycle(config_.max_join_retries);
  }
}

void EdgeClient::maybe_honor_redisc(NodeId target, std::uint64_t epoch) {
  std::uint64_t& honored = honored_epoch_[target];
  if (epoch <= honored) return;  // this episode already triggered a re-probe
  honored = epoch;
  ++stats_.redisc_hints;
  trace(obs::EventKind::kRediscHint, target, 0, static_cast<double>(epoch));
  last_congestion_reprobe_ = scheduler_->now();
  probing_cycle(config_.max_join_retries);
}

// ---- keepalive: connection-interruption detection (§IV-E) ----

void EdgeClient::arm_keepalive_timer() {
  keepalive_event_ =
      scheduler_->schedule_after(config_.keepalive_period, [this] {
        if (!running_) return;
        keepalive_tick();
        arm_keepalive_timer();
      });
}

void EdgeClient::keepalive_tick() {
  if (!current_ || keepalive_in_flight_) return;
  const NodeId target = *current_;
  net::NodeApi* api = resolver_(target);
  if (api == nullptr) {
    // No route to the current node (deregistered / pulled from the fabric).
    // Previously this returned silently, so such a node never accrued
    // misses and the client wedged on it forever. Score it as a miss so
    // the failure monitor fires exactly as for a dead-but-routable node.
    on_keepalive_miss(target);
    return;
  }
  keepalive_in_flight_ = true;
  api->rtt_probe(config_.id, [this, target](bool ok) {
    keepalive_in_flight_ = false;
    if (!running_) return;
    if (!current_ || *current_ != target) {
      keepalive_miss_count_ = 0;
      return;
    }
    if (ok) {
      keepalive_miss_count_ = 0;
      return;
    }
    on_keepalive_miss(target);
  });
}

void EdgeClient::on_keepalive_miss(NodeId target) {
  ++keepalive_miss_count_;
  trace(obs::EventKind::kKeepaliveMiss, target, 0,
        static_cast<double>(keepalive_miss_count_));
  if (metrics_.keepalive_misses) metrics_.keepalive_misses->inc();
  if (keepalive_miss_count_ >= config_.keepalive_misses) {
    keepalive_miss_count_ = 0;
    handle_node_failure(target);
  }
}

// ---- failure monitor (§IV-E) ----

void EdgeClient::handle_node_failure(NodeId failed) {
  if (!current_ || *current_ != failed) return;  // stale timeout
  failure_detected_at_ = scheduler_->now();
  trace(obs::EventKind::kNodeFailure, failed);
  current_.reset();
  if (config_.proactive_connections) {
    try_backup(0);
  } else {
    reactive_reconnect();
  }
}

void EdgeClient::try_backup(std::size_t index) {
  if (index >= backups_.size()) {
    // All backup edge nodes failed simultaneously — the only case in which
    // our approach still experiences a user-visible failure (Fig 10).
    ++stats_.hard_failures;
    if (metrics_.hard_failures) metrics_.hard_failures->inc();
    trace(obs::EventKind::kHardFailure);
    emit(ClientEvent::Kind::kHardFailure);
    backups_.clear();
    reactive_reconnect();
    return;
  }
  const NodeId node = backups_[index];
  net::NodeApi* api = resolver_(node);
  if (api == nullptr) {
    try_backup(index + 1);
    return;
  }
  net::JoinRequest request;
  request.client = config_.id;
  request.rate_fps = rate_.fps();
  api->unexpected_join(request, [this, node, index](bool ok) {
    if (!running_) return;
    if (current_) return;  // raced with a probing cycle that re-attached us
    if (ok) {
      current_ = node;
      ++stats_.failovers;
      const double ms = failure_detected_at_ >= 0
                            ? to_ms(scheduler_->now() - failure_detected_at_)
                            : 0.0;
      trace(obs::EventKind::kFailover, node, 0, ms);
      if (metrics_.failovers) metrics_.failovers->inc();
      if (metrics_.failover_ms) metrics_.failover_ms->observe(ms);
      emit(ClientEvent::Kind::kFailover, node);
      // A concurrent probing cycle (e.g. a rejected join) may have replaced
      // the backup list while this join was in flight — drop up to and
      // including the node we just took, clamped to the current list.
      const std::size_t drop = std::min(index + 1, backups_.size());
      backups_.erase(backups_.begin(),
                     backups_.begin() + static_cast<std::ptrdiff_t>(drop));
      // Rebuild the (now shorter) backup list right away instead of
      // waiting out the probing period — churn rarely kills just one node.
      scheduler_->schedule_after(msec(10.0), [this] {
        if (running_) probing_cycle(config_.max_join_retries);
      });
    } else {
      try_backup(index + 1);
    }
  });
}

void EdgeClient::reactive_reconnect() {
  // No warm connection to fall back on: pay the connection
  // re-establishment cost, then redo discovery + probing from scratch.
  scheduler_->schedule_after(config_.reconnect_penalty, [this] {
    if (!running_) return;
    probing_cycle(config_.max_join_retries);
  });
}

}  // namespace eden::client
