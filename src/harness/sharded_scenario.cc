#include "harness/sharded_scenario.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/trace_merge.h"

namespace eden::harness {

namespace {
// Window length used when no cross-shard pair exists and windows are not
// forced: one giant window per run_until() call.
constexpr SimDuration kHugeWindow =
    std::numeric_limits<SimDuration>::max() / 4;
// Exact O(hosts^2) lookahead only below this host count; larger worlds use
// the closed-form tier bound.
constexpr std::uint32_t kExactLookaheadHosts = 256;
}  // namespace

ShardedScenario::ShardedScenario(ShardedConfig config, NetKind kind,
                                 double default_rtt_ms,
                                 double default_bw_mbps, double jitter_sigma)
    : config_(std::move(config)),
      kind_(kind),
      default_rtt_ms_(default_rtt_ms),
      rng_(config_.base.seed) {
  const unsigned shards = std::max(1u, config_.shards);
  pool_ = std::make_unique<WindowPool>(
      std::max(1u, resolve_thread_count(config_.threads)));
  // One model for every domain: lookups are const and write nothing, so
  // concurrent windows can share it; hosts are added only between windows.
  if (kind_ == NetKind::kGeo) {
    model_ = std::make_unique<net::GeoNetwork>(jitter_sigma);
  } else {
    model_ = std::make_unique<net::MatrixNetwork>(default_rtt_ms,
                                                  default_bw_mbps, jitter_sigma);
  }
  for (unsigned s = 0; s < shards; ++s) {
    Domain& d = domains_.emplace_back();
    d.fabric = std::make_unique<net::SimNetwork>(d.sim, *model_, d.hosts,
                                                 rng_.fork("fabric"));
    // Same seed everywhere: a message's jitter must not depend on which
    // domain sampled it.
    d.fabric->enable_deterministic_delivery(config_.base.seed);
    d.fabric->set_fault_injector(&d.faults);
    const net::ShardRouter::ShardId id = router_.add_shard(d.fabric.get(),
                                                           &d.sim);
    d.fabric->set_shard_router(&router_, id);
    if (config_.base.trace) {
      d.trace = std::make_unique<obs::TraceRecorder>();
      d.metrics = std::make_unique<obs::MetricsRegistry>();
    }
  }

  // Manager: always domain 0, host 0 — the same wiring (and the same host
  // id sequence) as the sequential Scenario.
  manager_host_ = HostId{next_host_++};
  host_domain_.push_back(0);
  router_.set_shard(manager_host_, 0);
  domains_[0].hosts.set_alive(manager_host_, true);
  register_position(manager_host_, geo::GeoPoint{44.9778, -93.2650},
                    net::AccessTier::kLocalZone, 0.0, {});
  manager_ = std::make_unique<manager::CentralManager>(
      domains_[0].scheduler, config_.base.manager_policy,
      config_.base.heartbeat_ttl);
  if (config_.base.load_feedback) {
    manager::OverloadPolicy policy = config_.base.overload;
    policy.enabled = true;
    manager_->set_overload_policy(policy);
  }
  if (config_.base.trace) {
    manager_->set_observability(domains_[0].trace.get(),
                                domains_[0].metrics.get());
  }
  for (Domain& d : domains_) {
    d.manager_stub.emplace(*d.fabric, *manager_, manager_host_, ClientId{},
                           config_.base.timeouts, config_.base.wire_sizes);
  }
}

net::GeoNetwork* ShardedScenario::geo_network() {
  return dynamic_cast<net::GeoNetwork*>(model_.get());
}

std::string ShardedScenario::geohash_of(const geo::GeoPoint& position) const {
  return geo::geohash_encode(position, config_.base.geohash_precision);
}

std::uint32_t ShardedScenario::domain_of_position(
    const geo::GeoPoint& position) const {
  if (domains_.size() == 1) return 0;
  // FNV-1a over the shard cell (a geohash prefix coarser than the protocol
  // precision): co-located hosts always land in the same cell, hence the
  // same shard, so zero-distance pairs never cross a shard boundary.
  const std::string cell =
      geo::geohash_encode(position, config_.cell_precision);
  std::uint32_t h = 2166136261u;
  for (const char c : cell) {
    h = (h ^ static_cast<std::uint8_t>(c)) * 16777619u;
  }
  return h % static_cast<std::uint32_t>(domains_.size());
}

void ShardedScenario::register_position(HostId host,
                                        const geo::GeoPoint& position,
                                        net::AccessTier tier,
                                        double extra_rtt_ms,
                                        const std::string& network_tag) {
  min_last_mile_ms_ =
      std::min(min_last_mile_ms_, net::GeoNetwork::tier_latency_ms(tier));
  auto* geo_net = dynamic_cast<net::GeoNetwork*>(model_.get());
  if (geo_net == nullptr) return;
  // Same tag→isp hash as Scenario::register_position.
  int isp = -1;
  if (!network_tag.empty()) {
    std::uint32_t h = 2166136261u;
    for (const char c : network_tag) {
      h = (h ^ static_cast<std::uint8_t>(c)) * 16777619u;
    }
    isp = static_cast<int>(h & 0x7fffffff);
  }
  geo_net->add_host(host, position, tier, isp);
  if (extra_rtt_ms > 0) geo_net->set_extra_rtt_ms(host, extra_rtt_ms);
}

node::EdgeNodeConfig ShardedScenario::make_node_config(const NodeSpec& spec,
                                                       HostId host) const {
  node::EdgeNodeConfig node_config;
  node_config.id = host;  // NodeId == HostId by convention
  node_config.geohash = geohash_of(spec.position);
  node_config.network_tag = spec.network_tag;
  node_config.dedicated = spec.dedicated;
  node_config.is_cloud = spec.is_cloud;
  node_config.heartbeat_period = spec.heartbeat_period;
  node_config.app_types = spec.app_types;
  node_config.user_idle_ttl = spec.user_idle_ttl;
  node_config.chaos_freeze_seq_num = spec.chaos_freeze_seq_num;
  node_config.load_feedback = config_.base.load_feedback;
  node_config.executor.shed_on_throttle = config_.base.load_feedback;
  node_config.executor.cores = spec.cores;
  node_config.executor.base_frame_ms = spec.base_frame_ms;
  node_config.executor.contention_alpha = spec.contention_alpha;
  node_config.executor.burstable = spec.burstable;
  node_config.executor.burst_baseline = spec.burst_baseline;
  node_config.executor.initial_credits_core_sec = spec.initial_credits_core_sec;
  node_config.executor.background_load = spec.background_load;
  return node_config;
}

std::size_t ShardedScenario::add_node(const NodeSpec& spec) {
  const HostId host{next_host_++};
  const std::uint32_t dom = domain_of_position(spec.position);
  host_domain_.push_back(dom);
  router_.set_shard(host, dom);
  register_position(host, spec.position, spec.tier, spec.extra_rtt_ms,
                    spec.network_tag);
  Domain& d = domains_[dom];
  const std::size_t local = d.nodes.emplace(
      spec, host, *d.fabric, *manager_, manager_host_, d.scheduler,
      make_node_config(spec, host), config_.base.timeouts,
      config_.base.wire_sizes);
  node::EdgeNode& node = d.nodes.nodes[local];
  if (d.trace) node.set_observability(d.trace.get());
  node_refs_.push_back(
      EntityRef{dom, static_cast<std::uint32_t>(local)});
  node_index_by_id_[node.id()] = node_refs_.size() - 1;
  return node_refs_.size() - 1;
}

std::size_t ShardedScenario::add_nodes(const NodeSpec& base, std::size_t count,
                                       const NodePlacementFn& placement) {
  const std::size_t first = node_refs_.size();
  NodeSpec spec;
  for (std::size_t i = 0; i < count; ++i) {
    spec = base;
    if (placement) placement(i, spec);
    add_node(spec);
  }
  return first;
}

node::EdgeNode& ShardedScenario::node(std::size_t index) {
  const EntityRef ref = node_refs_[index];
  return domains_[ref.domain].nodes.nodes[ref.index];
}

const NodeSpec& ShardedScenario::node_spec(std::size_t index) const {
  const EntityRef ref = node_refs_[index];
  return domains_[ref.domain].nodes.specs[ref.index];
}

NodeId ShardedScenario::node_id(std::size_t index) const {
  const EntityRef ref = node_refs_[index];
  return domains_[ref.domain].nodes.hosts[ref.index];
}

void ShardedScenario::start_node(std::size_t index) {
  const EntityRef ref = node_refs_[index];
  Domain& d = domains_[ref.domain];
  d.hosts.set_alive(d.nodes.hosts[ref.index], true);
  d.nodes.nodes[ref.index].start();
}

void ShardedScenario::stop_node(std::size_t index, bool graceful) {
  const EntityRef ref = node_refs_[index];
  Domain& d = domains_[ref.domain];
  d.nodes.nodes[ref.index].stop(graceful);
  d.hosts.set_alive(d.nodes.hosts[ref.index], false);
}

void ShardedScenario::schedule_node_start(std::size_t index, SimTime at) {
  const EntityRef ref = node_refs_[index];
  domains_[ref.domain].sim.schedule_at(at, [this, index] {
    start_node(index);
  });
}

void ShardedScenario::schedule_node_stop(std::size_t index, SimTime at,
                                         bool graceful) {
  const EntityRef ref = node_refs_[index];
  domains_[ref.domain].sim.schedule_at(at, [this, index, graceful] {
    stop_node(index, graceful);
  });
}

void ShardedScenario::schedule_at_node(std::size_t index, SimTime at,
                                       std::function<void(node::EdgeNode&)> fn) {
  const EntityRef ref = node_refs_[index];
  domains_[ref.domain].sim.schedule_at(
      at, [this, index, fn = std::move(fn)] { fn(node(index)); });
}

void ShardedScenario::set_route(NodeId id, bool routed) {
  if (routed) {
    unrouted_.erase(id);
  } else {
    unrouted_.insert(id);
  }
}

net::NodeApi* ShardedScenario::node_api_for(std::uint32_t domain, NodeId id) {
  if (unrouted_.count(id) != 0) return nullptr;
  Domain& d = domains_[domain];
  const auto cached = d.stub_cache.find(id);
  if (cached != d.stub_cache.end()) return cached->second;
  const auto it = node_index_by_id_.find(id);
  if (it == node_index_by_id_.end()) return nullptr;
  const EntityRef ref = node_refs_[it->second];
  net::NodeApi* api;
  if (ref.domain == domain) {
    api = &d.nodes.stubs[ref.index];
  } else {
    // Rpc rides THIS domain's fabric (the caller's shard samples the
    // delay); the server closure ships to the owner's domain, where the
    // node object actually runs.
    Domain& owner = domains_[ref.domain];
    d.remote_stubs.emplace_back(*d.fabric, owner.nodes.nodes[ref.index],
                                owner.nodes.hosts[ref.index],
                                config_.base.timeouts,
                                config_.base.wire_sizes);
    api = &d.remote_stubs.back();
  }
  d.stub_cache[id] = api;
  return api;
}

client::NodeResolver ShardedScenario::resolver(std::uint32_t domain) {
  return [this, domain](NodeId id) -> net::NodeApi* {
    return node_api_for(domain, id);
  };
}

std::size_t ShardedScenario::add_edge_client(const ClientSpot& spot,
                                             client::ClientConfig config) {
  const HostId host{next_host_++};
  const std::uint32_t dom = domain_of_position(spot.position);
  host_domain_.push_back(dom);
  router_.set_shard(host, dom);
  Domain& d = domains_[dom];
  d.hosts.set_alive(host, true);
  register_position(host, spot.position, spot.tier, 0.0, spot.network_tag);

  config.id = host;
  if (config.geohash.empty()) config.geohash = geohash_of(spot.position);
  if (config.network_tag.empty()) config.network_tag = spot.network_tag;

  const std::size_t local =
      d.clients.emplace(spot, host, d.scheduler, *d.manager_stub,
                        resolver(dom), std::move(config));
  if (d.trace) {
    d.clients.clients[local].set_observability(d.trace.get(),
                                               d.metrics.get());
  }
  client_refs_.push_back(EntityRef{dom, static_cast<std::uint32_t>(local)});
  return client_refs_.size() - 1;
}

std::size_t ShardedScenario::add_edge_clients(const ClientSpotFn& spot_fn,
                                              const ClientConfigFn& config_fn,
                                              std::size_t count) {
  const std::size_t first = client_refs_.size();
  for (std::size_t i = 0; i < count; ++i) {
    add_edge_client(spot_fn(i), config_fn(i));
  }
  return first;
}

client::EdgeClient& ShardedScenario::edge_client(std::size_t index) {
  const EntityRef ref = client_refs_[index];
  return domains_[ref.domain].clients.clients[ref.index];
}

void ShardedScenario::schedule_at_client(
    std::size_t index, SimTime at,
    std::function<void(client::EdgeClient&)> fn) {
  const EntityRef ref = client_refs_[index];
  domains_[ref.domain].sim.schedule_at(
      at, [this, index, fn = std::move(fn)] { fn(edge_client(index)); });
}

void ShardedScenario::cut_link(HostId a, HostId b, SimTime from,
                               SimTime until) {
  for (Domain& d : domains_) d.faults.cut_link(a, b, from, until);
}

void ShardedScenario::partition(HostId a, HostId b, SimTime from,
                                SimTime until) {
  for (Domain& d : domains_) d.faults.partition(a, b, from, until);
}

void ShardedScenario::slow_link(HostId a, HostId b, double factor,
                                SimTime from, SimTime until) {
  min_slow_factor_ = std::min(min_slow_factor_, factor);
  for (Domain& d : domains_) d.faults.slow_link(a, b, factor, from, until);
}

void ShardedScenario::isolate_host(HostId host, SimTime from, SimTime until) {
  for (Domain& d : domains_) d.faults.isolate_host(host, from, until);
}

bool ShardedScenario::cross_domain_pairs_exist() const {
  if (domains_.size() < 2) return false;
  const std::uint32_t first = host_domain_.empty() ? 0 : host_domain_[0];
  for (const std::uint32_t dom : host_domain_) {
    if (dom != first) return true;
  }
  return false;
}

SimDuration ShardedScenario::lookahead() const {
  const bool cross = cross_domain_pairs_exist();
  if (!cross && !config_.force_windows) return kHugeWindow;

  const net::NetworkModel& model = *model_;
  double min_owd_us = 1e30;
  if (next_host_ <= kExactLookaheadHosts) {
    // Exact: minimum base one-way delay over every relevant pair. With
    // force_windows and no cross pair, every pair is "relevant" so the
    // window still has a real floor.
    for (std::uint32_t a = 0; a < next_host_; ++a) {
      for (std::uint32_t b = a + 1; b < next_host_; ++b) {
        if (cross && host_domain_[a] == host_domain_[b]) continue;
        const double owd_us =
            static_cast<double>(model.base_rtt(HostId{a}, HostId{b})) / 2.0;
        min_owd_us = std::min(min_owd_us, owd_us);
      }
    }
  } else if (dynamic_cast<const net::GeoNetwork*>(&model) != nullptr) {
    // Tier bound: rtt >= 0.25 * (2*lm_a + 2*lm_b) even for well-peered
    // pairs, so owd >= 0.5 * min last-mile latency across the fleet.
    min_owd_us = 0.5 * min_last_mile_ms_ * 1000.0;
  } else {
    // MatrixNetwork without exposed mutators: every pair sits at the
    // default rtt.
    min_owd_us = default_rtt_ms_ * 1000.0 / 2.0;
  }
  if (min_owd_us >= 1e30) return kHugeWindow;  // no relevant pair at all

  // Deterministic jitter is clamped at +/- kDetJitterZClamp sigma, so the
  // factor never drops below exp(-clamp * sigma); slow_link factors < 1
  // (never injected by the stock harnesses, but legal) shrink the floor
  // further.
  const double jitter_floor =
      std::exp(-net::SimNetwork::kDetJitterZClamp * model.jitter_sigma());
  const double slow_floor = std::min(1.0, min_slow_factor_);
  const auto ticks = static_cast<SimDuration>(
      min_owd_us * jitter_floor * slow_floor);
  if (ticks <= 0) {
    throw std::runtime_error(
        "ShardedScenario::lookahead: the cross-shard delay floor is below "
        "one tick — this topology cannot be sharded conservatively");
  }
  return ticks;
}

void ShardedScenario::run_until(SimTime horizon) {
  SimDuration window = lookahead();
  if (config_.window > 0) window = std::min(window, config_.window);
  last_window_ = window;
  const std::size_t count = domains_.size();
  while (cursor_ < horizon) {
    const SimTime w_end =
        (horizon - cursor_ > window) ? cursor_ + window : horizon;
    // Envelopes posted during the previous window arrive at or after its
    // start + lookahead >= this window's start; flushing here (before the
    // window runs) therefore never injects into executed time.
    router_.flush(cursor_);
    // Half-open [cursor_, w_end): run_until is inclusive, so stop one tick
    // short — except at the horizon, which the sequential contract
    // includes. Cross-shard arrivals land at >= w_end, so an arrival at
    // exactly w_end still precedes every w_end event on the destination
    // (deliveries beat events at equal times; none have run yet).
    const SimTime stop = (w_end == horizon) ? horizon : w_end - 1;
    ++windows_;
    pool_->for_each(count, [this, stop](std::size_t i) {
      Domain& d = domains_[i];
      const std::uint64_t before = d.sim.events_processed();
      d.sim.run_until(stop);
      if (d.sim.events_processed() == before) ++d.stalled_windows;
    });
    cursor_ = w_end;
  }
}

FleetStats ShardedScenario::fleet_stats() const {
  FleetStatsBuilder builder;
  // Global add order, so the percentile input sequence is identical for
  // every shard count.
  for (const EntityRef ref : client_refs_) {
    builder.add(domains_[ref.domain].clients.clients[ref.index]);
  }
  return builder.finish();
}

obs::MetricsSnapshot ShardedScenario::metrics_snapshot() const {
  obs::MetricsSnapshot merged;
  for (const Domain& d : domains_) {
    if (d.metrics) merged.merge(d.metrics->snapshot());
  }
  return merged;
}

std::vector<obs::TraceEvent> ShardedScenario::canonical_trace() const {
  std::vector<const std::vector<obs::TraceEvent>*> parts;
  parts.reserve(domains_.size());
  for (const Domain& d : domains_) {
    if (d.trace) parts.push_back(&d.trace->events());
  }
  if (parts.empty()) return {};
  return obs::merge_shard_traces(parts, manager_host_);
}

void ShardedScenario::require_nonvacuous_run() const {
  if (client_refs_.empty()) {
    throw std::runtime_error(
        "vacuous scenario: no edge clients were ever added");
  }
  bool any_sender = false;
  std::uint64_t frames_sent = 0;
  for (const EntityRef ref : client_refs_) {
    const auto& client = domains_[ref.domain].clients.clients[ref.index];
    any_sender = any_sender || client.config().send_frames;
    frames_sent += client.stats().frames_sent;
  }
  if (any_sender && frames_sent == 0) {
    throw std::runtime_error(
        "vacuous scenario: frame-sending clients exist but zero frames were "
        "sent over the whole run");
  }
}

ShardStats ShardedScenario::shard_stats() const {
  ShardStats out;
  out.events_per_domain.reserve(domains_.size());
  for (const Domain& d : domains_) {
    out.events_per_domain.push_back(d.sim.events_processed());
    out.stalled_domain_windows += d.stalled_windows;
  }
  out.windows = windows_;
  out.cross_shard_messages = router_.messages_routed();
  out.window_length = last_window_;
  return out;
}

}  // namespace eden::harness
