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
// The manager (and the standby) sit in a well-connected datacenter
// position.
constexpr geo::GeoPoint kManagerPosition{44.9778, -93.2650};

// FNV-1a, the hash behind both shard placement and network-tag ISPs.
std::uint32_t fnv1a(const std::string& s) {
  std::uint32_t h = 2166136261u;
  for (const char c : s) h = (h ^ static_cast<std::uint8_t>(c)) * 16777619u;
  return h;
}
}  // namespace

ShardedScenario::ModelFactory ShardedScenario::builtin_model(
    NetKind kind, double default_rtt_ms, double default_bw_mbps,
    double jitter_sigma) {
  return [=](sim::Clock&) -> std::unique_ptr<net::NetworkModel> {
    if (kind == NetKind::kGeo) {
      return std::make_unique<net::GeoNetwork>(jitter_sigma);
    }
    return std::make_unique<net::MatrixNetwork>(default_rtt_ms,
                                                default_bw_mbps, jitter_sigma);
  };
}

ShardedScenario::ShardedScenario(ShardedConfig config, NetKind kind,
                                 double default_rtt_ms,
                                 double default_bw_mbps, double jitter_sigma)
    : ShardedScenario(std::move(config),
                      builtin_model(kind, default_rtt_ms, default_bw_mbps,
                                    jitter_sigma),
                      default_rtt_ms, /*deterministic=*/true) {}

ShardedScenario::ShardedScenario(const ScenarioConfig& config,
                                 const ModelFactory& factory)
    : ShardedScenario(ShardedConfig{.base = config}, factory,
                      /*default_rtt_ms=*/0.0, /*deterministic=*/false) {}

ShardedScenario::ShardedScenario(ShardedConfig config,
                                 const ModelFactory& factory,
                                 double default_rtt_ms, bool deterministic)
    : config_(std::move(config)), default_rtt_ms_(default_rtt_ms) {
  const unsigned shards = std::max(1u, config_.shards);
  if (config_.base.standby.enabled && shards > 1) {
    throw std::invalid_argument(
        "ShardedScenario: a warm standby needs exactly one domain");
  }
  pool_ = std::make_unique<WindowPool>(
      std::max(1u, resolve_thread_count(config_.threads)));
  for (unsigned s = 0; s < shards; ++s) domains_.emplace_back();
  // One model for every domain: lookups are const and write nothing, so
  // concurrent windows can share it; hosts are added only between windows.
  model_ = factory(domains_[0].scheduler);
  const Rng rng(config_.base.seed);
  for (Domain& d : domains_) {
    d.fabric = std::make_unique<net::SimNetwork>(d.sim, *model_, d.hosts,
                                                 rng.fork("fabric"));
    const net::ShardRouter::ShardId id = router_.add_shard(d.fabric.get(),
                                                           &d.sim);
    if (deterministic) {
      // Same seed everywhere: a message's jitter must not depend on which
      // domain sampled it.
      d.fabric->enable_deterministic_delivery(config_.base.seed);
      d.fabric->set_shard_router(&router_, id);
    }
  }

  // Manager: always domain 0, host 0.
  manager_host_ = add_host(0, kManagerPosition, net::AccessTier::kLocalZone,
                           /*alive=*/true);
  manager_ = make_manager();
  route_ = ManagerRoute{manager_host_, manager_.get()};
  for (Domain& d : domains_) {
    d.manager_stub.emplace(*d.fabric, route_, ClientId{},
                           config_.base.timeouts, config_.base.wire_sizes);
  }
  if (config_.base.standby.enabled) build_standby();
  if (config_.base.trace) enable_observability();
}

std::unique_ptr<manager::CentralManager> ShardedScenario::make_manager() {
  auto manager = std::make_unique<manager::CentralManager>(
      domains_[0].scheduler, config_.base.manager_policy,
      config_.base.heartbeat_ttl);
  if (config_.base.load_feedback) {
    manager::OverloadPolicy policy = config_.base.overload;
    policy.enabled = true;
    manager->set_overload_policy(policy);
  }
  return manager;
}

void ShardedScenario::build_standby() {
  const StandbyConfig& standby = config_.base.standby;
  Domain& d = domains_[0];
  journal_backend_ = std::make_unique<journal::MemoryBackend>();
  manager_journal_ = std::make_unique<journal::ManagerJournal>(
      *journal_backend_, &d.scheduler, standby.journal);
  manager_->set_mutation_sink(manager_journal_.get());
  // The standby host comes right after the primary, before any node or
  // client — a fixed address clients can re-resolve to.
  standby_host_ = add_host(0, kManagerPosition, net::AccessTier::kLocalZone,
                           /*alive=*/true);
  standby_manager_ = make_manager();
  standby_ = std::make_unique<journal::StandbyManager>(
      *journal_backend_, *standby_manager_, standby.standby_options);
  standby_tail_active_ = true;
  schedule_standby_tail();
}

void ShardedScenario::schedule_standby_tail() {
  domains_[0].sim.schedule_after(config_.base.standby.tail_period, [this] {
    if (!standby_tail_active_ || takeover_done_) return;
    standby_->tail();
    schedule_standby_tail();
  });
}

void ShardedScenario::schedule_manager_crash(SimTime at,
                                             journal::CrashPoint point,
                                             SimDuration takeover_delay) {
  if (standby_ == nullptr) {
    throw std::logic_error(
        "schedule_manager_crash requires StandbyConfig::enabled");
  }
  takeover_delay_ = takeover_delay;
  domains_[0].sim.schedule_at(at, [this, point] { on_crash_trigger(point); });
}

void ShardedScenario::on_crash_trigger(journal::CrashPoint point) {
  if (crashed_) return;
  if (point == journal::CrashPoint::kAfterAppend) {
    crash_primary(point);
    return;
  }
  // Arm the journal: the crash fires inside the next group commit, so
  // mid-batch / torn-tail surgery hits a batch that really was in flight.
  manager_journal_->arm_crash(point, [this, point] { crash_primary(point); });
  // Idle-registry fallback: if no commit arrives within a second, flush
  // whatever is staged and die — the crash must not silently not happen.
  sim::Simulator& sim = domains_[0].sim;
  sim.schedule_after(sec(1.0), [this, point, &sim] {
    if (!crashed_) {
      manager_journal_->flush_now(sim.now());
      crash_primary(point);
    }
  });
}

void ShardedScenario::crash_primary(journal::CrashPoint point) {
  if (crashed_) return;
  crashed_ = true;
  Domain& d = domains_[0];
  const SimTime now = d.sim.now();
  if (point == journal::CrashPoint::kAfterAppend) {
    manager_journal_->flush_now(now);
  }
  manager_journal_->disable();
  manager_->set_mutation_sink(nullptr);
  d.hosts.set_alive(manager_host_, false);
  // Killing the host drops arrivals; the isolate window also drops the
  // dead primary's own in-flight sends (e.g. the heartbeat ack a crashing
  // commit would otherwise still emit) at send time.
  isolate_host(manager_host_, now, std::numeric_limits<SimTime>::max());
  if (d.trace) {
    d.trace->record({now, obs::EventKind::kManagerCrash, manager_host_, {}, 0,
                     static_cast<double>(static_cast<int>(point))});
  }
  d.sim.schedule_after(takeover_delay_, [this] { do_takeover(); });
}

void ShardedScenario::do_takeover() {
  Domain& d = domains_[0];
  const SimTime now = d.sim.now();
  // Witness "expected" side first: a fresh, chaos-free one-shot replay of
  // the surviving journal bytes — computed before take_over() mutates the
  // backend (torn-tail truncation cannot change the clean prefix).
  std::string bytes;
  journal_backend_->read_all(bytes);
  const journal::ScanResult scanned = journal::scan(bytes);
  journal::RegistryImage expected;
  for (const journal::JournalRecord& r : scanned.records) expected.apply(r);
  expected_dump_ = expected.canonical_dump();

  const journal::TakeoverResult result = standby_->take_over(now);
  standby_dump_ = result.dump;
  recovered_lsn_ = result.recovered_lsn;

  // The standby adopts journaling where the primary stopped: same log,
  // next LSN strictly above everything recovered.
  standby_journal_ = std::make_unique<journal::ManagerJournal>(
      *journal_backend_, &d.scheduler, config_.base.standby.journal,
      result.recovered_lsn + 1);
  if (d.trace) {
    standby_journal_->set_observability(d.trace.get(), standby_host_);
    d.trace->record({now, obs::EventKind::kManagerTakeover, standby_host_,
                     manager_host_, 0, static_cast<double>(recovered_lsn_)});
  }
  standby_manager_->set_mutation_sink(standby_journal_.get());
  takeover_done_ = true;
  // Re-resolve every stub and link: from here on, clients and nodes talk
  // to the standby.
  route_ = ManagerRoute{standby_host_, standby_manager_.get()};
}

void ShardedScenario::enable_observability() {
  if (domains_[0].trace) return;
  for (Domain& d : domains_) {
    d.trace = std::make_unique<obs::TraceRecorder>();
    d.metrics = std::make_unique<obs::MetricsRegistry>();
    for (auto& node : d.nodes.nodes) node.set_observability(d.trace.get());
    for (auto& client : d.clients.clients) {
      client.set_observability(d.trace.get(), d.metrics.get());
    }
  }
  Domain& d0 = domains_[0];
  manager_->set_observability(d0.trace.get(), d0.metrics.get());
  if (standby_manager_) {
    standby_manager_->set_observability(d0.trace.get(), d0.metrics.get());
  }
  if (manager_journal_) {
    manager_journal_->set_observability(d0.trace.get(), manager_host_);
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
  // Hash of the shard cell (a geohash prefix coarser than the protocol
  // precision): co-located hosts always land in the same cell, hence the
  // same shard, so zero-distance pairs never cross a shard boundary.
  return fnv1a(geo::geohash_encode(position, config_.cell_precision)) %
         static_cast<std::uint32_t>(domains_.size());
}

HostId ShardedScenario::add_host(std::uint32_t domain,
                                 const geo::GeoPoint& position,
                                 net::AccessTier tier, bool alive,
                                 double extra_rtt_ms,
                                 const std::string& network_tag) {
  const HostId host{next_host_++};
  host_domain_.push_back(domain);
  router_.set_shard(host, domain);
  if (alive) domains_[domain].hosts.set_alive(host, true);
  min_last_mile_ms_ =
      std::min(min_last_mile_ms_, net::GeoNetwork::tier_latency_ms(tier));
  if (auto* geo_net = geo_network()) {
    // Network tags double as ISP groups: same tag => same access provider
    // => potentially well-peered paths the manager's affinity hint can
    // surface.
    const int isp = network_tag.empty()
                        ? -1
                        : static_cast<int>(fnv1a(network_tag) & 0x7fffffff);
    geo_net->add_host(host, position, tier, isp);
    if (extra_rtt_ms > 0) geo_net->set_extra_rtt_ms(host, extra_rtt_ms);
  }
  return host;
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
  const std::uint32_t dom = domain_of_position(spec.position);
  const HostId host = add_host(dom, spec.position, spec.tier, /*alive=*/false,
                               spec.extra_rtt_ms, spec.network_tag);
  Domain& d = domains_[dom];
  const std::size_t local = d.nodes.emplace(
      spec, host, *d.fabric, route_, d.scheduler, make_node_config(spec, host),
      config_.base.timeouts, config_.base.wire_sizes);
  node::EdgeNode& node = d.nodes.nodes[local];
  if (d.trace) node.set_observability(d.trace.get());
  node_refs_.push_back(EntityRef{dom, static_cast<std::uint32_t>(local)});
  if (node_index_by_id_.size() <= host.value) {
    node_index_by_id_.resize(host.value + 1, kNoNode);
  }
  node_index_by_id_[host.value] = node_refs_.size() - 1;
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

std::optional<std::size_t> ShardedScenario::node_index(NodeId id) const {
  if (id.value >= node_index_by_id_.size() ||
      node_index_by_id_[id.value] == kNoNode) {
    return std::nullopt;
  }
  return node_index_by_id_[id.value];
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
  if (!id.valid()) return;
  if (unrouted_.size() <= id.value) unrouted_.resize(id.value + 1, 0);
  unrouted_[id.value] = routed ? 0 : 1;
}

net::NodeApi* ShardedScenario::node_api_for(std::uint32_t domain, NodeId id) {
  if (id.value < unrouted_.size() && unrouted_[id.value] != 0) return nullptr;
  Domain& d = domains_[domain];
  if (id.value < d.stub_cache.size() && d.stub_cache[id.value] != nullptr) {
    return d.stub_cache[id.value];
  }
  const std::optional<std::size_t> index = node_index(id);
  if (!index) return nullptr;
  const EntityRef ref = node_refs_[*index];
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
  if (d.stub_cache.size() <= id.value) d.stub_cache.resize(id.value + 1);
  d.stub_cache[id.value] = api;
  return api;
}

client::NodeResolver ShardedScenario::resolver(std::uint32_t domain) {
  return [this, domain](NodeId id) -> net::NodeApi* {
    return node_api_for(domain, id);
  };
}

client::EdgeClient& ShardedScenario::add_edge_client(
    const ClientSpot& spot, client::ClientConfig config) {
  const std::uint32_t dom = domain_of_position(spot.position);
  const HostId host = add_host(dom, spot.position, spot.tier, /*alive=*/true,
                               0.0, spot.network_tag);
  config.id = host;
  if (config.geohash.empty()) config.geohash = geohash_of(spot.position);
  if (config.network_tag.empty()) config.network_tag = spot.network_tag;

  Domain& d = domains_[dom];
  const std::size_t local =
      d.clients.emplace(spot, host, d.scheduler, *d.manager_stub,
                        resolver(dom), std::move(config));
  client::EdgeClient& client = d.clients.clients[local];
  if (d.trace) client.set_observability(d.trace.get(), d.metrics.get());
  client_refs_.push_back(EntityRef{dom, static_cast<std::uint32_t>(local)});
  return client;
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

baselines::StaticClient& ShardedScenario::add_static_client(
    const ClientSpot& spot, workload::AppProfile app) {
  const std::uint32_t dom = domain_of_position(spot.position);
  const HostId host = add_host(dom, spot.position, spot.tier, /*alive=*/true,
                               0.0, spot.network_tag);
  Domain& d = domains_[dom];
  const std::size_t local = d.statics.emplace(spot, host, d.scheduler,
                                              resolver(dom), std::move(app));
  return d.statics.clients[local];
}

void ShardedScenario::attach_faults() {
  for (Domain& d : domains_) d.fabric->set_fault_injector(&d.faults);
}

void ShardedScenario::cut_link(HostId a, HostId b, SimTime from,
                               SimTime until) {
  attach_faults();
  for (Domain& d : domains_) d.faults.cut_link(a, b, from, until);
}

void ShardedScenario::partition(HostId a, HostId b, SimTime from,
                                SimTime until) {
  attach_faults();
  for (Domain& d : domains_) d.faults.partition(a, b, from, until);
}

void ShardedScenario::slow_link(HostId a, HostId b, double factor,
                                SimTime from, SimTime until) {
  attach_faults();
  min_slow_factor_ = std::min(min_slow_factor_, factor);
  for (Domain& d : domains_) d.faults.slow_link(a, b, factor, from, until);
}

void ShardedScenario::isolate_host(HostId host, SimTime from, SimTime until) {
  attach_faults();
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

std::vector<baselines::NodeInfo> ShardedScenario::node_infos() const {
  std::vector<baselines::NodeInfo> out;
  out.reserve(node_count());
  for (std::size_t i = 0; i < node_count(); ++i) {
    const NodeSpec& spec = node_spec(i);
    baselines::NodeInfo info;
    info.id = node_id(i);
    info.name = spec.name;
    info.position = spec.position;
    info.cores = spec.cores;
    info.base_frame_ms = spec.base_frame_ms;
    info.dedicated = spec.dedicated;
    info.is_cloud = spec.is_cloud;
    info.burstable = spec.burstable;
    info.burst_baseline = spec.burst_baseline;
    info.contention_alpha = spec.contention_alpha;
    out.push_back(std::move(info));
  }
  return out;
}

baselines::PredictInput ShardedScenario::predict_input(
    const std::vector<HostId>& clients, double fps, double frame_bytes) const {
  baselines::PredictInput input;
  input.nodes = node_infos();
  input.fps = fps;
  for (const HostId client : clients) {
    std::vector<double> rtt_row;
    std::vector<double> trans_row;
    rtt_row.reserve(node_count());
    trans_row.reserve(node_count());
    for (std::size_t i = 0; i < node_count(); ++i) {
      const HostId node_host = node_id(i);
      rtt_row.push_back(to_ms(model_->base_rtt(client, node_host)));
      trans_row.push_back(
          to_ms(model_->transfer_delay(client, node_host, frame_bytes)));
    }
    input.rtt_ms.push_back(std::move(rtt_row));
    input.trans_ms.push_back(std::move(trans_row));
  }
  return input;
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
