#include "harness/scenario.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace eden::harness {

namespace {

std::unique_ptr<net::NetworkModel> make_builtin_model(NetKind kind,
                                                      double default_rtt_ms,
                                                      double default_bw_mbps,
                                                      double jitter_sigma) {
  if (kind == NetKind::kGeo) {
    return std::make_unique<net::GeoNetwork>(jitter_sigma);
  }
  return std::make_unique<net::MatrixNetwork>(default_rtt_ms, default_bw_mbps,
                                              jitter_sigma);
}

}  // namespace

Scenario::Scenario(ScenarioConfig config, NetKind kind, double default_rtt_ms,
                   double default_bw_mbps, double jitter_sigma)
    : Scenario(config, [&](sim::Clock&) {
        return make_builtin_model(kind, default_rtt_ms, default_bw_mbps,
                                  jitter_sigma);
      }) {}

Scenario::Scenario(ScenarioConfig config, const ModelFactory& factory)
    : config_(config), scheduler_(simulator_), rng_(config.seed) {
  model_ = factory(scheduler_);
  fabric_ = std::make_unique<net::SimNetwork>(simulator_, *model_, hosts_,
                                              rng_.fork("fabric"));
  manager_host_ = allocate_host();
  hosts_.set_alive(manager_host_, true);
  // The manager sits in a well-connected datacenter position.
  register_position(manager_host_, geo::GeoPoint{44.9778, -93.2650},
                    net::AccessTier::kLocalZone);
  manager_ = std::make_unique<manager::CentralManager>(
      scheduler_, config_.manager_policy, config_.heartbeat_ttl);
  if (config_.load_feedback) {
    manager::OverloadPolicy policy = config_.overload;
    policy.enabled = true;
    manager_->set_overload_policy(policy);
  }
  manager_stub_.emplace(*fabric_, *manager_, manager_host_, ClientId{},
                        config_.timeouts, config_.wire_sizes);
  route_ = ManagerRoute{manager_host_, manager_.get()};
  manager_stub_->set_route(&route_);
  if (config_.standby.enabled) build_standby();
  if (config_.trace) enable_observability();
}

void Scenario::build_standby() {
  journal_backend_ = std::make_unique<journal::MemoryBackend>();
  manager_journal_ = std::make_unique<journal::ManagerJournal>(
      *journal_backend_, &scheduler_, config_.standby.journal);
  manager_->set_mutation_sink(manager_journal_.get());
  // The standby host comes right after the primary, before any node or
  // client — a fixed address clients can re-resolve to.
  standby_host_ = allocate_host();
  hosts_.set_alive(standby_host_, true);
  register_position(standby_host_, geo::GeoPoint{44.9778, -93.2650},
                    net::AccessTier::kLocalZone);
  standby_manager_ = std::make_unique<manager::CentralManager>(
      scheduler_, config_.manager_policy, config_.heartbeat_ttl);
  if (config_.load_feedback) {
    manager::OverloadPolicy policy = config_.overload;
    policy.enabled = true;
    standby_manager_->set_overload_policy(policy);
  }
  standby_ = std::make_unique<journal::StandbyManager>(
      *journal_backend_, *standby_manager_, config_.standby.standby_options);
  standby_tail_active_ = true;
  schedule_standby_tail();
}

void Scenario::schedule_standby_tail() {
  simulator_.schedule_after(config_.standby.tail_period, [this] {
    if (!standby_tail_active_ || takeover_done_) return;
    standby_->tail();
    schedule_standby_tail();
  });
}

void Scenario::schedule_manager_crash(SimTime at, journal::CrashPoint point,
                                      SimDuration takeover_delay) {
  if (standby_ == nullptr) {
    throw std::logic_error(
        "schedule_manager_crash requires StandbyConfig::enabled");
  }
  takeover_delay_ = takeover_delay;
  simulator_.schedule_at(at, [this, point] { on_crash_trigger(point); });
}

void Scenario::on_crash_trigger(journal::CrashPoint point) {
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
  simulator_.schedule_after(sec(1.0), [this, point] {
    if (!crashed_) {
      manager_journal_->flush_now(simulator_.now());
      crash_primary(point);
    }
  });
}

void Scenario::crash_primary(journal::CrashPoint point) {
  if (crashed_) return;
  crashed_ = true;
  const SimTime now = simulator_.now();
  if (point == journal::CrashPoint::kAfterAppend) {
    manager_journal_->flush_now(now);
  }
  manager_journal_->disable();
  manager_->set_mutation_sink(nullptr);
  hosts_.set_alive(manager_host_, false);
  // Killing the host drops arrivals; the isolate window also drops the
  // dead primary's own in-flight sends (e.g. the heartbeat ack a crashing
  // commit would otherwise still emit) at send time.
  isolate_host(manager_host_, now, std::numeric_limits<SimTime>::max());
  if (trace_recorder_) {
    trace_recorder_->record({now, obs::EventKind::kManagerCrash, manager_host_,
                             {}, 0, static_cast<double>(static_cast<int>(point))});
  }
  simulator_.schedule_after(takeover_delay_, [this] { do_takeover(); });
}

void Scenario::do_takeover() {
  const SimTime now = simulator_.now();
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
      *journal_backend_, &scheduler_, config_.standby.journal,
      result.recovered_lsn + 1);
  if (trace_recorder_) {
    standby_journal_->set_observability(trace_recorder_.get(), standby_host_);
    trace_recorder_->record({now, obs::EventKind::kManagerTakeover,
                             standby_host_, manager_host_, 0,
                             static_cast<double>(recovered_lsn_)});
  }
  standby_manager_->set_mutation_sink(standby_journal_.get());
  takeover_done_ = true;
  // Re-resolve every stub and link: from here on, clients and nodes talk
  // to the standby.
  route_ = ManagerRoute{standby_host_, standby_manager_.get()};
}

void Scenario::enable_observability() {
  if (trace_recorder_) return;
  trace_recorder_ = std::make_unique<obs::TraceRecorder>();
  metrics_registry_ = std::make_unique<obs::MetricsRegistry>();
  manager_->set_observability(trace_recorder_.get(), metrics_registry_.get());
  if (standby_manager_) {
    standby_manager_->set_observability(trace_recorder_.get(),
                                        metrics_registry_.get());
  }
  if (manager_journal_) {
    manager_journal_->set_observability(trace_recorder_.get(), manager_host_);
  }
  for (auto& node : nodes_.nodes) {
    node.set_observability(trace_recorder_.get());
  }
  for (auto& client : edge_clients_.clients) {
    client.set_observability(trace_recorder_.get(), metrics_registry_.get());
  }
}

void Scenario::set_route(NodeId id, bool routed) {
  if (routed) {
    unrouted_.erase(id);
  } else {
    unrouted_.insert(id);
  }
}

net::FaultInjector& Scenario::faults() {
  fabric_->set_fault_injector(&faults_);
  return faults_;
}

void Scenario::cut_link(HostId a, HostId b, SimTime from, SimTime until) {
  faults().cut_link(a, b, from, until);
}

void Scenario::partition(HostId a, HostId b, SimTime from, SimTime until) {
  faults().partition(a, b, from, until);
}

void Scenario::slow_link(HostId a, HostId b, double factor, SimTime from,
                         SimTime until) {
  faults().slow_link(a, b, factor, from, until);
}

void Scenario::isolate_host(HostId host, SimTime from, SimTime until) {
  faults().isolate_host(host, from, until);
}

HostId Scenario::allocate_host() { return HostId{next_host_++}; }

void Scenario::register_position(HostId host, const geo::GeoPoint& position,
                                 net::AccessTier tier, double extra_rtt_ms,
                                 const std::string& network_tag) {
  if (auto* geo_net = dynamic_cast<net::GeoNetwork*>(model_.get())) {
    // Network tags double as ISP groups: same tag => same access provider
    // => potentially well-peered paths the manager's affinity hint can
    // surface.
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
}

net::GeoNetwork* Scenario::geo_network() {
  return dynamic_cast<net::GeoNetwork*>(model_.get());
}

net::MatrixNetwork* Scenario::matrix_network() {
  return dynamic_cast<net::MatrixNetwork*>(model_.get());
}

std::string Scenario::geohash_of(const geo::GeoPoint& position) const {
  return geo::geohash_encode(position, config_.geohash_precision);
}

node::EdgeNodeConfig Scenario::make_node_config(const NodeSpec& spec,
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
  node_config.load_feedback = config_.load_feedback;
  node_config.executor.shed_on_throttle = config_.load_feedback;
  node_config.executor.cores = spec.cores;
  node_config.executor.base_frame_ms = spec.base_frame_ms;
  node_config.executor.contention_alpha = spec.contention_alpha;
  node_config.executor.burstable = spec.burstable;
  node_config.executor.burst_baseline = spec.burst_baseline;
  node_config.executor.initial_credits_core_sec = spec.initial_credits_core_sec;
  node_config.executor.background_load = spec.background_load;
  return node_config;
}

std::size_t Scenario::add_node(const NodeSpec& spec) {
  const HostId host = allocate_host();
  register_position(host, spec.position, spec.tier, spec.extra_rtt_ms,
                    spec.network_tag);
  const std::size_t index = nodes_.emplace(
      spec, host, *fabric_, *manager_, manager_host_, scheduler_,
      make_node_config(spec, host), config_.timeouts, config_.wire_sizes);
  node::EdgeNode& node = nodes_.nodes[index];
  nodes_.links.back().set_route(&route_);
  if (trace_recorder_) node.set_observability(trace_recorder_.get());
  stubs_by_id_[node.id()] = &nodes_.stubs[index];
  node_index_by_id_[node.id()] = index;
  return index;
}

std::size_t Scenario::add_nodes(const NodeSpec& base, std::size_t count,
                                const NodePlacementFn& placement) {
  const std::size_t first = nodes_.size();
  NodeSpec spec;
  for (std::size_t i = 0; i < count; ++i) {
    spec = base;
    if (placement) placement(i, spec);
    add_node(spec);
  }
  return first;
}

net::NodeApi* Scenario::node_api(NodeId id) {
  if (unrouted_.count(id) != 0) return nullptr;
  const auto it = stubs_by_id_.find(id);
  return it == stubs_by_id_.end() ? nullptr : it->second;
}

std::optional<std::size_t> Scenario::node_index(NodeId id) const {
  const auto it = node_index_by_id_.find(id);
  if (it == node_index_by_id_.end()) return std::nullopt;
  return it->second;
}

void Scenario::start_node(std::size_t index) {
  hosts_.set_alive(nodes_.hosts[index], true);
  nodes_.nodes[index].start();
}

void Scenario::stop_node(std::size_t index, bool graceful) {
  nodes_.nodes[index].stop(graceful);
  hosts_.set_alive(nodes_.hosts[index], false);
}

void Scenario::schedule_node_start(std::size_t index, SimTime at) {
  simulator_.schedule_at(at, [this, index] { start_node(index); });
}

void Scenario::schedule_node_stop(std::size_t index, SimTime at, bool graceful) {
  simulator_.schedule_at(at, [this, index, graceful] {
    stop_node(index, graceful);
  });
}

void Scenario::schedule_at_node(std::size_t index, SimTime at,
                                std::function<void(node::EdgeNode&)> fn) {
  simulator_.schedule_at(
      at, [this, index, fn = std::move(fn)] { fn(node(index)); });
}

client::NodeResolver Scenario::resolver() {
  return [this](NodeId id) -> net::NodeApi* { return node_api(id); };
}

client::EdgeClient& Scenario::add_edge_client(const ClientSpot& spot,
                                              client::ClientConfig config) {
  const HostId host = allocate_host();
  hosts_.set_alive(host, true);
  register_position(host, spot.position, spot.tier, 0.0, spot.network_tag);

  config.id = host;
  if (config.geohash.empty()) config.geohash = geohash_of(spot.position);
  if (config.network_tag.empty()) config.network_tag = spot.network_tag;

  const std::size_t index = edge_clients_.emplace(
      spot, host, scheduler_, *manager_stub_, resolver(), std::move(config));
  client::EdgeClient& client = edge_clients_.clients[index];
  if (trace_recorder_) {
    client.set_observability(trace_recorder_.get(), metrics_registry_.get());
  }
  return client;
}

void Scenario::schedule_at_client(std::size_t index, SimTime at,
                                  std::function<void(client::EdgeClient&)> fn) {
  simulator_.schedule_at(
      at, [this, index, fn = std::move(fn)] { fn(edge_client(index)); });
}

std::size_t Scenario::add_edge_clients(const ClientSpotFn& spot_fn,
                                       const ClientConfigFn& config_fn,
                                       std::size_t count) {
  const std::size_t first = edge_clients_.size();
  for (std::size_t i = 0; i < count; ++i) {
    add_edge_client(spot_fn(i), config_fn(i));
  }
  return first;
}

baselines::StaticClient& Scenario::add_static_client(const ClientSpot& spot,
                                                     workload::AppProfile app) {
  const HostId host = allocate_host();
  hosts_.set_alive(host, true);
  register_position(host, spot.position, spot.tier, 0.0, spot.network_tag);
  const std::size_t index =
      static_clients_.emplace(spot, host, scheduler_, resolver(),
                              std::move(app));
  return static_clients_.clients[index];
}

std::vector<baselines::NodeInfo> Scenario::node_infos() const {
  std::vector<baselines::NodeInfo> out;
  out.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const NodeSpec& spec = nodes_.specs[i];
    baselines::NodeInfo info;
    info.id = nodes_.nodes[i].id();
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

baselines::PredictInput Scenario::predict_input(
    const std::vector<HostId>& clients, double fps, double frame_bytes) const {
  baselines::PredictInput input;
  input.nodes = node_infos();
  input.fps = fps;
  for (const HostId client : clients) {
    std::vector<double> rtt_row;
    std::vector<double> trans_row;
    rtt_row.reserve(nodes_.size());
    trans_row.reserve(nodes_.size());
    for (const HostId node_host : nodes_.hosts) {
      rtt_row.push_back(to_ms(model_->base_rtt(client, node_host)));
      trans_row.push_back(
          to_ms(model_->transfer_delay(client, node_host, frame_bytes)));
    }
    input.rtt_ms.push_back(std::move(rtt_row));
    input.trans_ms.push_back(std::move(trans_row));
  }
  return input;
}

void Scenario::require_nonvacuous_run() const {
  if (edge_clients_.empty()) {
    throw std::runtime_error(
        "vacuous scenario: no edge clients were ever added");
  }
  bool any_sender = false;
  std::uint64_t frames_sent = 0;
  for (const auto& client : edge_clients_.clients) {
    any_sender = any_sender || client.config().send_frames;
    frames_sent += client.stats().frames_sent;
  }
  if (any_sender && frames_sent == 0) {
    throw std::runtime_error(
        "vacuous scenario: frame-sending clients exist but zero frames were "
        "sent over the whole run");
  }
}

FleetStats Scenario::fleet_stats() const {
  FleetStatsBuilder builder;
  for (const auto& client : edge_clients_.clients) {
    builder.add(client);
  }
  return builder.finish();
}

}  // namespace eden::harness
