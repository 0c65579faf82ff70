// The three simulated workloads: fleet_steady and churn_failover on the
// sequential harness::Scenario, fleet_sharded on harness::ShardedScenario.
// All three drive EDEN only through the harness's public API and the
// accessors it exposes (manager, nodes, clients, fabric, network model).
//
// Untraced mode reports the end-to-end metrics: set-up and run host time,
// peak RSS, and the simulated frame latency, failure ratio and discovery
// service (queries answered per simulated second, and each client's time
// from start to first attach).
// Traced mode runs the workload untraced twice (the reference), then once
// with ScenarioConfig::trace on, advanced in fixed simulated-time slices
// with one span per call, and finally times each layer's hot public
// function in isolation on the final state.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "alloc_hook.h"
#include "bench.h"
#include "churn/churn.h"
#include "common/rng.h"
#include "geo/geohash.h"
#include "harness/experiments.h"
#include "harness/scenario.h"
#include "harness/sharded_scenario.h"
#include "sim/simulator.h"
#include "spans.h"

namespace edenbench {
namespace {

using eden::Rng;
using eden::SimTime;
using eden::sec;
namespace harness = eden::harness;
namespace net = eden::net;
namespace client = eden::client;

constexpr eden::geo::GeoPoint kMetroCenter{44.9778, -93.2650};  // Minneapolis

enum class Kind { kSteady, kChurn, kSharded };

// Simulated seconds per run_until slice, in every mode.
constexpr double kSliceS = 1.0;

struct Shape {
  int clients{0};
  int nodes{0};         // node slots for churn_failover
  double horizon_s{0};  // simulated; all times are whole slices
  double warmup_s{0};   // client joins; frame_* count frames after it
  double window_s{0};   // final window for the live_frame_* percentiles
};

Shape shape_of(Kind kind, bool tiny) {
  if (tiny) return {200, 20, 8.0, 2.0, 2.0};
  switch (kind) {
    case Kind::kSteady:
    case Kind::kSharded:
      return {10'000, 1'000, 20.0, 5.0, 5.0};
    case Kind::kChurn:
      return {2'000, 200, 60.0, 5.0, 15.0};
  }
  return {};
}

// bench_scale's metro layout: nodes within 45 km and clients within 40 km
// of Minneapolis, two ISPs, a fixed 2 fps AR app. bench_scale.cc keeps it
// inside its own program, so it is restated here.
harness::NodeSpec metro_node_spec(std::size_t index, Rng& rng) {
  harness::NodeSpec spec;
  spec.name = "n" + std::to_string(index);
  spec.position = harness::random_point_near(kMetroCenter, 45.0, rng);
  spec.cores = static_cast<int>(rng.uniform_int(2, 8));
  spec.base_frame_ms = rng.uniform(20.0, 45.0);
  spec.network_tag = (index % 3 == 0) ? "isp-a" : "isp-b";
  return spec;
}

const char* client_tag(std::size_t index) {
  return (index % 2 == 0) ? "isp-a" : "isp-b";
}

client::ClientConfig fleet_client_config() {
  client::ClientConfig config;
  config.top_n = 3;
  config.app.max_fps = 2.0;
  config.app.min_fps = 0.5;
  config.app.adaptive_rate = false;
  return config;
}

constexpr std::size_t kShards = 4;

std::size_t sharded_threads() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1,
                                 kShards);
}

template <typename S>
struct Fleet {
  // Per client: when it starts, and when it first attached to a node
  // (-1 until it has). The client's event hook writes the latter, so it
  // is declared before the scenario and outlives it.
  std::vector<SimTime> started_at;
  std::unique_ptr<SimTime[]> attached_at;
  std::unique_ptr<S> s;
  std::vector<eden::geo::GeoPoint> client_positions;
};

template <typename S>
constexpr bool kSharded = std::is_same_v<S, harness::ShardedScenario>;

// Builds and starts the workload's world. Everything here is set-up time.
template <typename S>
Fleet<S> build(Kind kind, const Shape& shape, std::uint64_t seed,
               bool trace) {
  Fleet<S> fleet;
  harness::ScenarioConfig config;
  config.seed = seed;
  config.trace = trace;
  if (kind == Kind::kChurn) {
    config.load_feedback = true;
    config.standby.enabled = true;
  }
  if constexpr (kSharded<S>) {
    harness::ShardedConfig sharded;
    sharded.base = config;
    sharded.shards = kShards;
    // A WindowPool thread per core, at most one per shard. Host times are
    // process CPU time, which leaves out the workers' waits at barriers.
    sharded.threads = sharded_threads();
    fleet.s = std::make_unique<S>(sharded);
  } else {
    fleet.s = std::make_unique<S>(config);
  }
  S& s = *fleet.s;
  Rng layout = Rng(seed).fork("metro-layout");

  const auto node_count = static_cast<std::size_t>(shape.nodes);
  const std::size_t first_node =
      s.add_nodes(harness::NodeSpec{}, node_count,
                  [&](std::size_t i, harness::NodeSpec& spec) {
                    spec = metro_node_spec(i, layout);
                  });
  if (kind == Kind::kChurn) {
    // §V-D2 churn (Poisson joins, Weibull lifetimes with mean 50 s),
    // scaled so the node slots fill steadily over the whole horizon
    // while ~40% of them are up at t = 0. Every other departure is
    // graceful, so both the deregistration and the TTL-expiry paths run.
    eden::churn::ChurnConfig churn;
    churn.horizon = sec(shape.horizon_s);
    churn.join_period = sec(10.0);
    churn.initial_nodes = node_count * 2 / 5;
    churn.max_nodes = node_count;
    churn.joins_per_period = static_cast<double>(node_count -
                                                 churn.initial_nodes) *
                             10.0 / shape.horizon_s;
    Rng churn_rng = Rng(seed).fork("churn-schedule");
    const auto schedule = eden::churn::generate_churn(churn, churn_rng);
    std::size_t leaves = 0;
    for (const auto& event : schedule.events) {
      if (event.kind == eden::churn::ChurnEventKind::kJoin) {
        s.schedule_node_start(first_node + event.node_index, event.at);
      } else {
        s.schedule_node_stop(first_node + event.node_index, event.at,
                             /*graceful=*/(leaves++ % 2) == 0);
      }
    }
  } else {
    for (std::size_t i = 0; i < node_count; ++i) s.start_node(first_node + i);
  }

  const auto client_count = static_cast<std::size_t>(shape.clients);
  fleet.client_positions.reserve(client_count);
  const std::size_t first_client = s.add_edge_clients(
      [&](std::size_t i) {
        harness::ClientSpot spot;
        spot.name = "u" + std::to_string(i);
        spot.position = harness::random_point_near(kMetroCenter, 40.0, layout);
        spot.network_tag = client_tag(i);
        fleet.client_positions.push_back(spot.position);
        return spot;
      },
      [](std::size_t) { return fleet_client_config(); }, client_count);
  // Joins staggered over the first 5 simulated seconds.
  fleet.started_at.resize(client_count);
  fleet.attached_at = std::make_unique<SimTime[]>(client_count);
  for (std::size_t i = 0; i < client_count; ++i) {
    const SimTime at = eden::msec(5000.0 * static_cast<double>(i) /
                                  static_cast<double>(client_count));
    fleet.started_at[i] = at;
    SimTime* attached = &fleet.attached_at[i];
    *attached = -1;
    s.edge_client(first_client + i)
        .set_event_hook([attached](const client::ClientEvent& event) {
          if (event.kind == client::ClientEvent::Kind::kJoined &&
              *attached < 0) {
            *attached = event.at;
          }
        });
    if constexpr (kSharded<S>) {
      s.schedule_at_client(first_client + i, at,
                           [](client::EdgeClient& c) { c.start(); });
    } else {
      client::EdgeClient& c = s.edge_client(first_client + i);
      s.simulator().schedule_at(at, [&c] { c.start(); });
    }
  }
  return fleet;
}

template <typename S>
std::uint64_t events_of(S& s) {
  if constexpr (kSharded<S>) {
    std::uint64_t total = 0;
    for (const std::uint64_t e : s.shard_stats().events_per_domain) total += e;
    return total;
  } else {
    return s.simulator().events_processed();
  }
}

template <typename S>
std::size_t pending_of(S& s) {
  if constexpr (kSharded<S>) {
    std::size_t total = 0;
    for (std::size_t d = 0; d < s.shard_count(); ++d) {
      total += s.simulator_of(d).pending();
    }
    return total;
  } else {
    return s.simulator().pending();
  }
}

// Simulated outcomes: must repeat exactly at a fixed seed, traced or not.
struct Outcome {
  std::uint64_t events{0};
  std::uint64_t frames_sent{0};
  std::uint64_t frames_ok{0};
  std::uint64_t frames_failed{0};
  double p50_ms{0};
  double p99_ms{0};

  bool operator==(const Outcome&) const = default;
};

template <typename S>
Outcome outcome_of(S& s, const harness::FleetStats& stats) {
  return {events_of(s), stats.totals.frames_sent, stats.totals.frames_ok,
          stats.totals.frames_failed, stats.latency_p50_ms,
          stats.latency_p99_ms};
}

// Frame conservation, per client: every frame sent is ok, failed, or
// still in flight, and no more can be in flight than the frame timeout
// admits at the app's rate.
template <typename S>
bool frames_conserved(S& s) {
  const client::ClientConfig config = fleet_client_config();
  const auto max_in_flight = static_cast<std::uint64_t>(
      std::ceil(config.app.max_fps * eden::to_sec(harness::StubTimeouts{}.frame)) +
      1);
  for (std::size_t i = 0; i < s.edge_client_count(); ++i) {
    const client::ClientStats& st = s.edge_client(i).stats();
    if (st.frames_ok + st.frames_failed > st.frames_sent) return false;
    if (st.frames_sent - st.frames_ok - st.frames_failed > max_in_flight) {
      return false;
    }
  }
  return true;
}

template <typename S>
bool nonvacuous(S& s) {
  try {
    s.require_nonvacuous_run();
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "require_nonvacuous_run: %s\n", e.what());
    return false;
  }
}

// Discovery requests placed like the workload's clients.
template <typename S>
std::vector<net::DiscoveryRequest> client_requests(Fleet<S>& fleet,
                                                   std::size_t count) {
  std::vector<net::DiscoveryRequest> requests;
  const std::size_t clients = fleet.client_positions.size();
  const std::size_t stride = std::max<std::size_t>(1, clients / count);
  for (std::size_t i = 0; i < clients && requests.size() < count;
       i += stride) {
    net::DiscoveryRequest request;
    request.client = fleet.s->edge_client(i).id();
    request.geohash = eden::geo::geohash_encode(fleet.client_positions[i], 6);
    request.network_tag = client_tag(i);
    request.top_n = fleet_client_config().top_n;
    requests.push_back(std::move(request));
  }
  return requests;
}

// Simulated time from each client's start to its first attach to a node
// (discovery, probing the candidates, join; retries after a rejected
// join included), in microseconds, over the clients that attached.
template <typename S>
std::vector<double> attach_latencies_us(const Fleet<S>& fleet) {
  std::vector<double> us;
  us.reserve(fleet.started_at.size());
  for (std::size_t i = 0; i < fleet.started_at.size(); ++i) {
    if (fleet.attached_at[i] >= 0) {
      us.push_back(static_cast<double>(fleet.attached_at[i] - fleet.started_at[i]));
    }
  }
  return us;
}

// Per-layer counters read through public accessors. Cumulative counters
// become per-slice deltas in the traced run; gauges (from kFirstGauge on)
// are read as-is at each slice boundary.
enum Counter : std::size_t {
  kEvents,
  kFramesSent,
  kFramesOk,
  kFramesFailed,
  kProbesSent,
  kDiscoveries,
  kSwitches,
  kFailovers,
  kHardFailures,
  kJoins,
  kJoinConflicts,
  kFramesProcessed,
  kJoinsRejected,
  kFramesShed,
  kProcessProbes,
  kDiscoveryQueries,
  kHeartbeats,
  kRegistrations,
  kRejoins,
  kOverloadEnters,
  kCellSheds,
  kJournalRecords,
  kJournalBatches,
  kJournalBytes,
  kWindows,
  kStalledWindows,
  kCrossShard,
  kTraceEvents,
  kAllocs,
  kPending,  // first gauge
  kQueueMax,
  kAttached,
  kCounterCount,
};
constexpr std::size_t kFirstGauge = kPending;

const char* const kCounterNames[kCounterCount] = {
    "sim.events",
    "client.frames_sent",
    "client.frames_ok",
    "client.frames_failed",
    "client.probes_sent",
    "client.discoveries",
    "client.switches",
    "client.failovers",
    "client.hard_failures",
    "client.joins",
    "client.join_conflicts",
    "node.frames_processed",
    "node.joins_rejected",
    "node.frames_shed",
    "node.probes_received",
    "manager.discovery_queries",
    "manager.heartbeats",
    "manager.registrations",
    "manager.rejoins",
    "manager.overload_enters",
    "manager.cell_sheds",
    "journal.records",
    "journal.batches",
    "journal.bytes",
    "harness.windows",
    "harness.stalled_domain_windows",
    "net.cross_shard_messages",
    "obs.trace_events",
    "harness.allocs",
    "sim.pending",
    "node.queue_max",
    "client.attached",
};

using LayerCounters = std::array<double, kCounterCount>;

template <typename S>
LayerCounters read_counters(S& s) {
  LayerCounters v{};
  v[kEvents] = static_cast<double>(events_of(s));
  client::ClientStats ct;
  for (std::size_t i = 0; i < s.edge_client_count(); ++i) {
    const client::EdgeClient& c = s.edge_client(i);
    ct += c.stats();
    if (c.current_node()) v[kAttached] += 1;
  }
  v[kFramesSent] = static_cast<double>(ct.frames_sent);
  v[kFramesOk] = static_cast<double>(ct.frames_ok);
  v[kFramesFailed] = static_cast<double>(ct.frames_failed);
  v[kProbesSent] = static_cast<double>(ct.probes_sent);
  v[kDiscoveries] = static_cast<double>(ct.discoveries);
  v[kSwitches] = static_cast<double>(ct.switches);
  v[kFailovers] = static_cast<double>(ct.failovers);
  v[kHardFailures] = static_cast<double>(ct.hard_failures);
  v[kJoins] = static_cast<double>(ct.joins);
  v[kJoinConflicts] = static_cast<double>(ct.join_conflicts);
  for (std::size_t i = 0; i < s.node_count(); ++i) {
    auto& node = s.node(i);
    const auto& st = node.stats();
    v[kFramesProcessed] += static_cast<double>(st.frames_processed);
    v[kJoinsRejected] += static_cast<double>(st.joins_rejected);
    v[kFramesShed] += static_cast<double>(st.frames_shed);
    v[kProcessProbes] += static_cast<double>(st.probes_received);
    v[kQueueMax] =
        std::max(v[kQueueMax], static_cast<double>(node.executor().queued()));
  }
  const eden::manager::ManagerStats& ms = s.central_manager().stats();
  v[kDiscoveryQueries] = static_cast<double>(ms.discovery_queries);
  v[kHeartbeats] = static_cast<double>(ms.heartbeats);
  v[kRegistrations] = static_cast<double>(ms.registrations);
  v[kRejoins] = static_cast<double>(ms.rejoins);
  v[kOverloadEnters] = static_cast<double>(ms.overload_enters);
  v[kCellSheds] = static_cast<double>(ms.cell_sheds);
  if constexpr (kSharded<S>) {
    const harness::ShardStats ss = s.shard_stats();
    v[kWindows] = static_cast<double>(ss.windows);
    v[kStalledWindows] = static_cast<double>(ss.stalled_domain_windows);
    v[kCrossShard] = static_cast<double>(ss.cross_shard_messages);
  } else {
    if (const auto* journal = s.manager_journal()) {
      v[kJournalRecords] = static_cast<double>(journal->stats().records);
      v[kJournalBatches] = static_cast<double>(journal->stats().batches);
      v[kJournalBytes] = static_cast<double>(journal->stats().bytes);
    }
    if (const auto* recorder = s.trace_recorder()) {
      v[kTraceEvents] = static_cast<double>(recorder->size());
    }
  }
  v[kAllocs] = static_cast<double>(eden::bench::allocation_count());
  v[kPending] = static_cast<double>(pending_of(s));
  return v;
}

// Estimated one-way network samples (SimNetwork::sample_delay calls) in
// one slice: two legs per rpc — frames, discoveries, rtt and process
// probes, joins, feedback heartbeats, and keepalives (one per attached
// client per keepalive period, from the slice-end attachment count) —
// and one per one-way heartbeat or registration.
double message_estimate(const LayerCounters& before, const LayerCounters& after,
                        double slice_s, bool feedback_heartbeats) {
  const auto d = [&](Counter c) { return after[c] - before[c]; };
  const double keepalives =
      after[kAttached] * slice_s /
      eden::to_sec(fleet_client_config().keepalive_period);
  const double rpcs = d(kFramesSent) + d(kDiscoveries) + d(kProbesSent) +
                      d(kProcessProbes) + d(kJoins) + d(kJoinConflicts) +
                      keepalives;
  return 2.0 * rpcs + (feedback_heartbeats ? 2.0 : 1.0) * d(kHeartbeats) +
         d(kRegistrations);
}

Counters slice_counters(const LayerCounters& before, const LayerCounters& after,
                        double messages) {
  Counters out;
  out.reserve(kCounterCount + 1);
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    out.emplace_back(kCounterNames[i],
                     i < kFirstGauge ? after[i] - before[i] : after[i]);
  }
  out.emplace_back("net.messages_estimate", messages);
  return out;
}

// ---- isolated timings on the workload's final state ----

struct Isolated {
  double calls{0};
  double ns_per_call{0};
};

template <typename Fn>
Isolated time_calls(std::size_t calls, Fn&& fn) {
  const double t0 = thread_cpu_s();
  for (std::size_t i = 0; i < calls; ++i) fn(i);
  return {static_cast<double>(calls),
          (thread_cpu_s() - t0) * 1e9 / static_cast<double>(calls)};
}

void record_isolated(SpanLog& spans, std::uint64_t parent, const char* name,
                     const char* layer, const Isolated& iso,
                     Clock::time_point start) {
  spans.add(name, layer, parent, 0, start, Clock::now(),
            {{"calls", iso.calls}, {"ns_per_call", iso.ns_per_call}});
}

template <typename S>
std::vector<std::pair<eden::HostId, eden::HostId>> client_node_pairs(S& s) {
  std::vector<std::pair<eden::HostId, eden::HostId>> pairs;
  for (std::size_t i = 0; i < s.edge_client_count(); ++i) {
    client::EdgeClient& c = s.edge_client(i);
    const eden::NodeId node = c.current_node().value_or(
        s.node_id(i % s.node_count()));
    pairs.emplace_back(c.id(), node);
  }
  return pairs;
}

struct HoldTiming {
  std::uint64_t events{0};
  double ns_per_event{0};
};

// Hold-model engine: `depth` events pending at all times, every event
// rescheduling itself after the next of a fixed list of delays.
struct HoldModel {
  eden::sim::Simulator engine;
  std::vector<SimTime> delays;
  std::size_t next{0};

  void fire() {
    const SimTime delay = delays[next];
    next = (next + 1) % delays.size();
    engine.schedule_after(delay, [this] { fire(); });
  }
};

HoldTiming time_hold(std::size_t depth, std::uint64_t events,
                     std::uint64_t seed) {
  HoldModel hold;
  Rng rng = Rng(seed).fork("hold-delays");
  hold.delays.resize(8192);
  for (SimTime& delay : hold.delays) {
    delay = 1 + static_cast<SimTime>(rng.uniform() *
                                      static_cast<double>(sec(kSliceS) - 1));
  }
  for (std::size_t i = 0; i < depth; ++i) hold.fire();
  // Untimed first slice: every prefilled event runs once, so the timed
  // events are all reschedules, as in a running fleet.
  const SimTime step = sec(kSliceS) / 16;
  hold.engine.run_until(sec(kSliceS));
  const std::uint64_t before = hold.engine.events_processed();
  const double t0 = thread_cpu_s();
  while (hold.engine.events_processed() - before < events) {
    hold.engine.run_until(hold.engine.now() + step);
  }
  const double cpu_s = thread_cpu_s() - t0;
  const std::uint64_t ran = hold.engine.events_processed() - before;
  return {ran, cpu_s * 1e9 / static_cast<double>(ran)};
}

// ---- the workload driver ----

template <typename S>
Result run_sim(Kind kind, const Options& options) {
  Result result;
  const Shape shape = shape_of(kind, options.tiny);
  const SimTime horizon = sec(shape.horizon_s);
  const std::size_t queries = options.tiny ? 2'000 : 20'000;
  const bool feedback = kind == Kind::kChurn;
  const Clock::time_point budget_start = Clock::now();
  const auto spent = [&] { return seconds_between(budget_start, Clock::now()); };

  std::vector<double> setup_s;
  const auto timed_build = [&](bool trace) {
    const double t0 = process_cpu_s();
    Fleet<S> fleet = build<S>(kind, shape, options.seed, trace);
    setup_s.push_back(process_cpu_s() - t0);
    return fleet;
  };
  // Set-up takes milliseconds: sample it many times, in batches before
  // and after every repetition, so that the samples span the run as the
  // repetitions do (the host's speed drifts over seconds).
  const auto sample_setup = [&] {
    for (int i = 0; i < 10; ++i) timed_build(false);
  };

  // Untraced runs of the horizon, advanced in kSliceS slices. The host
  // time of each slice is kept per repetition; run_s is the sum over
  // slices of the slice's interquartile mean across repetitions.
  const auto slices = static_cast<std::size_t>(shape.horizon_s / kSliceS);
  std::vector<std::vector<double>> slice_s(slices);
  std::vector<double> steady_ms;  // frames completed after the warm-up
  std::vector<double> window_ms;  // frames completed in the final window
  std::vector<double> attach_us;  // per client, start to first attach
  double discovery_queries = 0;   // answered by the manager
  double allocs_per_event = 0;
  Outcome reference;
  const auto untraced_run = [&](bool first) {
    Fleet<S> fleet = timed_build(false);
    S& s = *fleet.s;
    std::vector<std::size_t> warm_marks;
    std::vector<std::size_t> window_marks;
    const auto mark = [&s](std::vector<std::size_t>& marks) {
      marks.resize(s.edge_client_count());
      for (std::size_t i = 0; i < marks.size(); ++i) {
        marks[i] = s.edge_client(i).latency_samples().count();
      }
    };
    const std::uint64_t allocs0 = eden::bench::allocation_count();
    for (std::size_t k = 0; k < slices; ++k) {
      const double t = kSliceS * static_cast<double>(k);
      if (first && t == shape.warmup_s) mark(warm_marks);
      if (first && t == shape.horizon_s - shape.window_s) mark(window_marks);
      const double t0 = process_cpu_s();
      s.run_until(sec(t + kSliceS));
      slice_s[k].push_back(process_cpu_s() - t0);
    }
    const std::uint64_t allocs1 = eden::bench::allocation_count();
    ++result.attempted;

    const Outcome outcome = outcome_of(s, s.fleet_stats());
    if (!first) {
      result.check("outcomes_repeat_at_fixed_seed", outcome == reference);
      return fleet;
    }
    reference = outcome;
    allocs_per_event = static_cast<double>(allocs1 - allocs0) /
                       static_cast<double>(std::max<std::uint64_t>(
                           1, outcome.events));
    result.check("frame_conservation", frames_conserved(s));
    result.check("require_nonvacuous_run", nonvacuous(s));
    attach_us = attach_latencies_us(fleet);
    discovery_queries =
        static_cast<double>(s.central_manager().stats().discovery_queries);
    result.check("clients_attached", !attach_us.empty());
    for (std::size_t i = 0; i < s.edge_client_count(); ++i) {
      const auto& values = s.edge_client(i).latency_samples().values();
      steady_ms.insert(steady_ms.end(),
                       values.begin() + static_cast<std::ptrdiff_t>(warm_marks[i]),
                       values.end());
      window_ms.insert(window_ms.end(),
                       values.begin() + static_cast<std::ptrdiff_t>(window_marks[i]),
                       values.end());
    }
    return fleet;
  };
  const auto slice_mean_sum = [&] {
    double total = 0;
    for (const std::vector<double>& times : slice_s) {
      total += interquartile_mean(times);
    }
    return total;
  };

  if (!options.trace) {
    sample_setup();
    double last_rep = 0;
    for (int rep = 0; rep == 0 || spent() + last_rep < options.seconds;
         ++rep) {
      const Clock::time_point r0 = Clock::now();
      untraced_run(rep == 0);
      sample_setup();
      last_rep = seconds_between(r0, Clock::now());
    }
    result.set("setup_s", median(setup_s));
    result.set("run_s", slice_mean_sum());
    result.set("peak_rss_mb", peak_rss_mb());
    result.set("frame_p50_ms", percentile(steady_ms, 50.0));
    result.set("frame_p99_ms", percentile(steady_ms, 99.0));
    result.set("frame_ok_ratio",
               1.0 - static_cast<double>(reference.frames_failed) /
                         std::max(1.0, static_cast<double>(reference.frames_sent)));
    result.set("discovery_qps", discovery_queries / shape.horizon_s);
    result.set("discovery_p50_us", percentile(attach_us, 50.0));
    result.set("discovery_p99_us", percentile(attach_us, 99.0));
    result.set("live_frame_p50_ms", percentile(window_ms, 50.0));
    result.set("live_frame_p99_ms", percentile(window_ms, 99.0));
    return result;
  }

  // ---- traced mode ----
  // Two untraced reference runs: the first also warms the allocator and
  // page cache; run_s is their slice-mean sum, as in untraced mode.
  untraced_run(true);
  untraced_run(false);
  const double untraced_run_s = slice_mean_sum();

  SpanLog spans;
  const std::uint64_t root = spans.begin("traced_run", "bench");
  const std::uint64_t build_span = spans.begin("build", "harness", root);
  Fleet<S> fleet = build<S>(kind, shape, options.seed, /*trace=*/true);
  spans.end(build_span);
  S& s = *fleet.s;

  LayerCounters before = read_counters(s);
  const LayerCounters start_counters = before;
  double traced_run_s = 0;
  double messages = 0;
  double peak_pending = before[kPending];
  double peak_queue = before[kQueueMax];
  const SimTime slice = sec(kSliceS);
  for (SimTime t = slice; t <= horizon; t += slice) {
    const std::uint64_t id = spans.begin("run_until", "harness", root);
    const double t0 = process_cpu_s();
    s.run_until(t);
    traced_run_s += process_cpu_s() - t0;
    const LayerCounters after = read_counters(s);
    const double slice_messages =
        message_estimate(before, after, kSliceS, feedback);
    messages += slice_messages;
    spans.end(id, slice_counters(before, after, slice_messages));
    peak_pending = std::max(peak_pending, after[kPending]);
    peak_queue = std::max(peak_queue, after[kQueueMax]);
    before = after;
  }
  const LayerCounters& end_counters = before;

  const std::uint64_t stats_span = spans.begin("fleet_stats", "harness", root);
  const harness::FleetStats stats = s.fleet_stats();
  spans.end(stats_span);
  const Outcome traced = outcome_of(s, stats);
  result.check("traced_outcomes_match_untraced", traced == reference);
  result.check("frame_conservation", frames_conserved(s));
  result.check("require_nonvacuous_run", nonvacuous(s));

  std::size_t trace_events = 0;
  if constexpr (kSharded<S>) {
    const std::uint64_t id = spans.begin("canonical_trace", "obs", root);
    trace_events = s.canonical_trace().size();
    spans.end(id);
  } else {
    trace_events = s.trace_recorder()->size();
  }

  // Isolated timings on the final state.
  const SimTime now = horizon;
  const auto requests = client_requests(fleet, queries);
  eden::manager::Registry& registry = s.central_manager().registry();
  const eden::manager::GlobalSelector& selector = s.central_manager().selector();
  std::size_t candidates = 0;
  Clock::time_point start = Clock::now();
  const Isolated select = time_calls(queries, [&](std::size_t i) {
    candidates +=
        selector.select(requests[i % requests.size()], registry, now)
            .candidates.size();
  });
  record_isolated(spans, root, "GlobalSelector::select", "manager", select,
                  start);
  result.check("select_returns_candidates", candidates > 0);

  const auto pairs = client_node_pairs(s);
  const std::size_t net_calls = std::max<std::size_t>(pairs.size() * 20, 100'000);
  const double frame_bytes = fleet_client_config().app.frame_bytes;
  Isolated sample_delay;
  eden::SimDuration delay_sum = 0;
  if constexpr (!kSharded<S>) {
    start = Clock::now();
    sample_delay = time_calls(net_calls, [&](std::size_t i) {
      const auto& [from, to] = pairs[i % pairs.size()];
      delay_sum += s.fabric().sample_delay(from, to, frame_bytes);
    });
    record_isolated(spans, root, "SimNetwork::sample_delay", "net",
                    sample_delay, start);
  }
  start = Clock::now();
  const net::NetworkModel& model = s.network_model();
  const Isolated base_rtt = time_calls(net_calls, [&](std::size_t i) {
    const auto& [from, to] = pairs[i % pairs.size()];
    delay_sum += model.base_rtt(from, to);
  });
  record_isolated(spans, root, "NetworkModel::base_rtt", "net", base_rtt,
                  start);
  result.check("network_delays_positive", delay_sum > 0);

  // Simulator schedule+run in the hold model: an engine keeps the
  // workload's peak pending-event count queued, and each event, when it
  // runs, schedules its successor at a delay drawn across one slice, as
  // the fleet's timers are spread. A fresh engine, so that no fleet event
  // runs among the timed ones.
  const auto depth = static_cast<std::size_t>(std::max(1.0, peak_pending));
  const std::uint64_t sim_calls = options.tiny ? 20'000 : 2'000'000;
  start = Clock::now();
  const HoldTiming hold = time_hold(depth, sim_calls, options.seed);
  const Isolated schedule_run{static_cast<double>(hold.events),
                              hold.ns_per_event};
  record_isolated(spans, root, "Simulator::schedule+run", "sim", schedule_run,
                  start);
  result.check("isolated_events_fired", hold.events >= sim_calls);

  // Per-layer metrics.
  const auto total = [&](Counter c) {
    return end_counters[c] - start_counters[c];
  };
  const double frames_sent = total(kFramesSent);
  const double events = static_cast<double>(reference.events);
  result.set("sim.events", events);
  result.set("sim.ns_per_event", schedule_run.ns_per_call);
  result.set("sim.peak_pending", peak_pending);
  result.set("harness.allocs_per_event", allocs_per_event);
  if constexpr (!kSharded<S>) {
    result.set("net.rpc_slot_capacity",
               static_cast<double>(s.fabric().rpc_slot_capacity()));
    result.set("net.sample_delay_ns", sample_delay.ns_per_call);
  }
  result.set("net.base_rtt_ns", base_rtt.ns_per_call);
  result.set("client.frames_sent", frames_sent);
  result.set("client.probes_sent", total(kProbesSent));
  result.set("client.probes_per_frame",
             total(kProbesSent) / std::max(1.0, frames_sent));
  result.set("client.discoveries", total(kDiscoveries));
  result.set("client.switches", total(kSwitches));
  result.set("client.failovers", total(kFailovers));
  result.set("client.hard_failures", total(kHardFailures));
  result.set("client.frame_fail_ratio",
             total(kFramesFailed) / std::max(1.0, frames_sent));
  const double joins = total(kJoins);
  result.set("client.join_success_ratio",
             joins / std::max(1.0, joins + total(kJoinConflicts)));
  result.set("node.frames_processed", total(kFramesProcessed));
  result.set("node.joins_rejected", total(kJoinsRejected));
  result.set("node.frames_shed", total(kFramesShed));
  result.set("node.peak_queue", peak_queue);
  result.set("manager.discovery_queries", total(kDiscoveryQueries));
  result.set("manager.heartbeats", total(kHeartbeats));
  result.set("manager.registrations", total(kRegistrations));
  result.set("manager.rejoins", total(kRejoins));
  result.set("manager.overload_enters", total(kOverloadEnters));
  result.set("manager.cell_sheds", total(kCellSheds));
  result.set("manager.select_ns", select.ns_per_call);
  if (kind == Kind::kChurn) {
    const double batches = total(kJournalBatches);
    result.set("journal.records", total(kJournalRecords));
    result.set("journal.batches", batches);
    result.set("journal.records_per_batch",
               total(kJournalRecords) / std::max(1.0, batches));
    result.set("journal.bytes", total(kJournalBytes));
  }
  if constexpr (kSharded<S>) {
    const harness::ShardStats ss = s.shard_stats();
    const double windows = static_cast<double>(ss.windows);
    result.set("harness.windows", windows);
    result.set("harness.window_ms", eden::to_ms(ss.window_length));
    result.set("harness.stall_fraction",
               static_cast<double>(ss.stalled_domain_windows) /
                   std::max(1.0, windows * static_cast<double>(s.shard_count())));
    double max_events = 0;
    double sum_events = 0;
    for (const std::uint64_t e : ss.events_per_domain) {
      max_events = std::max(max_events, static_cast<double>(e));
      sum_events += static_cast<double>(e);
    }
    result.set("harness.domain_imbalance",
               max_events * static_cast<double>(ss.events_per_domain.size()) /
                   std::max(1.0, sum_events));
    result.set("net.cross_shard_messages",
               static_cast<double>(ss.cross_shard_messages));
  }
  result.set("obs.trace_events", static_cast<double>(trace_events));
  result.set("obs.overhead_ratio", traced_run_s / untraced_run_s);

  // Attribution: count x isolated cost per layer, against the untraced
  // run_s. The estimates ride on the root span for summarize.py.
  const double sim_est_s = events * schedule_run.ns_per_call * 1e-9;
  const double net_est_s = messages * sample_delay.ns_per_call * 1e-9;
  const double manager_est_s =
      total(kDiscoveryQueries) * select.ns_per_call * 1e-9;
  const double unattributed =
      1.0 - (sim_est_s + net_est_s + manager_est_s) / untraced_run_s;
  result.set("harness.unattributed_share", unattributed);
  spans.end(root, {{"untraced_run_s", untraced_run_s},
                   {"traced_run_s", traced_run_s},
                   {"estimate.sim_s", sim_est_s},
                   {"estimate.net_s", net_est_s},
                   {"estimate.manager_s", manager_est_s},
                   {"net.messages_estimate", messages},
                   {"unattributed_share", unattributed}});

  const std::string path = dump_spans(spans, options);
  result.check("span_dump_written", !path.empty());
  if (!path.empty()) std::fprintf(stderr, "spans -> %s\n", path.c_str());
  ++result.attempted;
  return result;
}

}  // namespace

Result run_fleet_steady(const Options& options) {
  return run_sim<harness::Scenario>(Kind::kSteady, options);
}

Result run_churn_failover(const Options& options) {
  return run_sim<harness::Scenario>(Kind::kChurn, options);
}

Result run_fleet_sharded(const Options& options) {
  return run_sim<harness::ShardedScenario>(Kind::kSharded, options);
}

}  // namespace edenbench
