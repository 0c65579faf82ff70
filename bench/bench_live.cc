// Live-socket data-plane bench: drives the real TCP runtimes (manager,
// nodes, clients over 127.0.0.1) through the paper's elasticity (fig 5)
// and churn (fig 8) shapes, and cross-validates the live latency
// distribution against a simulator twin of the same topology.
//
// Four phases:
//
//   1. Discovery storm — a join-storm of volunteer nodes registers with
//      the manager while pipelined raw RpcClients hammer kDiscover.
//      Reported as discovery qps under registration load, with the pump
//      pool's sendmsg calls per completed query (writes_per_op: 1.0 when
//      every request is its own write, below 1 when the follow-up calls a
//      read dispatch issues leave together).
//
//   2. Live elasticity (fig 5 shape) — one congested node serves the whole
//      fleet, then volunteers join mid-run; p50/p99 before vs after
//      measures the elastic win end-to-end over real sockets.
//
//   3. Churn + steady window (fig 8 shape) — nodes join and leave under
//      live clients; churn then pauses and a quiescent mid-run window
//      measures allocs-per-frame with the global operator-new hook (the
//      pooled data plane's headline number) plus SBO-callback heap spills.
//      Every runtime is then torn down and leaked pool chunks counted —
//      nonzero means a buffer escaped the slab.
//
//   4. Sim parity — the steady-state topology of phase 3 rebuilt inside
//      the discrete-event simulator (same protocol classes, LAN access
//      tier, zero jitter). Live-vs-sim p50/p99 deltas must fall inside the
//      tolerance band documented in DESIGN.md §12: |Δp50| <= max(15 ms,
//      0.75 * sim p50), |Δp99| <= max(75 ms, 1.5 * sim p99) — wide enough
//      for CI scheduling noise, tight enough to catch a broken data plane.
//
// `--smoke` shrinks every phase for CI; `--json [path]` writes
// BENCH_live.json at the repo root (or `path`) for tools/check.sh gates.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc_hook.h"
#include "bench_common.h"
#include "common/table.h"
#include "harness/scenario.h"
#include "rpc/live_runtime.h"
#include "sim/callback.h"

using namespace eden;
using rpc::LiveClient;
using rpc::LiveManager;
using rpc::LiveNode;

namespace {

constexpr const char* kGeohash = "9zvxvf";

// --trace-allocs: dump a backtrace for every allocation inside the churn
// steady window (diagnostic; resolve with addr2line).
bool g_trace_allocs = false;

void sleep_ms(double ms) {
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<long>(ms * 1000.0)));
}

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Linear-interpolated percentile over an unsorted slice (same convention
// as common::Samples::percentile).
double slice_percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

node::EdgeNodeConfig node_config(std::uint32_t id, int cores,
                                 double frame_ms) {
  node::EdgeNodeConfig config;
  config.id = NodeId{id};
  config.geohash = kGeohash;
  config.executor.cores = cores;
  config.executor.base_frame_ms = frame_ms;
  config.heartbeat_period = msec(200.0);
  return config;
}

client::ClientConfig client_config(double fps, double probing_ms) {
  client::ClientConfig config;
  config.geohash = kGeohash;
  config.top_n = 3;
  config.probing_period = msec(probing_ms);
  config.keepalive_period = msec(300.0);
  config.app.max_fps = fps;
  config.app.adaptive_rate = false;
  return config;
}

// Per-client latency slice: samples added after `from_count`.
std::vector<double> samples_since(LiveClient& client, std::size_t from_count) {
  const Samples all = client.latency_samples();
  const auto& v = all.values();
  if (from_count >= v.size()) return {};
  return std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(from_count),
                             v.end());
}

// ---- phase 1: discovery storm -------------------------------------------

struct StormResult {
  int storm_nodes{0};
  int inflight{0};
  double seconds{0};
  std::uint64_t completed{0};
  std::uint64_t failed{0};
  double qps{0};
  double allocs_per_op{0};  // manager select + rpc round-trip, both sides
  double writes_per_op{0};  // pump-side sendmsg calls per completed query
};

// One self-refiring pipelined discovery call. Lives in a deque (stable
// address) and captures only `this` — the callback stays SBO-inline.
struct DiscoveryPump {
  rpc::RpcClient* client{nullptr};
  const std::vector<std::uint8_t>* payload{nullptr};
  std::uint64_t completed{0};
  std::uint64_t failed{0};
  bool stop{false};

  void fire() {
    client->call(rpc::MessageType::kDiscover, payload->data(), payload->size(),
                 msec(500.0), [this](rpc::RpcResult response) {
                   if (response.ok) {
                     ++completed;
                   } else {
                     ++failed;
                   }
                   if (!stop) fire();
                 });
  }
};

StormResult run_discovery_storm(int storm_nodes, int connections,
                                int per_connection, double seconds) {
  StormResult result;
  result.storm_nodes = storm_nodes;
  result.inflight = connections * per_connection;
  result.seconds = seconds;

  LiveManager manager;
  if (!manager.start(0)) return result;

  // Join storm: every volunteer registers at once and keeps heartbeating
  // at 5 Hz while the discovery pipeline runs.
  std::vector<std::unique_ptr<LiveNode>> nodes;
  for (int i = 0; i < storm_nodes; ++i) {
    nodes.push_back(std::make_unique<LiveNode>(
        node_config(static_cast<std::uint32_t>(100 + i), 2, 20.0),
        manager.endpoint()));
    nodes.back()->start(0);
  }

  // Bench-local loop with `connections` sockets, each keeping
  // `per_connection` discovery calls in flight.
  rpc::EventLoop loop;
  rpc::ConnectionPool pool(loop);
  rpc::Writer request_writer;
  {
    net::DiscoveryRequest request;
    request.client = ClientId{1};
    request.geohash = kGeohash;
    request.top_n = 3;
    encode(request_writer, request);
  }
  std::deque<DiscoveryPump> pumps;
  std::deque<rpc::RpcClient> clients;
  for (int c = 0; c < connections; ++c) {
    clients.emplace_back(loop, pool, manager.endpoint());
    for (int p = 0; p < per_connection; ++p) {
      pumps.push_back(DiscoveryPump{&clients.back(), &request_writer.data()});
    }
  }
  for (auto& pump : pumps) pump.fire();
  // Warm up connections, slabs and scratch buffers before counting.
  {
    const double warm_end = wall_now() + 0.2;
    while (wall_now() < warm_end) loop.run_for(msec(10.0));
    for (auto& pump : pumps) {
      pump.completed = 0;
      pump.failed = 0;
    }
  }

  const std::uint64_t a0 = bench::allocation_count();
  const std::uint64_t w0 = pool.writes();
  const double t0 = wall_now();
  while (wall_now() - t0 < seconds) loop.run_for(msec(10.0));
  const double elapsed = wall_now() - t0;
  const std::uint64_t a1 = bench::allocation_count();
  const std::uint64_t w1 = pool.writes();
  for (auto& pump : pumps) pump.stop = true;
  loop.run_for(msec(50.0));  // drain in-flight tails

  for (const auto& pump : pumps) {
    result.completed += pump.completed;
    result.failed += pump.failed;
  }
  result.qps = static_cast<double>(result.completed) / elapsed;
  const double ops =
      static_cast<double>(std::max<std::uint64_t>(1, result.completed));
  result.allocs_per_op = static_cast<double>(a1 - a0) / ops;
  result.writes_per_op = static_cast<double>(w1 - w0) / ops;

  for (auto& node : nodes) node->stop(true);
  manager.stop();
  return result;
}

// ---- phase 2: live elasticity (fig 5 shape) -----------------------------

struct ElasticityResult {
  int clients{0};
  double single_p50_ms{0};
  double single_p99_ms{0};
  double elastic_p50_ms{0};
  double elastic_p99_ms{0};
};

ElasticityResult run_live_elasticity(int client_count, double window_sec) {
  ElasticityResult result;
  result.clients = client_count;

  LiveManager manager;
  if (!manager.start(0)) return result;
  // One undersized node: 1 core at 20 ms/frame caps out at 50 fps while
  // the fleet offers client_count * 10.
  LiveNode congested(node_config(1, 1, 20.0), manager.endpoint());
  congested.start(0);
  sleep_ms(200.0);

  std::vector<std::unique_ptr<LiveClient>> clients;
  for (int i = 0; i < client_count; ++i) {
    clients.push_back(std::make_unique<LiveClient>(
        client_config(/*fps=*/10.0, /*probing_ms=*/700.0),
        manager.endpoint()));
    clients.back()->start();
  }
  sleep_ms(500.0);  // joins land, queues build

  // Window 1: the congested steady state.
  std::vector<std::size_t> marks(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    marks[i] = clients[i]->latency_samples().count();
  }
  sleep_ms(window_sec * 1000.0);
  std::vector<double> single;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const auto slice = samples_since(*clients[i], marks[i]);
    single.insert(single.end(), slice.begin(), slice.end());
  }
  result.single_p50_ms = slice_percentile(single, 50.0);
  result.single_p99_ms = slice_percentile(single, 99.0);

  // Volunteers join (the elastic event); probing moves the fleet over.
  LiveNode volunteer_a(node_config(2, 4, 8.0), manager.endpoint());
  LiveNode volunteer_b(node_config(3, 4, 8.0), manager.endpoint());
  LiveNode volunteer_c(node_config(4, 2, 12.0), manager.endpoint());
  volunteer_a.start(0);
  volunteer_b.start(0);
  volunteer_c.start(0);
  sleep_ms(1500.0);  // discovery refresh + switch + queue drain

  // Window 2: the elastic steady state.
  for (std::size_t i = 0; i < clients.size(); ++i) {
    marks[i] = clients[i]->latency_samples().count();
  }
  sleep_ms(window_sec * 1000.0);
  std::vector<double> elastic;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const auto slice = samples_since(*clients[i], marks[i]);
    elastic.insert(elastic.end(), slice.begin(), slice.end());
  }
  result.elastic_p50_ms = slice_percentile(elastic, 50.0);
  result.elastic_p99_ms = slice_percentile(elastic, 99.0);

  for (auto& c : clients) c->stop();
  volunteer_a.stop(true);
  volunteer_b.stop(true);
  volunteer_c.stop(true);
  congested.stop(true);
  manager.stop();
  return result;
}

// ---- phase 3: churn + steady allocation window (fig 8 shape) ------------

struct ChurnResult {
  int clients{0};
  double window_sec{0};
  std::uint64_t frames{0};
  std::uint64_t allocs{0};
  std::uint64_t callback_spills{0};
  double allocs_per_frame{0};
  double live_p50_ms{0};
  double live_p99_ms{0};
  std::size_t leaked_pool_slots{0};
  std::uint64_t discoveries{0};
};

ChurnResult run_live_churn(int client_count, double churn_scale,
                           double window_sec) {
  ChurnResult result;
  result.clients = client_count;
  result.window_sec = window_sec;

  LiveManager manager;
  if (!manager.start(0)) return result;
  // Base fleet (matches the sim twin below): one strong node, two mid
  // nodes; volunteers D/E churn through during the run, with E staying.
  LiveNode node_a(node_config(1, 4, 5.0), manager.endpoint());
  LiveNode node_b(node_config(2, 2, 10.0), manager.endpoint());
  LiveNode node_c(node_config(3, 2, 10.0), manager.endpoint());
  node_a.start(0);
  node_b.start(0);
  node_c.start(0);
  sleep_ms(200.0);

  std::vector<std::unique_ptr<LiveClient>> clients;
  for (int i = 0; i < client_count; ++i) {
    clients.push_back(std::make_unique<LiveClient>(
        client_config(/*fps=*/20.0, /*probing_ms=*/1000.0),
        manager.endpoint()));
    clients.back()->start();
  }

  // Churn: D and E join mid-run, D leaves again (fig 8's join/leave
  // staircase, compressed).
  LiveNode node_d(node_config(4, 2, 15.0), manager.endpoint());
  LiveNode node_e(node_config(5, 2, 15.0), manager.endpoint());
  sleep_ms(300.0 * churn_scale);
  node_d.start(0);
  sleep_ms(600.0 * churn_scale);
  node_e.start(0);
  sleep_ms(600.0 * churn_scale);
  node_d.stop(true);
  sleep_ms(500.0 * churn_scale);

  // Churn paused; let rediscovery and queues settle before measuring.
  sleep_ms(800.0);

  // Steady window. All cross-thread reads (they allocate promise state)
  // happen OUTSIDE the [a0, a1] allocation snapshot.
  std::vector<std::size_t> marks(clients.size());
  std::vector<std::uint64_t> frames_before(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    marks[i] = clients[i]->latency_samples().count();
    frames_before[i] = clients[i]->stats().frames_ok;
  }
  const std::uint64_t spills_before =
      sim::detail::callback_heap_allocs.load(std::memory_order_relaxed);
  const std::uint64_t a0 = bench::allocation_count();
  if (g_trace_allocs) bench::set_allocation_trace(true);
  sleep_ms(window_sec * 1000.0);
  if (g_trace_allocs) bench::set_allocation_trace(false);
  const std::uint64_t a1 = bench::allocation_count();
  const std::uint64_t spills_after =
      sim::detail::callback_heap_allocs.load(std::memory_order_relaxed);

  std::vector<double> window_latency;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const auto slice = samples_since(*clients[i], marks[i]);
    window_latency.insert(window_latency.end(), slice.begin(), slice.end());
    result.frames += clients[i]->stats().frames_ok - frames_before[i];
    result.discoveries += clients[i]->stats().discoveries;
  }
  result.allocs = a1 - a0;
  result.callback_spills = spills_after - spills_before;
  result.allocs_per_frame =
      static_cast<double>(result.allocs) /
      static_cast<double>(std::max<std::uint64_t>(1, result.frames));
  result.live_p50_ms = slice_percentile(window_latency, 50.0);
  result.live_p99_ms = slice_percentile(window_latency, 99.0);

  // Teardown + leak oracle: every runtime must hand back every chunk.
  for (auto& c : clients) c->stop();
  node_e.stop(true);
  node_a.stop(true);
  node_b.stop(true);
  node_c.stop(true);
  manager.stop();
  for (auto& c : clients) result.leaked_pool_slots += c->leaked_pool_chunks();
  result.leaked_pool_slots += node_a.leaked_pool_chunks();
  result.leaked_pool_slots += node_b.leaked_pool_chunks();
  result.leaked_pool_slots += node_c.leaked_pool_chunks();
  result.leaked_pool_slots += node_d.leaked_pool_chunks();
  result.leaked_pool_slots += node_e.leaked_pool_chunks();
  result.leaked_pool_slots += manager.leaked_pool_chunks();
  return result;
}

// ---- phase 4: simulator twin --------------------------------------------

struct ParityResult {
  double sim_p50_ms{0};
  double sim_p99_ms{0};
  double delta_p50_ms{0};
  double delta_p99_ms{0};
  double tol_p50_ms{0};
  double tol_p99_ms{0};
  bool within_tolerance{false};
};

// Rebuild phase 3's steady-state topology (nodes A/B/C/E, same cores and
// frame times, same client workload) in the discrete-event simulator over
// a LAN-tier zero-jitter fabric, and compare percentile latencies.
ParityResult run_sim_twin(const ChurnResult& live, int client_count,
                          double warm_sec, double window_sec) {
  ParityResult result;

  harness::ScenarioConfig config;
  config.seed = 11;
  harness::Scenario scenario(config, harness::NetKind::kGeo,
                             /*default_rtt_ms=*/0.3, /*default_bw_mbps=*/900.0,
                             /*jitter_sigma=*/0.0);

  const struct {
    int cores;
    double frame_ms;
  } node_shapes[] = {{4, 5.0}, {2, 10.0}, {2, 10.0}, {2, 15.0}};
  std::size_t index = 0;
  for (const auto& shape : node_shapes) {
    harness::NodeSpec spec;
    spec.name = "n" + std::to_string(index++);
    spec.tier = net::AccessTier::kLan;
    spec.cores = shape.cores;
    spec.base_frame_ms = shape.frame_ms;
    spec.heartbeat_period = msec(200.0);
    scenario.start_node(scenario.add_node(spec));
  }

  std::vector<client::EdgeClient*> clients;
  for (int i = 0; i < client_count; ++i) {
    harness::ClientSpot spot;
    spot.name = "u" + std::to_string(i);
    spot.tier = net::AccessTier::kLan;
    auto& c = scenario.add_edge_client(
        spot, client_config(/*fps=*/20.0, /*probing_ms=*/1000.0));
    scenario.simulator().schedule_at(msec(10.0 * i), [&c] { c.start(); });
    clients.push_back(&c);
  }

  scenario.run_until(sec(warm_sec));
  std::vector<std::size_t> marks(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    marks[i] = clients[i]->latency_samples().count();
  }
  scenario.run_until(sec(warm_sec + window_sec));
  std::vector<double> window_latency;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const Samples all = clients[i]->latency_samples();
    const auto& v = all.values();
    if (marks[i] < v.size()) {
      window_latency.insert(window_latency.end(),
                            v.begin() + static_cast<std::ptrdiff_t>(marks[i]),
                            v.end());
    }
  }
  result.sim_p50_ms = slice_percentile(window_latency, 50.0);
  result.sim_p99_ms = slice_percentile(window_latency, 99.0);
  result.delta_p50_ms = live.live_p50_ms - result.sim_p50_ms;
  result.delta_p99_ms = live.live_p99_ms - result.sim_p99_ms;
  // Tolerance band (documented in DESIGN.md §12): absolute floor for
  // scheduler noise plus a relative term for topology-driven variance.
  result.tol_p50_ms = std::max(15.0, 0.75 * result.sim_p50_ms);
  result.tol_p99_ms = std::max(75.0, 1.5 * result.sim_p99_ms);
  result.within_tolerance =
      std::abs(result.delta_p50_ms) <= result.tol_p50_ms &&
      std::abs(result.delta_p99_ms) <= result.tol_p99_ms;
  return result;
}

// ---- reporting ----------------------------------------------------------

void write_json(const std::string& path, const StormResult& storm,
                const ElasticityResult& elastic, const ChurnResult& churn,
                const ParityResult& parity) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_live: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"discovery_storm\": {\"storm_nodes\": %d, \"inflight\": %d, "
               "\"seconds\": %.2f,\n"
               "    \"completed\": %llu, \"failed\": %llu, \"qps\": %.1f, "
               "\"allocs_per_op\": %.3f, \"writes_per_op\": %.3f},\n",
               storm.storm_nodes, storm.inflight, storm.seconds,
               static_cast<unsigned long long>(storm.completed),
               static_cast<unsigned long long>(storm.failed), storm.qps,
               storm.allocs_per_op, storm.writes_per_op);
  std::fprintf(f,
               "  \"elasticity\": {\"clients\": %d, "
               "\"single_node_p50_ms\": %.2f, \"single_node_p99_ms\": %.2f,\n"
               "    \"elastic_p50_ms\": %.2f, \"elastic_p99_ms\": %.2f, "
               "\"p50_improvement\": %.2f},\n",
               elastic.clients, elastic.single_p50_ms, elastic.single_p99_ms,
               elastic.elastic_p50_ms, elastic.elastic_p99_ms,
               elastic.elastic_p50_ms > 0
                   ? elastic.single_p50_ms / elastic.elastic_p50_ms
                   : 0.0);
  std::fprintf(f,
               "  \"churn\": {\"clients\": %d, \"window_sec\": %.2f, "
               "\"frames\": %llu, \"allocs\": %llu,\n"
               "    \"callback_spills\": %llu, \"discoveries\": %llu,\n"
               "    \"live_p50_ms\": %.2f, \"live_p99_ms\": %.2f},\n",
               churn.clients, churn.window_sec,
               static_cast<unsigned long long>(churn.frames),
               static_cast<unsigned long long>(churn.allocs),
               static_cast<unsigned long long>(churn.callback_spills),
               static_cast<unsigned long long>(churn.discoveries),
               churn.live_p50_ms, churn.live_p99_ms);
  std::fprintf(f,
               "  \"sim_parity\": {\"sim_p50_ms\": %.2f, \"sim_p99_ms\": %.2f, "
               "\"delta_p50_ms\": %.2f, \"delta_p99_ms\": %.2f,\n"
               "    \"tol_p50_ms\": %.2f, \"tol_p99_ms\": %.2f},\n",
               parity.sim_p50_ms, parity.sim_p99_ms, parity.delta_p50_ms,
               parity.delta_p99_ms, parity.tol_p50_ms, parity.tol_p99_ms);
  // The gate fields check.sh greps, grouped in one flat object.
  std::fprintf(f,
               "  \"smoke\": {\"allocs_per_frame\": %.3f, "
               "\"leaked_pool_slots\": %zu, \"within_tolerance\": %s, "
               "\"discovery_qps\": %.1f, \"writes_per_op\": %.3f}\n",
               churn.allocs_per_frame, churn.leaked_pool_slots,
               parity.within_tolerance ? "true" : "false", storm.qps,
               storm.writes_per_op);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\njson -> %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool json = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-allocs") == 0) {
      g_trace_allocs = true;
    }
  }
  if (json && json_path.empty()) {
    json_path = std::string(EDEN_SOURCE_DIR) + "/BENCH_live.json";
  }

  bench::print_header(
      "live data plane — loopback sockets through the pooled rpc path",
      "the same protocol state machines the simulator drives, served "
      "allocation-free at steady state over real TCP");

  const int storm_nodes = smoke ? 6 : 12;
  const double storm_sec = smoke ? 1.0 : 3.0;
  const int fleet_clients = smoke ? 6 : 10;
  const double window_sec = smoke ? 1.5 : 3.0;
  const double churn_scale = smoke ? 1.0 : 2.0;

  print_section("discovery qps under join-storm");
  const StormResult storm =
      run_discovery_storm(storm_nodes, /*connections=*/3,
                          /*per_connection=*/8, storm_sec);
  Table storm_table({"storm nodes", "inflight", "completed", "failed", "qps",
                     "allocs/op", "writes/op"});
  storm_table.add_row(
      {Table::integer(storm.storm_nodes), Table::integer(storm.inflight),
       Table::integer(static_cast<std::int64_t>(storm.completed)),
       Table::integer(static_cast<std::int64_t>(storm.failed)),
       Table::num(storm.qps, 0), Table::num(storm.allocs_per_op, 3),
       Table::num(storm.writes_per_op, 3)});
  storm_table.print();

  print_section("live elasticity (fig 5 shape over sockets)");
  const ElasticityResult elastic =
      run_live_elasticity(fleet_clients, window_sec);
  Table elastic_table({"clients", "single p50", "single p99", "elastic p50",
                       "elastic p99", "p50 gain"});
  elastic_table.add_row(
      {Table::integer(elastic.clients), Table::num(elastic.single_p50_ms, 1),
       Table::num(elastic.single_p99_ms, 1),
       Table::num(elastic.elastic_p50_ms, 1),
       Table::num(elastic.elastic_p99_ms, 1),
       elastic.elastic_p50_ms > 0
           ? Table::num(elastic.single_p50_ms / elastic.elastic_p50_ms, 2) + "x"
           : std::string("-")});
  elastic_table.print();

  print_section("churn + steady-state allocation window (fig 8 shape)");
  const ChurnResult churn =
      run_live_churn(fleet_clients, churn_scale, window_sec);
  Table churn_table({"clients", "frames", "allocs", "allocs/frame", "spills",
                     "p50 (ms)", "p99 (ms)", "leaked slots"});
  churn_table.add_row(
      {Table::integer(churn.clients),
       Table::integer(static_cast<std::int64_t>(churn.frames)),
       Table::integer(static_cast<std::int64_t>(churn.allocs)),
       Table::num(churn.allocs_per_frame, 3),
       Table::integer(static_cast<std::int64_t>(churn.callback_spills)),
       Table::num(churn.live_p50_ms, 1), Table::num(churn.live_p99_ms, 1),
       Table::integer(static_cast<std::int64_t>(churn.leaked_pool_slots))});
  churn_table.print();

  print_section("sim parity (same topology in the discrete-event simulator)");
  const ParityResult parity = run_sim_twin(churn, fleet_clients,
                                           /*warm_sec=*/2.0,
                                           /*window_sec=*/3.0);
  Table parity_table({"live p50", "sim p50", "Δp50", "tol", "live p99",
                      "sim p99", "Δp99", "tol", "within"});
  parity_table.add_row(
      {Table::num(churn.live_p50_ms, 1), Table::num(parity.sim_p50_ms, 1),
       Table::num(parity.delta_p50_ms, 1), Table::num(parity.tol_p50_ms, 1),
       Table::num(churn.live_p99_ms, 1), Table::num(parity.sim_p99_ms, 1),
       Table::num(parity.delta_p99_ms, 1), Table::num(parity.tol_p99_ms, 1),
       parity.within_tolerance ? "yes" : "NO"});
  parity_table.print();

  if (json) write_json(json_path, storm, elastic, churn, parity);
  return 0;
}
