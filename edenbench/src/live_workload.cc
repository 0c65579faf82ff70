// live_loopback: the one workload that runs EDEN's real TCP runtimes
// (src/rpc). One process, four threads: a LiveManager, one LiveNode and
// one LiveClient (each on its own event loop), and the benchmark's own
// loop on the main thread. The client streams frames at a fixed rate
// while the benchmark's loop runs a closed-loop discovery pump in two
// kinds of round, back to back: throughput rounds keep 24 queries in
// flight over three connections and are timed in process CPU time;
// latency rounds keep one query in flight and time each query and frame
// on the wall clock.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc_hook.h"
#include "bench.h"
#include "common/rng.h"
#include "geo/geohash.h"
#include "harness/experiments.h"
#include "rpc/live_runtime.h"
#include "rpc/messages.h"
#include "spans.h"

namespace edenbench {
namespace {

using eden::msec;
namespace rpc = eden::rpc;
namespace net = eden::net;

constexpr int kConnections = 3;
constexpr int kPerConnection = 8;  // 24 queries in flight
constexpr double kClientFps = 500.0;
// Latency percentiles are taken per window of consecutive samples, and
// the reported figure is the median over windows. A host stall (steal,
// a descheduled vCPU) delays a burst of consecutive samples and so sets
// the percentile of few windows; a slow path in the code recurs in every
// window. A p99 needs at least ten samples beyond it.
constexpr std::size_t kQueriesPerWindow = 1000;
constexpr std::size_t kFramesPerWindow = 1000;
constexpr std::size_t kTinyFramesPerWindow = 50;
constexpr int kSetups = 9;

// Inputs derived from the seed: where the deployment sits (its geohash
// cell) and the ids of the client and node. Rates, sizes and capacities
// are fixed, so every seed offers the same load.
struct LiveInputs {
  std::string geohash;
  std::uint32_t node_id{0};
  std::uint32_t client_id{0};
};

LiveInputs inputs_for(std::uint64_t seed) {
  eden::Rng rng = eden::Rng(seed).fork("live-layout");
  LiveInputs in;
  in.geohash = eden::geo::geohash_encode(
      eden::harness::random_point_near({44.9778, -93.2650}, 40.0, rng), 6);
  in.node_id = static_cast<std::uint32_t>(rng.uniform_int(100, 999));
  in.client_id = static_cast<std::uint32_t>(rng.uniform_int(5000, 9999));
  return in;
}

// The node serves a frame in 20 ms, as the simulated fleet's nodes do
// (20-45 ms), with cores to spare and no contention, so a frame never
// queues: frame latency is the rpc round trips plus the service time.
// With 2 ms frames, the host's wake-up delays set the wall-clock p99.
eden::node::EdgeNodeConfig node_config(const LiveInputs& in) {
  eden::node::EdgeNodeConfig config;
  config.id = eden::NodeId{in.node_id};
  config.geohash = in.geohash;
  config.executor.cores = 32;
  config.executor.base_frame_ms = 20.0;
  config.executor.contention_alpha = 0.0;
  config.heartbeat_period = msec(200.0);
  return config;
}

eden::client::ClientConfig client_config(const LiveInputs& in) {
  eden::client::ClientConfig config;
  config.id = eden::ClientId{in.client_id};
  config.geohash = in.geohash;
  config.top_n = 3;
  config.app.max_fps = kClientFps;
  config.app.adaptive_rate = false;
  return config;
}

void sleep_us(int us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

// The three daemons, started in dependency order: the node registers
// before the client's first discovery, so the client attaches at once.
struct Deployment {
  std::unique_ptr<rpc::LiveManager> manager;
  std::unique_ptr<rpc::LiveNode> node;
  std::unique_ptr<rpc::LiveClient> client;
  bool ok{false};

  // Starts everything and waits until the client is attached and its
  // first frame came back.
  explicit Deployment(const LiveInputs& in) {
    manager = std::make_unique<rpc::LiveManager>();
    if (!manager->start(0)) return;
    node = std::make_unique<rpc::LiveNode>(node_config(in), manager->endpoint());
    if (!node->start(0)) return;
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(5);
    while (rpc::run_on_loop(manager->loop(), [this] {
             return manager->manager_unsafe().registry().size();
           }) == 0) {
      if (Clock::now() > deadline) return;
      sleep_us(200);
    }
    client = std::make_unique<rpc::LiveClient>(client_config(in),
                                               manager->endpoint());
    client->start();
    while (client->stats().frames_ok == 0) {
      if (Clock::now() > deadline) return;
      sleep_us(200);
    }
    ok = true;
  }

  // Stops every runtime and returns the pool chunks they still hold.
  std::size_t teardown() {
    if (client) client->stop();
    if (node) node->stop(true);
    if (manager) manager->stop();
    std::size_t leaked = 0;
    if (client) leaked += client->leaked_pool_chunks();
    if (node) leaked += node->leaked_pool_chunks();
    if (manager) leaked += manager->leaked_pool_chunks();
    return leaked;
  }
};

// One self-refiring discovery call slot. Lives in a deque (stable
// address) and captures only `this`, so the callback stays inline.
struct PumpSlot {
  struct Pump* pump{nullptr};
  rpc::RpcClient* client{nullptr};
  Clock::time_point sent;
  std::uint64_t request{0};
  void fire();
};

// Closed loop: each slot sends its next query when the previous answer
// arrives, until `target` queries have been issued.
struct Pump {
  const std::vector<std::uint8_t>* payload{nullptr};
  std::deque<PumpSlot> slots;
  std::uint64_t target{0};
  std::uint64_t issued{0};
  std::uint64_t completed{0};
  std::uint64_t failed{0};
  std::vector<double> latency_us;
  // Traced rounds: one span per query, child of `round_span`.
  SpanLog* spans{nullptr};
  std::uint64_t round_span{0};
  std::uint64_t next_request{1};

  void on_done(PumpSlot& slot, bool ok) {
    const Clock::time_point now = Clock::now();
    latency_us.push_back(
        std::chrono::duration<double, std::micro>(now - slot.sent).count());
    if (spans != nullptr) {
      spans->add("RpcClient::call(kDiscover)", "rpc", round_span, slot.request,
                 slot.sent, now);
    }
    ++completed;
    if (!ok) ++failed;
    if (issued < target) slot.fire();
  }
};

void PumpSlot::fire() {
  ++pump->issued;
  request = pump->next_request++;
  sent = Clock::now();
  client->call(rpc::MessageType::kDiscover, pump->payload->data(),
               pump->payload->size(), msec(1000.0),
               [this](rpc::RpcResult result) { pump->on_done(*this, result.ok); });
}

// Runs one pump round of `queries` on the benchmark's loop with the first
// `in_flight` slots, and returns the process CPU time it took.
double run_round(rpc::EventLoop& loop, Pump& pump, std::uint64_t queries,
                 std::size_t in_flight) {
  pump.target = pump.issued + queries;
  const std::uint64_t done_at = pump.completed + queries;
  const double t0 = process_cpu_s();
  for (std::size_t i = 0; i < in_flight && pump.issued < pump.target; ++i) {
    pump.slots[i].fire();
  }
  while (pump.completed < done_at) loop.run_for(msec(1.0));
  return process_cpu_s() - t0;
}

}  // namespace

Result run_live_loopback(const Options& options) {
  Result result;
  const LiveInputs in = inputs_for(options.seed);
  const std::uint64_t round_queries = options.tiny ? 2'000 : 10'000;
  const std::uint64_t latency_queries = options.tiny ? 1'000 : 10'000;
  const std::size_t all_slots = kConnections * kPerConnection;
  const Clock::time_point budget_start = Clock::now();

  SpanLog spans;  // traced mode only
  const std::uint64_t root = spans.begin("traced_run", "bench");

  // Set-up: start the three daemons several times; keep the last.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> deployment;
  std::size_t leaked = 0;
  for (int i = 0; i < kSetups; ++i) {
    if (deployment) leaked += deployment->teardown();
    const Clock::time_point t0 = Clock::now();
    deployment = std::make_unique<Deployment>(in);
    const Clock::time_point t1 = Clock::now();
    setup_s.push_back(seconds_between(t0, t1));
    if (options.trace) spans.add("Deployment", "rpc", root, 0, t0, t1);
    result.check("daemons_start", deployment->ok);
    if (!deployment->ok) {
      deployment->teardown();
      return result;
    }
  }
  rpc::LiveClient& client = *deployment->client;

  rpc::EventLoop loop;
  std::size_t own_leaked = 0;
  {
    rpc::ConnectionPool pool(loop);
    rpc::Writer request_writer;
    {
      net::DiscoveryRequest request;
      request.client = eden::ClientId{in.client_id + 1};
      request.geohash = in.geohash;
      request.top_n = 3;
      encode(request_writer, request);
    }
    std::deque<rpc::RpcClient> connections;
    Pump pump;
    pump.payload = &request_writer.data();
    for (int c = 0; c < kConnections; ++c) {
      connections.emplace_back(loop, pool, deployment->manager->endpoint());
      for (int p = 0; p < kPerConnection; ++p) {
        pump.slots.push_back(PumpSlot{&pump, &connections.back(), {}, 0});
      }
    }
    pump.latency_us.reserve(round_queries * 4);

    // Warm-up: connections, slabs, scratch buffers, and about a second of
    // load so the virtual CPUs are running before anything is timed.
    const Clock::time_point warm = Clock::now();
    while (seconds_between(warm, Clock::now()) < (options.tiny ? 0.1 : 1.5)) {
      run_round(loop, pump, round_queries / 4, all_slots);
    }
    pump.latency_us.clear();
    const std::uint64_t warm_completed = pump.completed;

    if (!options.trace) {
      // Measured cycles within the budget, each a throughput round and a
      // latency round of fixed work. A throughput round yields its CPU
      // time; a latency round its query latency percentiles, and the
      // frames completed during it go into windows of at least
      // kFramesPerWindow frames. Reported figures are medians over rounds
      // and windows, so one stalled round does not set them.
      std::vector<double> round_s;
      std::vector<double> p50_us;
      std::vector<double> p99_us;
      std::vector<std::pair<std::size_t, std::size_t>> frame_ranges;
      const Clock::time_point measure_start = Clock::now();
      while (round_s.empty() ||
             (seconds_between(budget_start, Clock::now()) +
                      seconds_between(measure_start, Clock::now()) /
                          static_cast<double>(round_s.size()) <
                  options.seconds &&
              round_s.size() < 256)) {
        round_s.push_back(run_round(loop, pump, round_queries, all_slots));
        pump.latency_us.clear();
        const std::size_t from = client.latency_samples().count();
        run_round(loop, pump, latency_queries, 1);
        frame_ranges.emplace_back(from, client.latency_samples().count());
        for (std::size_t w = 0; w + kQueriesPerWindow <= pump.latency_us.size();
             w += kQueriesPerWindow) {
          std::vector<double> window(
              pump.latency_us.begin() + static_cast<std::ptrdiff_t>(w),
              pump.latency_us.begin() +
                  static_cast<std::ptrdiff_t>(w + kQueriesPerWindow));
          p50_us.push_back(percentile(window, 50.0));
          p99_us.push_back(percentile(window, 99.0));
        }
      }
      const std::vector<double> frames = client.latency_samples().values();
      std::vector<double> measured;
      std::vector<double> window;
      std::vector<double> window_p50;
      std::vector<double> window_p99;
      for (const auto& [first_frame, last_frame] : frame_ranges) {
        const auto first =
            frames.begin() + static_cast<std::ptrdiff_t>(first_frame);
        const auto last =
            frames.begin() + static_cast<std::ptrdiff_t>(last_frame);
        measured.insert(measured.end(), first, last);
        window.insert(window.end(), first, last);
        if (window.size() >=
            (options.tiny ? kTinyFramesPerWindow : kFramesPerWindow)) {
          window_p50.push_back(percentile(window, 50.0));
          window_p99.push_back(percentile(window, 99.0));
          window.clear();
        }
      }
      const eden::client::ClientStats stats = client.stats();
      result.attempted += pump.completed - warm_completed;
      result.failed += pump.failed;
      result.check("discovery_no_failures", pump.failed == 0);
      result.check("frame_windows_filled", !window_p99.empty());

      const double run_median = median(round_s);
      result.set("setup_s", median(setup_s));
      result.set("run_s", run_median);
      result.set("discovery_qps",
                 static_cast<double>(round_queries) / run_median);
      result.set("discovery_p50_us", median(p50_us));
      result.set("discovery_p99_us", median(p99_us));
      result.set("frame_p50_ms", percentile(measured, 50.0));
      result.set("frame_p99_ms", percentile(measured, 99.0));
      result.set("frame_ok_ratio",
                 1.0 - static_cast<double>(stats.frames_failed) /
                           static_cast<double>(std::max<std::uint64_t>(
                               1, stats.frames_sent)));
      result.set("live_frame_p50_ms", median(window_p50));
      result.set("live_frame_p99_ms", median(window_p99));
    } else {
      // Traced mode: untraced reference rounds, a traced round with one
      // span per query, then an idle window counting allocations per
      // streamed frame.
      std::vector<double> untraced_rounds;
      for (int i = 0; i < 3; ++i) {
        untraced_rounds.push_back(
            run_round(loop, pump, round_queries, all_slots));
      }
      const double untraced_s = median(untraced_rounds);

      spans.reserve(round_queries + 16);
      const std::uint64_t round_span = spans.begin("pump_round", "rpc", root);
      pump.spans = &spans;
      pump.round_span = round_span;
      const std::uint64_t ops_before = pump.completed;
      const std::uint64_t allocs0 = eden::bench::allocation_count();
      const double traced_s =
          run_round(loop, pump, round_queries, all_slots);
      const std::uint64_t allocs1 = eden::bench::allocation_count();
      pump.spans = nullptr;
      const double ops = static_cast<double>(pump.completed - ops_before);
      spans.end(round_span, {{"rpc.ops", ops},
                             {"allocs", static_cast<double>(allocs1 - allocs0)}});

      // Pool high-water marks: a BufferPool's capacity() is the most
      // chunks it ever had in use at once.
      const rpc::PoolStats manager_pool = deployment->manager->pool_stats();
      const rpc::PoolStats node_pool = deployment->node->pool_stats();
      const rpc::PoolStats client_pool = client.pool_stats();
      const double open_connections = static_cast<double>(
          pool.open_connections() + manager_pool.open_connections +
          node_pool.open_connections + client_pool.open_connections);

      // Idle window: only the client's frame stream runs.
      const std::uint64_t frames0 = client.stats().frames_ok;
      const std::uint64_t window_allocs0 = eden::bench::allocation_count();
      const std::uint64_t window_span = spans.begin("frame_window", "rpc", root);
      std::this_thread::sleep_for(std::chrono::milliseconds(
          options.tiny ? 200 : 1000));
      const std::uint64_t window_allocs1 = eden::bench::allocation_count();
      spans.end(window_span);
      const std::uint64_t frames1 = client.stats().frames_ok;

      // Manager selection on the live registry, timed on its own loop in
      // that thread's CPU time.
      const std::size_t select_calls = options.tiny ? 2'000 : 50'000;
      const std::uint64_t select_span =
          spans.begin("CentralManager::handle_discover", "manager", root);
      net::DiscoveryRequest request;
      request.client = eden::ClientId{in.client_id + 1};
      request.geohash = in.geohash;
      request.top_n = 3;
      const double select_ns = rpc::run_on_loop(
          deployment->manager->loop(), [&] {
            net::DiscoveryResponse response;
            auto& manager = deployment->manager->manager_unsafe();
            const double t0 = thread_cpu_s();
            for (std::size_t i = 0; i < select_calls; ++i) {
              manager.handle_discover(request, response);
            }
            return (thread_cpu_s() - t0) * 1e9 /
                   static_cast<double>(select_calls);
          });
      spans.end(select_span, {{"calls", static_cast<double>(select_calls)},
                              {"ns_per_call", select_ns}});
      const eden::manager::ManagerStats manager_stats = rpc::run_on_loop(
          deployment->manager->loop(),
          [&] { return deployment->manager->manager_unsafe().stats(); });
      const eden::node::EdgeNodeStats node_stats = deployment->node->stats();
      const eden::client::ClientStats client_stats = client.stats();

      result.attempted += pump.completed - warm_completed;
      result.failed += pump.failed;
      result.check("discovery_no_failures", pump.failed == 0);
      result.set("rpc.allocs_per_op",
                 static_cast<double>(allocs1 - allocs0) / std::max(1.0, ops));
      result.set("rpc.allocs_per_frame",
                 static_cast<double>(window_allocs1 - window_allocs0) /
                     static_cast<double>(std::max<std::uint64_t>(
                         1, frames1 - frames0)));
      result.set("rpc.pool_in_use_peak",
                 static_cast<double>(pool.buffers().capacity() +
                                     manager_pool.chunk_capacity +
                                     node_pool.chunk_capacity +
                                     client_pool.chunk_capacity));
      result.set("rpc.open_connections", open_connections);
      result.set("manager.discovery_queries",
                 static_cast<double>(manager_stats.discovery_queries));
      result.set("manager.heartbeats",
                 static_cast<double>(manager_stats.heartbeats));
      result.set("manager.registrations",
                 static_cast<double>(manager_stats.registrations));
      result.set("manager.select_ns", select_ns);
      result.set("client.frames_sent",
                 static_cast<double>(client_stats.frames_sent));
      result.set("client.discoveries",
                 static_cast<double>(client_stats.discoveries));
      result.set("client.probes_sent",
                 static_cast<double>(client_stats.probes_sent));
      result.set("node.frames_processed",
                 static_cast<double>(node_stats.frames_processed));
      result.set("obs.overhead_ratio", traced_s / untraced_s);
      const double manager_est_s = ops * select_ns * 1e-9;
      result.set("harness.unattributed_share",
                 1.0 - manager_est_s / untraced_s);
      spans.end(root, {{"untraced_run_s", untraced_s},
                       {"traced_run_s", traced_s},
                       {"estimate.manager_s", manager_est_s},
                       {"unattributed_share", 1.0 - manager_est_s / untraced_s}});

      const std::string path = dump_spans(spans, options);
      result.check("span_dump_written", !path.empty());
      if (!path.empty()) std::fprintf(stderr, "spans -> %s\n", path.c_str());
    }
    connections.clear();
    pool.close_all();
    own_leaked = pool.buffers().in_use();
  }
  leaked += deployment->teardown();
  result.check("leaked_pool_chunks == 0", leaked == 0 && own_leaked == 0);
  if (!options.trace) result.set("peak_rss_mb", peak_rss_mb());
  return result;
}

}  // namespace edenbench
