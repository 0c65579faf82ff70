// Scale bench: quantifies the discovery pipeline and fleet-construction
// limits of the central-manager tier. Two phases:
//
//   1. Discovery microbench — a Registry loaded with --disc-nodes synthetic
//      node statuses answers randomized discovery queries through the
//      geo-indexed pipeline (GlobalSelector::select over the registry).
//      Reported as queries/sec plus a digest of every response, which
//      stays fixed as long as selection is byte-identical.
//
//   2. Fleet scenario — --nodes edge nodes and --clients EdgeClients in one
//      metro-scale Scenario, run for --seconds of simulated time at a low
//      frame rate. Reported as build/run wall-clock, events processed and
//      peak RSS: the memory- and CPU-bound layer the paper claims is
//      scalable.
//
//   3. Delay sampling — after the smoke fleet has run, SimNetwork::
//      sample_delay is timed over every client→node pair in shuffled order:
//      the per-message network cost at a fleet-sized working set.
//
// `--json [path]` writes machine-readable results to BENCH_scale.json at
// the repo root (or `path`). The smoke configuration (2000 clients / 200
// nodes) is always measured alongside a bigger run so tools/check.sh can
// compare wall-clock against the committed reference.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <utility>
#include <vector>

#include "alloc_hook.h"
#include "bench_common.h"
#include "common/rng.h"
#include "common/table.h"
#include "geo/geohash.h"
#include "harness/experiments.h"
#include "harness/sharded_scenario.h"
#include "manager/central_manager.h"

using namespace eden;

namespace {

constexpr geo::GeoPoint kMetroCenter{44.9778, -93.2650};  // Minneapolis

double wall_seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KB
}

// ---- phase 1: discovery microbench ----

struct DiscoveryResult {
  int nodes{0};
  int queries{0};
  double indexed_qps{0};
  std::uint64_t digest{0};
};

std::uint64_t response_checksum(const net::DiscoveryResponse& response) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& c : response.candidates) {
    h = (h ^ c.node.value) * 1099511628211ull;
  }
  return h;
}

// A registry of `count` nodes scattered over the metro (plus a small tail
// of no-geohash stragglers, which the selector handles via prefix
// fallback).
void fill_registry(manager::Registry& registry, int count, Rng& rng,
                   SimTime now) {
  for (int i = 0; i < count; ++i) {
    net::NodeStatus status;
    status.node = NodeId{static_cast<std::uint32_t>(1000 + i)};
    const auto position =
        harness::random_point_near(kMetroCenter, /*max_km=*/45.0, rng);
    if (i % 64 == 63) {
      status.geohash.clear();  // volunteer without location data
    } else {
      status.geohash = geo::geohash_encode(position, 6);
    }
    status.cores = static_cast<int>(rng.uniform_int(2, 16));
    status.base_frame_ms = rng.uniform(15.0, 60.0);
    status.utilization = rng.uniform(0.0, 0.9);
    status.attached_users = static_cast<int>(rng.uniform_int(0, 12));
    status.network_tag = (i % 3 == 0) ? "isp-a" : "isp-b";
    registry.upsert(status, now);
  }
}

std::vector<net::DiscoveryRequest> make_requests(int count, Rng& rng) {
  std::vector<net::DiscoveryRequest> requests;
  requests.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    net::DiscoveryRequest request;
    request.client = ClientId{static_cast<std::uint32_t>(i)};
    request.geohash = geo::geohash_encode(
        harness::random_point_near(kMetroCenter, 40.0, rng), 6);
    request.network_tag = (i % 2 == 0) ? "isp-a" : "isp-b";
    request.top_n = 3;
    requests.push_back(std::move(request));
  }
  return requests;
}

DiscoveryResult run_discovery_bench(int nodes, int queries) {
  DiscoveryResult result;
  result.nodes = nodes;
  result.queries = queries;

  Rng rng(2024);
  const SimTime now = sec(100.0);
  manager::Registry registry(sec(3.0));
  fill_registry(registry, nodes, rng, now);
  manager::GlobalSelector selector;
  const auto requests = make_requests(queries, rng);

  const double indexed_sec = wall_seconds([&] {
    for (const auto& request : requests) {
      const auto response = selector.select(request, registry, now);
      result.digest = (result.digest * 31) ^ response_checksum(response);
    }
  });
  result.indexed_qps = queries / indexed_sec;
  return result;
}

// ---- phase 2: fleet scenario ----

struct ScaleResult {
  int clients{0};
  int nodes{0};
  double sim_seconds{0};
  double build_sec{0};
  double run_sec{0};
  double peak_rss_mb{0};
  // The engine's queue-storage high-water (Simulator::queue_storage_bytes,
  // which never shrinks).
  double queue_kb{0};
  std::uint64_t events{0};
  std::uint64_t frames_ok{0};
  std::uint64_t discoveries{0};
  std::size_t live_nodes{0};
  double latency_p50_ms{0};
  double latency_p99_ms{0};
  // Heap allocations per event over the run phase (steady state: the fleet
  // is built, every message then flows through the pooled rpc path).
  double allocs_per_event{0};
};

struct NetworkTiming {
  std::size_t pairs{0};
  std::size_t calls{0};
  double sample_delay_ns{0};
  double mean_delay_ms{0};
};

// CPU time of the calling thread, the clock edenbench times isolated layer
// calls with.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// SimNetwork::sample_delay over every client→node pair of a fleet that has
// finished its run, in shuffled order, three passes. Fleet-sized and
// unordered, unlike a hot loop over a few hosts; taken after the run, so
// it changes nothing the fleet reports.
NetworkTiming time_sample_delay(harness::Scenario& scenario, Rng rng) {
  std::vector<std::pair<HostId, HostId>> pairs;
  pairs.reserve(scenario.edge_client_count() * scenario.node_count());
  for (std::size_t c = 0; c < scenario.edge_client_count(); ++c) {
    for (std::size_t n = 0; n < scenario.node_count(); ++n) {
      pairs.emplace_back(scenario.edge_client(c).id(), scenario.node_id(n));
    }
  }
  std::shuffle(pairs.begin(), pairs.end(), rng);
  constexpr std::size_t kPasses = 3;
  const double frame_bytes = client::ClientConfig{}.app.frame_bytes;
  net::SimNetwork& fabric = scenario.fabric();
  SimDuration sum = 0;
  const double t0 = thread_cpu_seconds();
  for (std::size_t pass = 0; pass < kPasses; ++pass) {
    for (const auto& [from, to] : pairs) {
      sum += fabric.sample_delay(from, to, frame_bytes);
    }
  }
  const double cpu_s = thread_cpu_seconds() - t0;
  NetworkTiming timing;
  timing.pairs = pairs.size();
  timing.calls = pairs.size() * kPasses;
  if (timing.calls > 0) {
    timing.sample_delay_ns = cpu_s * 1e9 / static_cast<double>(timing.calls);
    timing.mean_delay_ms = to_ms(sum) / static_cast<double>(timing.calls);
  }
  return timing;
}

harness::NodeSpec fleet_node_spec(std::size_t index, Rng& rng) {
  harness::NodeSpec spec;
  spec.name = "n" + std::to_string(index);
  spec.position = harness::random_point_near(kMetroCenter, 45.0, rng);
  spec.cores = static_cast<int>(rng.uniform_int(2, 8));
  spec.base_frame_ms = rng.uniform(20.0, 45.0);
  spec.network_tag = (index % 3 == 0) ? "isp-a" : "isp-b";
  return spec;
}

// The smoke/scale fleet: `nodes` started nodes around the metro, then
// `clients` low-rate clients whose joins are staggered across the first 5
// simulated seconds so discovery load ramps like a real fleet, not one
// thundering herd. The layout stream is a pure function of the seed, so
// every harness configuration builds the same geometry.
void build_fleet(harness::ShardedScenario& scenario, int clients, int nodes) {
  Rng layout = Rng(scenario.config().base.seed).fork("scale-layout");
  const std::size_t first_node = scenario.add_nodes(
      harness::NodeSpec{}, static_cast<std::size_t>(nodes),
      [&](std::size_t i, harness::NodeSpec& spec) {
        spec = fleet_node_spec(i, layout);
      });
  for (std::size_t i = 0; i < static_cast<std::size_t>(nodes); ++i) {
    scenario.start_node(first_node + i);
  }
  const std::size_t first_client = scenario.add_edge_clients(
      [&](std::size_t i) {
        harness::ClientSpot spot;
        spot.name = "u" + std::to_string(i);
        spot.position = harness::random_point_near(kMetroCenter, 40.0, layout);
        spot.network_tag = (i % 2 == 0) ? "isp-a" : "isp-b";
        return spot;
      },
      [](std::size_t) {
        client::ClientConfig client_config;
        client_config.top_n = 3;
        client_config.app.max_fps = 2.0;
        client_config.app.min_fps = 0.5;
        client_config.app.adaptive_rate = false;
        return client_config;
      },
      static_cast<std::size_t>(clients));
  for (std::size_t i = 0; i < static_cast<std::size_t>(clients); ++i) {
    const SimTime start_at =
        msec(5000.0 * static_cast<double>(i) / std::max(1, clients));
    scenario.schedule_at_client(first_client + i, start_at,
                                [](client::EdgeClient& c) { c.start(); });
  }
}

// `network`, when given, receives the delay-sampling timing of the fleet.
ScaleResult run_scale_scenario(int clients, int nodes, double sim_seconds,
                               NetworkTiming* network = nullptr) {
  ScaleResult result;
  result.clients = clients;
  result.nodes = nodes;
  result.sim_seconds = sim_seconds;

  harness::ScenarioConfig config;
  config.seed = 7;
  auto scenario = std::make_unique<harness::Scenario>(config);
  result.build_sec =
      wall_seconds([&] { build_fleet(*scenario, clients, nodes); });

  const std::uint64_t allocs_before = bench::allocation_count();
  const std::uint64_t events_before = scenario->simulator().events_processed();
  result.run_sec =
      wall_seconds([&] { scenario->run_until(sec(sim_seconds)); });
  const std::uint64_t run_events =
      scenario->simulator().events_processed() - events_before;
  if (run_events > 0) {
    result.allocs_per_event =
        static_cast<double>(bench::allocation_count() - allocs_before) /
        static_cast<double>(run_events);
  }

  result.events = scenario->simulator().events_processed();
  result.live_nodes = scenario->central_manager().live_nodes();
  result.discoveries = scenario->central_manager().stats().discovery_queries;
  const harness::FleetStats fleet = scenario->fleet_stats();
  result.frames_ok = fleet.totals.frames_ok;
  result.latency_p50_ms = fleet.latency_p50_ms;
  result.latency_p99_ms = fleet.latency_p99_ms;
  result.peak_rss_mb = peak_rss_mb();
  result.queue_kb =
      static_cast<double>(scenario->simulator().queue_storage_bytes()) / 1024.0;
  if (network != nullptr) {
    *network = time_sample_delay(*scenario, Rng(config.seed).fork("pairs"));
  }
  return result;
}

// ---- phase 3: shard sweep ----
//
// The same smoke-scale fleet through harness::ShardedScenario at several
// shard counts. frames_ok and the latency percentiles must be identical in
// every entry (conservative windows change nothing observable); per-shard
// event counts and the barrier-stall fraction quantify the parallel
// headroom a multi-core host would get out of the partition.

struct ShardSweepResult {
  unsigned shards{0};
  unsigned threads{1};
  double build_sec{0};
  double run_sec{0};
  std::uint64_t events{0};
  std::uint64_t frames_ok{0};
  double latency_p50_ms{0};
  double latency_p99_ms{0};
  std::uint64_t windows{0};
  double window_ms{0};
  std::uint64_t cross_shard_messages{0};
  // stalled (domain, window) pairs / (windows * shards): the fraction of
  // per-window domain slots that had nothing to do — idle barrier time a
  // parallel pool cannot recover.
  double stall_fraction{0};
  std::vector<std::uint64_t> events_per_domain;
};

ShardSweepResult run_shard_scenario(int clients, int nodes,
                                    double sim_seconds, unsigned shards,
                                    unsigned threads) {
  ShardSweepResult result;
  result.shards = shards;
  result.threads = threads;

  harness::ShardedConfig config;
  config.base.seed = 7;
  config.shards = shards;
  config.threads = threads;
  // Exercise the window loop even at one shard so every entry measures the
  // same machinery and the stall fraction is comparable.
  config.force_windows = true;
  auto scenario = std::make_unique<harness::ShardedScenario>(config);
  result.build_sec =
      wall_seconds([&] { build_fleet(*scenario, clients, nodes); });

  result.run_sec =
      wall_seconds([&] { scenario->run_until(sec(sim_seconds)); });

  const harness::FleetStats fleet = scenario->fleet_stats();
  result.frames_ok = fleet.totals.frames_ok;
  result.latency_p50_ms = fleet.latency_p50_ms;
  result.latency_p99_ms = fleet.latency_p99_ms;
  const harness::ShardStats stats = scenario->shard_stats();
  result.events_per_domain = stats.events_per_domain;
  for (const std::uint64_t e : stats.events_per_domain) result.events += e;
  result.windows = stats.windows;
  result.window_ms = to_ms(stats.window_length);
  result.cross_shard_messages = stats.cross_shard_messages;
  const std::uint64_t slots = stats.windows * shards;
  if (slots > 0) {
    result.stall_fraction =
        static_cast<double>(stats.stalled_domain_windows) /
        static_cast<double>(slots);
  }
  return result;
}

bool sweep_identical(const std::vector<ShardSweepResult>& sweep) {
  for (const ShardSweepResult& r : sweep) {
    if (r.frames_ok != sweep.front().frames_ok ||
        r.latency_p50_ms != sweep.front().latency_p50_ms ||
        r.latency_p99_ms != sweep.front().latency_p99_ms) {
      return false;
    }
  }
  return true;
}

void print_shard_sweep(const std::vector<ShardSweepResult>& sweep) {
  Table table({"shards", "threads", "run (s)", "events", "frames ok",
               "p50 (ms)", "p99 (ms)", "windows", "cross msgs", "stall"});
  for (const ShardSweepResult& r : sweep) {
    table.add_row(
        {Table::integer(static_cast<std::int64_t>(r.shards)),
         Table::integer(static_cast<std::int64_t>(r.threads)),
         Table::num(r.run_sec, 2),
         Table::integer(static_cast<std::int64_t>(r.events)),
         Table::integer(static_cast<std::int64_t>(r.frames_ok)),
         Table::num(r.latency_p50_ms, 1), Table::num(r.latency_p99_ms, 1),
         Table::integer(static_cast<std::int64_t>(r.windows)),
         Table::integer(static_cast<std::int64_t>(r.cross_shard_messages)),
         Table::num(r.stall_fraction, 3)});
  }
  table.print();
  std::printf("observables identical across shard counts: %s\n",
              sweep_identical(sweep) ? "yes" : "NO — DETERMINISM BUG");
}

void print_scale(const ScaleResult& r) {
  Table table({"clients", "nodes", "build (s)", "run (s)", "events", "RSS (MB)",
               "queue (KB)", "frames ok", "p50 (ms)", "p99 (ms)"});
  table.add_row({Table::integer(r.clients), Table::integer(r.nodes),
                 Table::num(r.build_sec, 2), Table::num(r.run_sec, 2),
                 Table::integer(static_cast<std::int64_t>(r.events)),
                 Table::num(r.peak_rss_mb, 1), Table::num(r.queue_kb, 1),
                 Table::integer(static_cast<std::int64_t>(r.frames_ok)),
                 Table::num(r.latency_p50_ms, 1), Table::num(r.latency_p99_ms, 1)});
  table.print();
}

void write_json(const std::string& path, const DiscoveryResult& disc,
                const ScaleResult& main_run, const ScaleResult& smoke,
                const NetworkTiming& network,
                const std::vector<ShardSweepResult>& sweep) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_scale: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"discovery\": {\"nodes\": %d, \"queries\": %d,\n"
               "    \"indexed_qps\": %.1f, \"digest\": \"%016llx\"},\n",
               disc.nodes, disc.queries, disc.indexed_qps,
               static_cast<unsigned long long>(disc.digest));
  const auto scale_json = [&](const char* key, const ScaleResult& r) {
    std::fprintf(f,
                 "  \"%s\": {\"clients\": %d, \"nodes\": %d, "
                 "\"sim_seconds\": %.0f,\n"
                 "    \"build_sec\": %.3f, \"run_sec\": %.3f, "
                 "\"wall_sec\": %.3f,\n"
                 "    \"events\": %llu, \"frames_ok\": %llu, "
                 "\"discoveries\": %llu,\n"
                 "    \"peak_rss_mb\": %.1f, \"queue_kb\": %.1f,\n"
                 "    \"latency_p50_ms\": %.1f, \"latency_p99_ms\": %.1f,\n"
                 "    \"allocs_per_event\": %.3f}",
                 key, r.clients, r.nodes, r.sim_seconds, r.build_sec, r.run_sec,
                 r.build_sec + r.run_sec,
                 static_cast<unsigned long long>(r.events),
                 static_cast<unsigned long long>(r.frames_ok),
                 static_cast<unsigned long long>(r.discoveries), r.peak_rss_mb,
                 r.queue_kb, r.latency_p50_ms, r.latency_p99_ms,
                 r.allocs_per_event);
  };
  scale_json("scale", main_run);
  std::fprintf(f, ",\n");
  scale_json("smoke", smoke);
  std::fprintf(f,
               ",\n  \"network\": {\"pairs\": %zu, \"calls\": %zu, "
               "\"sample_delay_ns\": %.1f, \"mean_delay_ms\": %.3f}",
               network.pairs, network.calls, network.sample_delay_ns,
               network.mean_delay_ms);
  if (!sweep.empty()) {
    // One line per entry so shell gates can grep a whole record at once.
    std::fprintf(f, ",\n  \"shard_sweep\": [\n");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const ShardSweepResult& r = sweep[i];
      std::fprintf(f,
                   "    {\"shards\": %u, \"threads\": %u, "
                   "\"build_sec\": %.3f, "
                   "\"run_sec\": %.3f, \"events\": %llu, "
                   "\"frames_ok\": %llu, \"latency_p50_ms\": %.1f, "
                   "\"latency_p99_ms\": %.1f, \"windows\": %llu, "
                   "\"window_ms\": %.3f, \"cross_shard_messages\": %llu, "
                   "\"stall_fraction\": %.4f, \"events_per_domain\": [",
                   r.shards, r.threads, r.build_sec, r.run_sec,
                   static_cast<unsigned long long>(r.events),
                   static_cast<unsigned long long>(r.frames_ok),
                   r.latency_p50_ms, r.latency_p99_ms,
                   static_cast<unsigned long long>(r.windows), r.window_ms,
                   static_cast<unsigned long long>(r.cross_shard_messages),
                   r.stall_fraction);
      for (std::size_t d = 0; d < r.events_per_domain.size(); ++d) {
        std::fprintf(f, "%s%llu", d == 0 ? "" : ", ",
                     static_cast<unsigned long long>(r.events_per_domain[d]));
      }
      std::fprintf(f, "]}%s\n", i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"identical_across_shards\": %s",
                 sweep_identical(sweep) ? "true" : "false");
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("\njson -> %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  int clients = 10'000;
  int nodes = 1'000;
  double seconds = 60.0;
  int disc_nodes = 1'000;
  int disc_queries = 20'000;
  std::string json_path;
  bool json = false;
  std::string shard_list = "1,2,4,8";  // "0" skips the sweep
  int threads = 1;  // WindowPool width for the shard sweep (0 = hardware)
  for (int i = 1; i < argc; ++i) {
    const auto int_flag = [&](const char* flag, int& out) {
      if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) {
        out = std::atoi(argv[++i]);
        return true;
      }
      return false;
    };
    if (int_flag("--clients", clients) || int_flag("--nodes", nodes) ||
        int_flag("--disc-nodes", disc_nodes) ||
        int_flag("--disc-queries", disc_queries) ||
        int_flag("--threads", threads)) {
      continue;
    }
    if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shard_list = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
    }
  }
  if (json && json_path.empty()) {
    json_path = std::string(EDEN_SOURCE_DIR) + "/BENCH_scale.json";
  }

  bench::print_header(
      "scale — discovery throughput and 10k-client fleet construction",
      "the central tier answers metro-scale discovery from an index, not a "
      "copy; fleet construction is bulk, not per-entity");

  print_section("discovery microbench (registry -> selector pipeline)");
  const DiscoveryResult disc = run_discovery_bench(disc_nodes, disc_queries);
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(disc.digest));
  Table dtable({"nodes", "queries", "indexed q/s", "response digest"});
  dtable.add_row({Table::integer(disc.nodes), Table::integer(disc.queries),
                  Table::num(disc.indexed_qps, 0), digest});
  dtable.print();

  print_section("smoke fleet (2000 clients / 200 nodes)");
  NetworkTiming network;
  const ScaleResult smoke = run_scale_scenario(2000, 200, seconds, &network);
  print_scale(smoke);
  std::printf("sample_delay over %zu client->node pairs: %.1f ns/call "
              "(mean delay %.3f ms)\n",
              network.pairs, network.sample_delay_ns, network.mean_delay_ms);

  ScaleResult main_run = smoke;
  if (clients != 2000 || nodes != 200) {
    std::printf("\n");
    print_section("fleet scenario");
    main_run = run_scale_scenario(clients, nodes, seconds);
    print_scale(main_run);
  }

  // Shard sweep at smoke scale: same fleet through the geohash-partitioned
  // simulator; every entry must report identical observables.
  std::vector<ShardSweepResult> sweep;
  {
    const char* p = shard_list.c_str();
    while (*p != '\0') {
      char* end = nullptr;
      const unsigned long v = std::strtoul(p, &end, 10);
      if (end == p) break;
      if (v > 0) {
        sweep.push_back(
            run_shard_scenario(2000, 200, seconds, static_cast<unsigned>(v),
                               static_cast<unsigned>(std::max(0, threads))));
      }
      p = (*end == ',') ? end + 1 : end;
    }
  }
  if (!sweep.empty()) {
    std::printf("\n");
    print_section("shard sweep (2000 clients / 200 nodes, sharded harness)");
    print_shard_sweep(sweep);
  }

  if (json) write_json(json_path, disc, main_run, smoke, network, sweep);
  return 0;
}
