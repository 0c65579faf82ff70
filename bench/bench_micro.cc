// Micro-benchmarks (google-benchmark) for EDEN's hot paths: the event
// queue, the GeoHash codec, probing-result sorting, the Erlang-C predictor
// and the optimal-assignment solver.
//
// `bench_micro --json [path]` skips google-benchmark and instead runs the
// event-engine + network hot-path suite with a hand-rolled timer, writing
// machine-readable results (events/sec, callback allocs/event, messaging
// ns/op) to BENCH_micro.json at the repo root (or `path`). The JSON also
// carries the seed-engine numbers measured on the same machine when the
// event-engine overhaul landed, so the speedup claim is reproducible.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "alloc_hook.h"
#include "baselines/latency_model.h"
#include "baselines/optimal.h"
#include "client/selection_policy.h"
#include "common/rng.h"
#include "geo/geohash.h"
#include "net/api.h"
#include "net/host_table.h"
#include "net/network_model.h"
#include "net/sim_network.h"
#include "sim/simulator.h"

namespace {

using namespace eden;

void BM_SimulatorScheduleRun(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    Rng rng(1);
    for (int i = 0; i < events; ++i) {
      simulator.schedule_at(static_cast<SimTime>(rng.uniform_int(0, 1'000'000)),
                            [] {});
    }
    simulator.run_all();
    benchmark::DoNotOptimize(simulator.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_SimulatorScheduleRun)
    ->Arg(1'000)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Arg(1'000'000);

// The timeout pattern EDEN protocol code leans on: a pool of pending
// timeouts where each operation cancels one and schedules a replacement,
// with the clock advancing enough for a fraction to fire.
void BM_SimulatorCancelChurn(benchmark::State& state) {
  sim::Simulator simulator;
  Rng rng(2);
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 10'000; ++i) {
    ids.push_back(simulator.schedule_at(
        static_cast<SimTime>(1000 + rng.uniform_int(0, 50'000)), [] {}));
  }
  int i = 0;
  for (auto _ : state) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1));
    simulator.cancel(ids[j]);
    ids[j] = simulator.schedule_at(
        simulator.now() + 1000 + static_cast<SimTime>(rng.uniform_int(0, 50'000)),
        [] {});
    if ((i++ & 15) == 0) simulator.run_until(simulator.now() + 20);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorCancelChurn);

void BM_GeohashEncode(benchmark::State& state) {
  Rng rng(2);
  const geo::GeoPoint p{rng.uniform(-90, 90), rng.uniform(-180, 180)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        geo::geohash_encode(p, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_GeohashEncode)->Arg(6)->Arg(12);

void BM_GeohashDecode(benchmark::State& state) {
  const std::string hash = geo::geohash_encode({44.9778, -93.2650}, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::geohash_decode(hash));
  }
}
BENCHMARK(BM_GeohashDecode);

void BM_GeohashNeighbors(benchmark::State& state) {
  const std::string hash = geo::geohash_encode({44.9778, -93.2650}, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::geohash_neighbors(hash));
  }
}
BENCHMARK(BM_GeohashNeighbors);

void BM_SortCandidates(benchmark::State& state) {
  Rng rng(3);
  std::vector<client::ProbeResult> results;
  for (int i = 0; i < state.range(0); ++i) {
    client::ProbeResult r;
    r.node = NodeId{static_cast<std::uint32_t>(i)};
    r.d_prop_ms = rng.uniform(5, 50);
    r.process.whatif_ms = rng.uniform(20, 80);
    r.process.current_ms = rng.uniform(20, 80);
    r.process.attached_users = static_cast<int>(rng.uniform_int(0, 8));
    results.push_back(r);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(client::sort_candidates(
        results, client::LocalPolicy::kGlobalOverhead, {}, 12345));
  }
}
BENCHMARK(BM_SortCandidates)->Arg(5)->Arg(50);

void BM_ErlangC(benchmark::State& state) {
  for (auto _ : state) {
    for (int c = 1; c <= 16; ++c) {
      benchmark::DoNotOptimize(baselines::erlang_c(c, 0.8 * c));
    }
  }
}
BENCHMARK(BM_ErlangC);

baselines::PredictInput make_input(int users, int nodes, std::uint64_t seed) {
  Rng rng(seed);
  baselines::PredictInput input;
  for (int j = 0; j < nodes; ++j) {
    baselines::NodeInfo info;
    info.id = NodeId{static_cast<std::uint32_t>(j)};
    info.cores = static_cast<int>(rng.uniform_int(1, 8));
    info.base_frame_ms = rng.uniform(15, 60);
    input.nodes.push_back(info);
  }
  for (int i = 0; i < users; ++i) {
    std::vector<double> rtt;
    std::vector<double> trans;
    for (int j = 0; j < nodes; ++j) {
      rtt.push_back(rng.uniform(5, 55));
      trans.push_back(rng.uniform(1, 5));
    }
    input.rtt_ms.push_back(std::move(rtt));
    input.trans_ms.push_back(std::move(trans));
  }
  return input;
}

void BM_AverageLatency(benchmark::State& state) {
  const auto input = make_input(15, 9, 7);
  std::vector<int> assignment(15);
  Rng rng(8);
  for (auto& a : assignment) a = static_cast<int>(rng.uniform_int(0, 8));
  for (auto _ : state) {
    benchmark::DoNotOptimize(baselines::average_latency_ms(input, assignment));
  }
}
BENCHMARK(BM_AverageLatency);

void BM_OptimalSolver(benchmark::State& state) {
  const auto input = make_input(static_cast<int>(state.range(0)),
                                static_cast<int>(state.range(1)), 9);
  for (auto _ : state) {
    Rng rng(10);
    benchmark::DoNotOptimize(baselines::solve_optimal(input, rng));
  }
}
BENCHMARK(BM_OptimalSolver)->Args({6, 4})->Args({15, 9});

// ---------------------------------------------------------------------------
// --json mode: hand-rolled timing of the hot-path suite, best of `kRounds`.

using JsonClock = std::chrono::steady_clock;

double best_of(int rounds, double (*fn)(int), int arg) {
  double best = 1e300;
  for (int r = 0; r < rounds; ++r) {
    const double v = fn(arg);
    if (v < best) best = v;
  }
  return best;
}

double time_schedule_run_ns(int events) {
  sim::Simulator simulator;
  Rng rng(1);
  const auto t0 = JsonClock::now();
  for (int i = 0; i < events; ++i) {
    simulator.schedule_at(static_cast<SimTime>(rng.uniform_int(0, 1'000'000)),
                          [] {});
  }
  simulator.run_all();
  const auto t1 = JsonClock::now();
  benchmark::DoNotOptimize(simulator.events_processed());
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / events;
}

double time_cancel_churn_ns(int ops) {
  sim::Simulator simulator;
  Rng rng(2);
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 10'000; ++i) {
    ids.push_back(simulator.schedule_at(
        static_cast<SimTime>(1000 + rng.uniform_int(0, 50'000)), [] {}));
  }
  const auto t0 = JsonClock::now();
  for (int i = 0; i < ops; ++i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1));
    simulator.cancel(ids[j]);
    ids[j] = simulator.schedule_at(
        simulator.now() + 1000 +
            static_cast<SimTime>(rng.uniform_int(0, 50'000)),
        [] {});
    if ((i & 15) == 0) simulator.run_until(simulator.now() + 20);
  }
  const auto t1 = JsonClock::now();
  benchmark::DoNotOptimize(simulator.events_processed());
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / ops;
}

// Full request/response round trips over the simulated fabric on a 2-host
// matrix world (no jitter: this isolates the rpc machinery itself — state
// bookkeeping, callback storage, timeout schedule/cancel — from the delay
// model). Replies are immediate so the 400 ms timeout never fires and every
// rpc completes. Completions are net::Done objects, exactly what the sim
// stubs hand the fabric, so a Done that spills out of its rpc slot shows
// up in allocs_per_rpc.
double time_rpc_async_ns(int rpcs) {
  sim::Simulator simulator;
  net::MatrixNetwork model(20.0, 100.0, /*jitter_sigma=*/0.0);
  net::HostTable hosts;
  hosts.set_alive(HostId{1}, true);
  hosts.set_alive(HostId{2}, true);
  net::SimNetwork network(simulator, model, hosts, /*jitter_seed=*/7);
  int completed = 0;
  const auto issue = [&](int count) {
    for (int i = 0; i < count; ++i) {
      network.rpc_async<int>(
          HostId{1}, HostId{2}, 200.0, 200.0, msec(400.0),
          [](auto reply) { reply(42); },
          net::Done<std::optional<int>>(
              [&completed](std::optional<int> response) {
                completed += response.has_value() ? 1 : 0;
              }));
      // Keep a bounded number of rpcs in flight, like a probing client.
      if ((i & 63) == 63) simulator.run_all();
    }
    simulator.run_all();
  };
  issue(2'000);  // warm the event arena / rpc pool / allocator
  const auto t0 = JsonClock::now();
  issue(rpcs);
  const auto t1 = JsonClock::now();
  benchmark::DoNotOptimize(completed);
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / rpcs;
}

// One-way delay sampling through SimNetwork::sample_delay on a jittered
// GeoNetwork (sigma 0.08, the fleet-bench configuration): pair-metric
// computation + hashed log-normal jitter draw + transfer delay. A 256-host walk
// is a hot loop; bench_scale's "network" object times the same call over
// a fleet-sized pair set.
double time_sample_owd_ns(int samples) {
  sim::Simulator simulator;
  net::GeoNetwork model(/*jitter_sigma=*/0.08);
  Rng layout(11);
  constexpr std::uint32_t kHosts = 256;
  for (std::uint32_t i = 0; i < kHosts; ++i) {
    const auto tier = static_cast<net::AccessTier>(layout.uniform_int(0, 5));
    model.add_host(HostId{i + 1},
                   {layout.uniform(-60, 60), layout.uniform(-180, 180)}, tier,
                   static_cast<int>(layout.uniform_int(0, 4)));
  }
  net::HostTable hosts;
  net::SimNetwork network(simulator, model, hosts, /*jitter_seed=*/9);
  SimDuration acc = 0;
  std::uint32_t a = 1, b = 2;
  const auto walk = [&](int count, SimDuration& sum) {
    for (int i = 0; i < count; ++i) {
      a = a % kHosts + 1;
      b = (b + 7) % kHosts + 1;
      sum += network.sample_delay(HostId{a}, HostId{b}, 1500.0);
    }
  };
  SimDuration warm_sum = 0;
  walk(70'000, warm_sum);  // warm the caches and the branch predictor
  benchmark::DoNotOptimize(warm_sum);
  const auto t0 = JsonClock::now();
  walk(samples, acc);
  const auto t1 = JsonClock::now();
  benchmark::DoNotOptimize(acc);
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / samples;
}

// dropped() + delay_factor() under a realistic churn scenario: hundreds of
// cut/slow windows plus host isolations, queried with a monotonically
// advancing clock (the only access pattern the simulator produces).
double time_fault_lookup_ns(int queries) {
  net::FaultInjector faults;
  Rng rng(13);
  constexpr std::uint32_t kHosts = 64;
  const auto random_host = [&] {
    return HostId{static_cast<std::uint32_t>(rng.uniform_int(1, kHosts))};
  };
  for (int i = 0; i < 256; ++i) {
    HostId a = random_host();
    HostId b = random_host();
    if (a == b) b = HostId{a.value % kHosts + 1};
    const SimTime begin = sec(rng.uniform(0.0, 50.0));
    faults.cut_link(a, b, begin, begin + sec(rng.uniform(0.5, 10.0)));
    HostId c = random_host();
    HostId d = random_host();
    if (c == d) d = HostId{c.value % kHosts + 1};
    const SimTime begin2 = sec(rng.uniform(0.0, 50.0));
    faults.slow_link(c, d, 2.0, begin2, begin2 + sec(rng.uniform(0.5, 10.0)));
  }
  for (std::uint32_t i = 0; i < 16; ++i) {
    const SimTime begin = sec(rng.uniform(0.0, 50.0));
    faults.isolate_host(HostId{i * 4 + 1}, begin,
                        begin + sec(rng.uniform(0.5, 5.0)));
  }
  unsigned drops = 0;
  double factor_acc = 0.0;
  const auto t0 = JsonClock::now();
  for (int i = 0; i < queries; ++i) {
    const HostId a{static_cast<std::uint32_t>(i * 7 % kHosts + 1)};
    const HostId b{static_cast<std::uint32_t>(i * 13 % kHosts + 1)};
    const SimTime now =
        sec(60.0) * static_cast<SimTime>(i) / static_cast<SimTime>(queries);
    drops += faults.dropped(a, b, now) ? 1u : 0u;
    factor_acc += faults.delay_factor(a, b, now);
  }
  const auto t1 = JsonClock::now();
  benchmark::DoNotOptimize(drops);
  benchmark::DoNotOptimize(factor_acc);
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / queries;
}

int run_json(const std::string& path) {
  // Seed-engine numbers (std::priority_queue + unordered_map simulator)
  // measured with this same harness on the same machine when the overhaul
  // landed. They make speedup_vs_seed reproducible without rebuilding the
  // old engine.
  struct SeedRef {
    int events;
    double ns_per_event;
  };
  const SeedRef seed_sched[] = {
      {1'000, 110.3}, {10'000, 160.2}, {100'000, 359.8}, {1'000'000, 1523.1}};
  const double seed_churn_ns = 239.7;
  // Messaging-layer numbers of the shared_ptr/std::function rpc path, the
  // un-hoisted sample_delay and the linear-scan FaultInjector, measured with
  // this same harness on the same machine just before the messaging-hot-path
  // overhaul landed.
  const double seed_rpc_async_ns = 383.4;
  const double seed_rpc_allocs = 7.020;
  const double seed_sample_owd_ns = 50.6;
  const double seed_fault_lookup_ns = 573.1;

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "bench_micro: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"schema\": \"eden-bench-micro-v1\",\n");
  std::fprintf(out, "  \"simulator_schedule_run\": [\n");
  double ratio_product = 1.0;
  int ratio_count = 0;
  for (std::size_t i = 0; i < std::size(seed_sched); ++i) {
    const int events = seed_sched[i].events;
    const int rounds = events >= 1'000'000 ? 3 : 7;
    const std::uint64_t allocs0 = sim::Callback::heap_allocations();
    const double ns = best_of(rounds, time_schedule_run_ns, events);
    const double allocs_per_event =
        static_cast<double>(sim::Callback::heap_allocations() - allocs0) /
        (static_cast<double>(events) * rounds);
    const double speedup = seed_sched[i].ns_per_event / ns;
    ratio_product *= speedup;
    ++ratio_count;
    std::fprintf(out,
                 "    {\"events\": %d, \"ns_per_event\": %.1f, "
                 "\"events_per_sec\": %.0f, \"callback_allocs_per_event\": "
                 "%.4f, \"seed_ns_per_event\": %.1f, \"speedup_vs_seed\": "
                 "%.2f}%s\n",
                 events, ns, 1e9 / ns, allocs_per_event,
                 seed_sched[i].ns_per_event, speedup,
                 i + 1 < std::size(seed_sched) ? "," : "");
    std::printf("schedule_run %7d: %.1f ns/ev (%.2fM ev/s, %.2fx seed)\n",
                events, ns, 1e3 / ns, speedup);
  }
  std::fprintf(out, "  ],\n");

  const double churn_ns = best_of(5, time_cancel_churn_ns, 1'000'000);
  ratio_product *= seed_churn_ns / churn_ns;
  ++ratio_count;
  std::fprintf(out,
               "  \"simulator_cancel_churn\": {\"ns_per_op\": %.1f, "
               "\"ops_per_sec\": %.0f, \"seed_ns_per_op\": %.1f, "
               "\"speedup_vs_seed\": %.2f},\n",
               churn_ns, 1e9 / churn_ns, seed_churn_ns,
               seed_churn_ns / churn_ns);
  std::printf("cancel_churn: %.1f ns/op (%.2fx seed)\n", churn_ns,
              seed_churn_ns / churn_ns);

  // ---- messaging hot path (rpc_async / sample_owd / fault_lookup) ----
  const auto safe_ratio = [](double seed, double measured) {
    return seed > 0.0 && measured > 0.0 ? seed / measured : 1.0;
  };
  double messaging_product = 1.0;
  int messaging_count = 0;

  const std::uint64_t rpc_allocs0 = eden::bench::allocation_count();
  constexpr int kRpcRounds = 5;
  constexpr int kRpcCount = 200'000;
  const double rpc_ns = best_of(kRpcRounds, time_rpc_async_ns, kRpcCount);
  // Warmup issues 2'000 extra rpcs per round; fold them into the divisor so
  // the alloc figure cannot flatter the steady state.
  const double rpc_allocs =
      static_cast<double>(eden::bench::allocation_count() - rpc_allocs0) /
      (static_cast<double>(kRpcRounds) * (kRpcCount + 2'000));
  messaging_product *= safe_ratio(seed_rpc_async_ns, rpc_ns);
  ++messaging_count;
  std::fprintf(out,
               "  \"rpc_async\": {\"ns_per_rpc\": %.1f, \"allocs_per_rpc\": "
               "%.3f,\n    \"seed_ns_per_rpc\": %.1f, \"seed_allocs_per_rpc\": "
               "%.3f, \"speedup_vs_seed\": %.2f},\n",
               rpc_ns, rpc_allocs, seed_rpc_async_ns, seed_rpc_allocs,
               safe_ratio(seed_rpc_async_ns, rpc_ns));
  std::printf("rpc_async: %.1f ns/rpc, %.3f allocs/rpc (%.2fx seed)\n", rpc_ns,
              rpc_allocs, safe_ratio(seed_rpc_async_ns, rpc_ns));

  const double owd_ns = best_of(5, time_sample_owd_ns, 2'000'000);
  messaging_product *= safe_ratio(seed_sample_owd_ns, owd_ns);
  ++messaging_count;
  std::fprintf(out,
               "  \"sample_owd\": {\"ns_per_sample\": %.1f, "
               "\"seed_ns_per_sample\": %.1f, \"speedup_vs_seed\": %.2f},\n",
               owd_ns, seed_sample_owd_ns, safe_ratio(seed_sample_owd_ns, owd_ns));
  std::printf("sample_owd: %.1f ns/sample (%.2fx seed)\n", owd_ns,
              safe_ratio(seed_sample_owd_ns, owd_ns));

  const double fault_ns = best_of(7, time_fault_lookup_ns, 500'000);
  messaging_product *= safe_ratio(seed_fault_lookup_ns, fault_ns);
  ++messaging_count;
  std::fprintf(out,
               "  \"fault_lookup\": {\"ns_per_query\": %.1f, "
               "\"seed_ns_per_query\": %.1f, \"speedup_vs_seed\": %.2f},\n",
               fault_ns, seed_fault_lookup_ns,
               safe_ratio(seed_fault_lookup_ns, fault_ns));
  std::printf("fault_lookup: %.1f ns/query (%.2fx seed)\n", fault_ns,
              safe_ratio(seed_fault_lookup_ns, fault_ns));

  const double messaging_geomean =
      std::pow(messaging_product, 1.0 / messaging_count);
  std::fprintf(out, "  \"messaging_speedup_geomean\": %.2f,\n",
               messaging_geomean);
  std::printf("messaging speedup geomean: %.2fx\n", messaging_geomean);

  double geomean = 1.0;
  if (ratio_count > 0) {
    geomean = std::pow(ratio_product, 1.0 / ratio_count);
  }
  std::fprintf(out,
               "  \"event_loop_speedup_geomean\": %.2f\n}\n", geomean);
  std::printf("event-loop speedup geomean: %.2fx\n", geomean);
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      std::string path;
      if (i + 1 < argc && argv[i + 1][0] != '-') path = argv[i + 1];
      if (path.empty()) {
#ifdef EDEN_SOURCE_DIR
        path = std::string(EDEN_SOURCE_DIR) + "/BENCH_micro.json";
#else
        path = "BENCH_micro.json";
#endif
      }
      return run_json(path);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
