// Tests for the pooled rpc-slot machinery in SimNetwork: slot reuse,
// timeout/response races, mid-flight host death, generation checks on
// stale completions, fault-window expiry, and the determinism contract the
// figure benches rely on (bitwise-identical traces under ParallelRunner).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "client/edge_client.h"
#include "common/rng.h"
#include "harness/experiments.h"
#include "harness/parallel_runner.h"
#include "harness/sim_stubs.h"
#include "net/host_table.h"
#include "net/network_model.h"
#include "net/sim_network.h"
#include "node/edge_node.h"
#include "sim/clock.h"
#include "sim/simulator.h"

namespace eden::net {
namespace {

const HostId kA{1};
const HostId kB{2};

class RpcPoolTest : public ::testing::Test {
 protected:
  RpcPoolTest()
      : model_(20.0, 100.0, 0.0),
        fabric_(simulator_, model_, hosts_, /*jitter_seed=*/7) {
    hosts_.set_alive(kA, true);
    hosts_.set_alive(kB, true);
  }

  sim::Simulator simulator_;
  MatrixNetwork model_;
  HostTable hosts_;
  SimNetwork fabric_;
};

TEST_F(RpcPoolTest, SlotHeldInFlightReleasedOnCompletion) {
  EXPECT_EQ(fabric_.rpc_slots_in_use(), 0u);
  std::optional<int> result;
  fabric_.rpc<int>(
      kA, kB, 0, 0, sec(1), [] { return 42; },
      [&](std::optional<int> r) { result = r; });
  EXPECT_EQ(fabric_.rpc_slots_in_use(), 1u);
  simulator_.run_all();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(fabric_.rpc_slots_in_use(), 0u);
}

TEST_F(RpcPoolTest, SequentialRpcsReuseOneChunk) {
  const std::size_t chunk = fabric_.rpc_slot_capacity() == 0
                                ? 256u
                                : fabric_.rpc_slot_capacity();
  int completions = 0;
  for (int i = 0; i < 1000; ++i) {
    fabric_.rpc<int>(
        kA, kB, 0, 0, sec(1), [i] { return i; },
        [&](std::optional<int> r) {
          ASSERT_TRUE(r.has_value());
          ++completions;
        });
    simulator_.run_all();
  }
  EXPECT_EQ(completions, 1000);
  EXPECT_EQ(fabric_.rpc_slots_in_use(), 0u);
  // Steady-state reuse: a thousand sequential rpcs never grow the pool
  // beyond what the first one allocated.
  EXPECT_LE(fabric_.rpc_slot_capacity(), std::max<std::size_t>(chunk, 256u));
}

TEST_F(RpcPoolTest, ConcurrentRpcsGrowPoolThenDrainToZero) {
  int completions = 0;
  for (int i = 0; i < 600; ++i) {
    fabric_.rpc<int>(
        kA, kB, 0, 0, sec(5), [] { return 1; },
        [&](std::optional<int>) { ++completions; });
  }
  EXPECT_EQ(fabric_.rpc_slots_in_use(), 600u);
  EXPECT_GE(fabric_.rpc_slot_capacity(), 600u);
  simulator_.run_all();
  EXPECT_EQ(completions, 600);
  EXPECT_EQ(fabric_.rpc_slots_in_use(), 0u);
}

TEST_F(RpcPoolTest, TimeoutReleasesSlotAndLateReplyIsRejected) {
  std::function<void(int)> reply;
  int calls = 0;
  std::optional<int> result;
  fabric_.rpc_async<int>(
      kA, kB, 0, 0, msec(50),
      [&](std::function<void(int)> r) { reply = std::move(r); },
      [&](std::optional<int> r) {
        ++calls;
        result = r;
      });
  simulator_.run_until(msec(200));  // request arrived at 10 ms, timeout at 50
  ASSERT_TRUE(reply);
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(result.has_value());
  // The timeout settled the rpc and the request leg already landed: the
  // slot must be free even though the server still holds the Reply.
  EXPECT_EQ(fabric_.rpc_slots_in_use(), 0u);
  reply(9);  // stale: generation check drops the completion on arrival
  simulator_.run_all();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(fabric_.rpc_slots_in_use(), 0u);
}

TEST_F(RpcPoolTest, StaleReplyCannotTouchAReusedSlot) {
  std::function<void(int)> stale_reply;
  int first_calls = 0;
  fabric_.rpc_async<int>(
      kA, kB, 0, 0, msec(50),
      [&](std::function<void(int)> r) { stale_reply = std::move(r); },
      [&](std::optional<int>) { ++first_calls; });
  simulator_.run_until(msec(200));  // first rpc timed out, slot released
  ASSERT_TRUE(stale_reply);
  ASSERT_EQ(first_calls, 1);
  ASSERT_EQ(fabric_.rpc_slots_in_use(), 0u);

  // The second rpc reuses the same pooled slot under a bumped generation.
  std::function<void(int)> fresh_reply;
  std::optional<int> second_result;
  int second_calls = 0;
  fabric_.rpc_async<int>(
      kA, kB, 0, 0, sec(10),
      [&](std::function<void(int)> r) { fresh_reply = std::move(r); },
      [&](std::optional<int> r) {
        ++second_calls;
        second_result = r;
      });
  simulator_.run_until(msec(250));
  ASSERT_TRUE(fresh_reply);
  EXPECT_EQ(fabric_.rpc_slots_in_use(), 1u);

  // The first rpc's reply carries a handle whose generation is stale; it
  // must not complete (or corrupt) the rpc now occupying the slot.
  stale_reply(99);
  simulator_.run_until(msec(300));
  EXPECT_EQ(first_calls, 1);
  EXPECT_EQ(second_calls, 0);
  EXPECT_EQ(fabric_.rpc_slots_in_use(), 1u);

  fresh_reply(7);
  simulator_.run_all();
  EXPECT_EQ(second_calls, 1);
  ASSERT_TRUE(second_result.has_value());
  EXPECT_EQ(*second_result, 7);
  EXPECT_EQ(fabric_.rpc_slots_in_use(), 0u);
}

TEST_F(RpcPoolTest, ServerDeathMidFlightTimesOutAndReleases) {
  bool server_ran = false;
  int calls = 0;
  std::optional<int> result = 1;
  fabric_.rpc<int>(
      kA, kB, 0, 0, msec(100),
      [&] {
        server_ran = true;
        return 42;
      },
      [&](std::optional<int> r) {
        ++calls;
        result = r;
      });
  // The server dies while the request is on the wire (arrival at 10 ms).
  simulator_.schedule_at(msec(5.0), [&] { hosts_.set_alive(kB, false); });
  simulator_.run_all();
  EXPECT_FALSE(server_ran);
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(simulator_.now(), msec(100));  // settled by the timeout
  EXPECT_EQ(fabric_.rpc_slots_in_use(), 0u);
}

TEST_F(RpcPoolTest, CallerDeathDropsResponseThenTimeoutSettles) {
  int calls = 0;
  std::optional<int> result = 1;
  fabric_.rpc<int>(
      kA, kB, 0, 0, msec(100), [] { return 42; },
      [&](std::optional<int> r) {
        ++calls;
        result = r;
      });
  // The caller dies after the request arrives (10 ms) but before the
  // response lands (20 ms): the response is dropped at arrival, and the
  // timeout — local bookkeeping, fired regardless of liveness — settles
  // the rpc and frees the slot.
  simulator_.schedule_at(msec(15.0), [&] { hosts_.set_alive(kA, false); });
  simulator_.run_all();
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(simulator_.now(), msec(100));
  EXPECT_EQ(fabric_.rpc_slots_in_use(), 0u);
}

TEST(RpcPoolTeardown, DestructorAbandonsPendingDoneWithoutInvoking) {
  int calls = 0;
  {
    sim::Simulator simulator;
    MatrixNetwork model(20.0, 100.0, 0.0);
    HostTable hosts;
    hosts.set_alive(kA, true);
    hosts.set_alive(kB, true);
    SimNetwork fabric(simulator, model, hosts, /*jitter_seed=*/7);
    fabric.rpc<int>(
        kA, kB, 0, 0, sec(1), [] { return 42; },
        [&](std::optional<int>) { ++calls; });
    EXPECT_EQ(fabric.rpc_slots_in_use(), 1u);
    // Tear the world down with the rpc still pending: the pooled done
    // callback is destroyed, never invoked (leaks surface under ASan).
  }
  EXPECT_EQ(calls, 0);
}

// ---- fault-window expiry ----

TEST(FaultInjectorExpiry, CutWindowsArePurgedOnceElapsed) {
  FaultInjector faults;
  faults.cut_link(HostId{1}, HostId{2}, msec(100), msec(200));
  faults.isolate_host(HostId{5}, msec(100), msec(300));
  EXPECT_EQ(faults.cut_window_count(), 3u);  // pair + from-wildcard + to-wildcard

  EXPECT_TRUE(faults.dropped(HostId{1}, HostId{2}, msec(150)));
  EXPECT_EQ(faults.cut_window_count(), 3u);  // still active, nothing purged

  // Past the pair window's end: the lookup both misses and retires it.
  EXPECT_FALSE(faults.dropped(HostId{1}, HostId{2}, msec(250)));
  EXPECT_EQ(faults.cut_window_count(), 2u);

  // The isolation windows expire at 300 ms; queries against the isolated
  // host purge both directions.
  EXPECT_FALSE(faults.dropped(HostId{5}, HostId{1}, msec(350)));
  EXPECT_FALSE(faults.dropped(HostId{1}, HostId{5}, msec(350)));
  EXPECT_EQ(faults.cut_window_count(), 0u);
}

TEST(FaultInjectorExpiry, SlowWindowsArePurgedOnceElapsed) {
  FaultInjector faults;
  faults.slow_link(HostId{1}, HostId{2}, 4.0, msec(0), msec(100));
  faults.slow_link(HostId{1}, HostId{2}, 2.0, msec(50), msec(400));
  EXPECT_EQ(faults.slow_window_count(), 2u);

  // Both active: factors compound in insertion order.
  EXPECT_DOUBLE_EQ(faults.delay_factor(HostId{1}, HostId{2}, msec(60)), 8.0);
  EXPECT_EQ(faults.slow_window_count(), 2u);

  // First window elapsed: purged by the lookup, second still applies.
  EXPECT_DOUBLE_EQ(faults.delay_factor(HostId{1}, HostId{2}, msec(200)), 2.0);
  EXPECT_EQ(faults.slow_window_count(), 1u);

  EXPECT_DOUBLE_EQ(faults.delay_factor(HostId{1}, HostId{2}, msec(500)), 1.0);
  EXPECT_EQ(faults.slow_window_count(), 0u);
}

// ---- figure-trace determinism across ParallelRunner thread counts ----
//
// Scaled-down versions of the Fig 4 (failover trace) and Fig 8 (churn
// trace) worlds, digested over every per-frame latency sample and the
// protocol counters. Any divergence in event order, jitter draws, or rpc
// settlement under the pooled messaging layer changes the digest.

void mix(std::uint64_t& digest, std::uint64_t v) {
  digest = (digest ^ v) * 0x100000001b3ull;
}

void mix_series(std::uint64_t& digest, const TimeSeries& series,
                const client::ClientStats& stats) {
  for (const auto& [t, v] : series.points()) {
    mix(digest, static_cast<std::uint64_t>(t));
    mix(digest, std::bit_cast<std::uint64_t>(v));
  }
  mix(digest, stats.frames_ok);
  mix(digest, stats.failovers);
  mix(digest, stats.hard_failures);
  mix(digest, stats.switches);
  mix(digest, stats.discoveries);
}

// Fig 4 shape: one proactive user, its node killed mid-run.
std::uint64_t fig04_digest(std::uint64_t seed) {
  auto setup = harness::make_realworld_setup(seed);
  auto& scenario = *setup.scenario;
  harness::start_all_nodes(scenario);
  scenario.run_until(sec(2.0));

  client::ClientConfig config;
  config.top_n = 3;
  config.probing_period = sec(2.0);
  config.proactive_connections = true;
  config.reconnect_penalty = msec(1500.0);
  auto& client = scenario.add_edge_client(setup.user_spots[0], config);
  client.start();
  scenario.run_until(sec(8.0));
  if (client.current_node()) {
    const auto index = scenario.node_index(*client.current_node());
    if (index) scenario.stop_node(*index, /*graceful=*/false);
  }
  scenario.run_until(sec(14.0));

  std::uint64_t digest = 0xcbf29ce484222325ull;
  mix_series(digest, client.latency_series(), client.stats());
  return digest;
}

// Fig 8 shape: several users riding out node churn (leave + rejoin).
std::uint64_t fig08_digest(std::uint64_t seed) {
  auto setup = harness::make_realworld_setup(seed);
  auto& scenario = *setup.scenario;
  harness::start_all_nodes(scenario);
  scenario.run_until(sec(1.0));

  client::ClientConfig config;
  config.top_n = 3;
  config.probing_period = sec(2.0);
  config.proactive_connections = true;
  std::vector<client::EdgeClient*> clients;
  for (std::size_t u = 0; u < 3; ++u) {
    auto& client = scenario.add_edge_client(setup.user_spots[u], config);
    client.start();
    clients.push_back(&client);
  }
  scenario.run_until(sec(5.0));
  scenario.stop_node(setup.volunteers[0], /*graceful=*/false);
  scenario.run_until(sec(7.0));
  scenario.stop_node(setup.volunteers[1], /*graceful=*/true);
  scenario.start_node(setup.volunteers[0]);
  scenario.run_until(sec(12.0));

  std::uint64_t digest = 0xcbf29ce484222325ull;
  for (const auto* client : clients) {
    mix_series(digest, client->latency_series(), client->stats());
  }
  return digest;
}

// ---- completions fit their rpc slot ----
//
// Every stub call hands the fabric a net::Done; one that spills out of the
// rpc slot would heap-allocate on every frame and probe. These drive the
// calls in steady state and count SBO spills (any capacity).

node::EdgeNodeConfig stub_node_config(NodeId id) {
  node::EdgeNodeConfig config;
  config.id = id;
  config.geohash = "9zvxvf";
  config.executor.cores = 2;
  config.executor.base_frame_ms = 10.0;
  return config;
}

TEST(StubCompletions, SteadyStateStubCallsDoNotSpill) {
  sim::Simulator simulator;
  sim::SimScheduler scheduler(simulator);
  MatrixNetwork model(20.0, 100.0, 0.0);
  HostTable hosts;
  hosts.set_alive(kA, true);
  hosts.set_alive(kB, true);
  SimNetwork fabric(simulator, model, hosts, /*jitter_seed=*/7);
  node::EdgeNode node(scheduler, stub_node_config(kB));
  node.start();
  harness::SimNodeStub stub(fabric, node, kB);
  simulator.run_until(sec(0.5));

  int completed = 0;
  std::uint64_t frame_id = 0;
  const auto round_trip = [&] {
    stub.rtt_probe(kA, [&](bool ok) { completed += ok ? 1 : 0; });
    stub.process_probe(kA, [&](std::optional<ProcessProbeResponse> r) {
      completed += r ? 1 : 0;
    });
    stub.join(JoinRequest{kA, node.seq_num(), 20.0},
              [&](std::optional<JoinResponse> r) { completed += r ? 1 : 0; });
    stub.unexpected_join(JoinRequest{kA, 0, 20.0},
                         [&](bool ok) { completed += ok ? 1 : 0; });
    stub.offload(FrameRequest{kA, ++frame_id, 20'000, 1.0},
                 [&](std::optional<FrameResponse> r) {
                   completed += r ? 1 : 0;
                 });
    simulator.run_until(simulator.now() + sec(1.0));
  };
  round_trip();  // warm-up: grows the event arena and the rpc pool
  const std::uint64_t spills = sim::Callback::heap_allocations();
  round_trip();
  EXPECT_EQ(sim::Callback::heap_allocations() - spills, 0u);
  EXPECT_EQ(completed, 10);
}

// Answers discovery inline with a fixed candidate list, so the measured
// window holds only the client's probe cycle over the sim stubs.
class FixedManager final : public ManagerApi {
 public:
  void discover(const DiscoveryRequest& /*request*/,
                Done<std::optional<DiscoveryResponse>> done) override {
    done(response);
  }
  DiscoveryResponse response;
};

TEST(StubCompletions, SteadyStateProbeCycleDoesNotSpill) {
  sim::Simulator simulator;
  sim::SimScheduler scheduler(simulator);
  MatrixNetwork model(20.0, 100.0, 0.0);
  HostTable hosts;
  const HostId kNodes[] = {HostId{2}, HostId{3}};
  hosts.set_alive(kA, true);
  SimNetwork fabric(simulator, model, hosts, /*jitter_seed=*/7);
  std::deque<node::EdgeNode> nodes;
  std::deque<harness::SimNodeStub> stubs;
  FixedManager manager;
  for (const HostId id : kNodes) {
    hosts.set_alive(id, true);
    nodes.emplace_back(scheduler, stub_node_config(id));
    nodes.back().start();
    stubs.emplace_back(fabric, nodes.back(), id);
    manager.response.candidates.push_back(CandidateInfo{id, "9zvxvf"});
  }
  client::ClientConfig config;
  config.id = kA;
  config.probing_period = sec(1.0);
  client::EdgeClient client(
      scheduler, manager,
      [&stubs](NodeId id) -> NodeApi* {
        for (harness::SimNodeStub& stub : stubs) {
          if (stub.id() == id) return &stub;
        }
        return nullptr;
      },
      config);
  client.start();
  simulator.run_until(sec(5.0));  // warm-up: joined, pools and buffers grown
  ASSERT_TRUE(client.current_node().has_value());

  const std::uint64_t spills = sim::Callback::heap_allocations();
  const std::uint64_t probes = client.stats().probes_sent;
  client.trigger_probing_cycle();
  simulator.run_until(sec(7.0));
  EXPECT_EQ(sim::Callback::heap_allocations() - spills, 0u);
  EXPECT_GT(client.stats().probes_sent, probes);
  EXPECT_GT(client.stats().frames_ok, 0u);
}

TEST(FigureTraceDeterminism, Fig04AndFig08BitIdenticalAcrossThreadCounts) {
  constexpr std::uint64_t kSeeds[] = {2022, 2023, 2030};
  std::vector<std::uint64_t> sequential;
  for (const std::uint64_t seed : kSeeds) {
    sequential.push_back(fig04_digest(seed));
    sequential.push_back(fig08_digest(seed));
  }
  // Re-running sequentially reproduces the digests (baseline determinism).
  EXPECT_EQ(sequential[0], fig04_digest(kSeeds[0]));
  EXPECT_EQ(sequential[1], fig08_digest(kSeeds[0]));

  for (const unsigned threads : {2u, 7u}) {
    harness::ParallelRunner pool(threads);
    std::vector<std::function<std::uint64_t()>> jobs;
    for (const std::uint64_t seed : kSeeds) {
      jobs.emplace_back([seed] { return fig04_digest(seed); });
      jobs.emplace_back([seed] { return fig08_digest(seed); });
    }
    const auto parallel = pool.map<std::uint64_t>(std::move(jobs));
    EXPECT_EQ(parallel, sequential) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace eden::net
