// Sharded-simulator tests: the canonical ordering of deliveries, the
// ShardRouter's direct cross-shard injection and its lookahead check,
// conservative lookahead derivation — and the tentpole witness:
// run_spec_sharded() produces a bit-identical canonical trace digest at
// every shard count, pinned against the windowless one-shard sequential
// reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "check/fuzzer.h"
#include "check/shard_witness.h"
#include "common/rng.h"
#include "harness/sharded_scenario.h"
#include "net/host_table.h"
#include "net/network_model.h"
#include "net/shard_router.h"
#include "net/sim_network.h"
#include "obs/trace_merge.h"
#include "sim/simulator.h"

namespace eden {
namespace {

// ---- delivery lane ----

TEST(DeliveryLane, DeliveriesBeatEventsAtEqualTimestamps) {
  sim::Simulator sim;
  std::string order;
  sim.schedule_at(msec(10), [&order] { order += 'E'; });
  sim.schedule_delivery(msec(10), sim::Simulator::DeliveryKey{1, 0},
                        [&order] { order += 'D'; });
  sim.run_until(msec(10));
  EXPECT_EQ(order, "DE");
}

TEST(DeliveryLane, OrdersByCanonicalKeyNotInsertion) {
  sim::Simulator sim;
  std::string order;
  // Insert in scrambled order; the lane must execute by (time, hi, lo).
  sim.schedule_delivery(msec(5), sim::Simulator::DeliveryKey{2, 0},
                        [&order] { order += 'c'; });
  sim.schedule_delivery(msec(5), sim::Simulator::DeliveryKey{1, 7},
                        [&order] { order += 'b'; });
  sim.schedule_delivery(msec(5), sim::Simulator::DeliveryKey{1, 2},
                        [&order] { order += 'a'; });
  sim.schedule_delivery(msec(3), sim::Simulator::DeliveryKey{9, 9},
                        [&order] { order += '0'; });
  sim.run_all();
  EXPECT_EQ(order, "0abc");
}

TEST(DeliveryLane, CountsTowardPendingAndNextEventTime) {
  sim::Simulator sim;
  bool ran = false;
  sim.schedule_delivery(msec(4), sim::Simulator::DeliveryKey{1, 0},
                        [&ran] { ran = true; });
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(msec(4) - 1);  // the lane's next event is not due yet
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_all();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), msec(4));
  EXPECT_EQ(sim.pending(), 0u);
}

// Deliveries and regular events share one queue: deliveries schedule
// regular events just past now, regular events schedule deliveries and
// cancel each other, and every run_until gap gets a schedule that lowers
// the radix queue's minimum. Execution order must equal a brute-force
// reference: (time, lane, key | seq), with deliveries (lane 0) before
// regular events (lane 1) at equal times. Seeds above 20 add buckets that
// span several 63-entry blocks: equal-tick batches of 200+ regular events,
// each just past a 4096-tick boundary and followed by tied clusters of 64+
// events, with a delivery just below the boundary. (Lowering across such
// chains is pinned by Simulator.GapScheduleLowersMultiBlockBuckets.)
TEST(DeliveryLane, LoweringInsideTheLoopKeepsReferenceOrder) {
  struct Pending {
    SimTime at;
    int lane;
    std::uint64_t hi;  // delivery key.hi; 0 for regular events
    std::uint64_t lo;  // delivery key.lo, or the regular event's seq
    int id;
    bool operator<(const Pending& o) const {
      return std::tie(at, lane, hi, lo) < std::tie(o.at, o.lane, o.hi, o.lo);
    }
  };
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Simulator sim;
    std::mt19937_64 rng(seed);
    auto draw = [&rng](std::uint64_t n) { return rng() % n; };
    std::set<Pending> reference;  // keys are unique: seq / delivery lo
    std::unordered_map<int, Pending> by_id;
    std::unordered_map<int, sim::EventId> regular_ids;
    std::uint64_t seq = 0;
    std::uint64_t delivery_lo = 0;
    int next_id = 0;
    int executed = 0;
    int out_of_order = 0;
    std::function<void(SimTime)> add_regular;
    std::function<void(SimTime)> add_delivery;
    auto forget = [&](int id) {
      reference.erase(by_id.at(id));
      by_id.erase(id);
      regular_ids.erase(id);
    };

    // Runs inside the engine: the event must be the reference minimum.
    auto fire = [&](int id, bool delivery) {
      if (reference.empty() || reference.begin()->id != id) ++out_of_order;
      forget(id);
      ++executed;
      const SimTime now = sim.now();
      if (delivery) {
        // Regular follow-ups just past now: usually below the regular
        // queue's next (already refilled) minimum.
        for (std::uint64_t k = draw(3); k > 0; --k) {
          add_regular(now + static_cast<SimTime>(draw(40)));
        }
        if (draw(5) == 0) add_delivery(now + 1 + static_cast<SimTime>(draw(40)));
      } else {
        if (draw(3) == 0) add_regular(now + static_cast<SimTime>(draw(5000)));
        if (draw(4) == 0) add_delivery(now + 1 + static_cast<SimTime>(draw(100)));
        if (draw(8) == 0 && !regular_ids.empty()) {
          // Cancel some pending regular event: its tombstone rides along
          // through every later lowering.
          auto victim = regular_ids.begin();
          std::advance(victim, static_cast<long>(draw(regular_ids.size())));
          EXPECT_TRUE(sim.cancel(victim->second));
          forget(victim->first);
        }
      }
    };
    add_regular = [&](SimTime at) {
      const int id = next_id++;
      const Pending p{at, 1, 0, seq++, id};
      reference.insert(p);
      by_id.emplace(id, p);
      regular_ids[id] = sim.schedule_at(at, [&fire, id] { fire(id, false); });
    };
    add_delivery = [&](SimTime at) {
      const int id = next_id++;
      const sim::Simulator::DeliveryKey key{draw(4), delivery_lo++};
      const Pending p{at, 0, key.hi, key.lo, id};
      reference.insert(p);
      by_id.emplace(id, p);
      sim.schedule_delivery(at, key, [&fire, id] { fire(id, true); });
    };

    // Sparse regular events spanning several radix levels, dense
    // deliveries near the front, some on a coarse grid for ties.
    for (int i = 0; i < 60; ++i) {
      add_regular(draw(2) == 0 ? static_cast<SimTime>(draw(1u << 22))
                               : static_cast<SimTime>(draw(64)) * 1000);
    }
    for (int i = 0; i < 60; ++i) {
      add_delivery(1 + static_cast<SimTime>(draw(50'000)));
    }
    if (seed > 20) {
      for (int batch = 0; batch < 3; ++batch) {
        const SimTime tick =
            4096 * static_cast<SimTime>(1 + draw(12)) +
            static_cast<SimTime>(draw(40));
        for (std::uint64_t n = 200 + draw(100); n > 0; --n) add_regular(tick);
        for (SimTime k = 1; k <= 6; ++k) {
          const SimTime at = tick + 64 * k * static_cast<SimTime>(1 + draw(4));
          for (std::uint64_t n = 64 + draw(130); n > 0; --n) add_regular(at);
        }
        add_delivery(tick - 41 - static_cast<SimTime>(draw(100)));
      }
    }
    // Run in slices, scheduling into each run_until gap between them.
    SimTime limit = 0;
    for (int slice = 0; slice < 12; ++slice) {
      limit += static_cast<SimTime>(draw(400'000));
      sim.run_until(limit);
      for (const Pending& p : reference) EXPECT_GT(p.at, limit);
      add_regular(limit + static_cast<SimTime>(draw(100)));
    }
    sim.run_all();
    EXPECT_EQ(out_of_order, 0);
    EXPECT_TRUE(reference.empty());
    EXPECT_EQ(sim.pending(), 0u);
    EXPECT_EQ(sim.events_processed(), static_cast<std::uint64_t>(executed));
    EXPECT_GT(executed, 200);
  }
}

// ---- ShardRouter ----

// Two one-host shards over a zero-jitter matrix model: host 10 in shard 0,
// host 20 in shard 1, every one-way delay exactly 10 ms.
struct TwoShards {
  net::MatrixNetwork model{/*default_rtt_ms=*/20.0, /*default_bw_mbps=*/100.0,
                           /*jitter_sigma=*/0.0};
  sim::Simulator sa, sb;
  net::HostTable ha, hb;
  net::SimNetwork fa{sa, model, ha, /*jitter_seed=*/1};
  net::SimNetwork fb{sb, model, hb, /*jitter_seed=*/1};
  net::ShardRouter router;
  static constexpr HostId kA{10};
  static constexpr HostId kB{20};

  TwoShards() {
    EXPECT_EQ(router.add_shard(&fa), 0u);
    EXPECT_EQ(router.add_shard(&fb), 1u);
    router.set_shard(kA, 0);
    router.set_shard(kB, 1);
    fa.set_shard_router(&router);
    fb.set_shard_router(&router);
    ha.set_alive(kA, true);
    hb.set_alive(kB, true);
  }
};

TEST(ShardRouter, CrossShardSendIsPendingAtTheDestinationBeforeAnyWindow) {
  TwoShards w;
  EXPECT_EQ(w.router.shard_of(TwoShards::kB), 1u);
  EXPECT_EQ(w.router.shard_of(HostId{999}), 0u);  // unmapped -> shard 0
  EXPECT_EQ(w.router.fabric_of(1), &w.fb);

  bool delivered = false;
  w.fa.deliver(TwoShards::kA, TwoShards::kB, /*bytes=*/0.0,
               [&delivered] { delivered = true; });
  // Scheduled straight into the destination's simulator, nothing local.
  EXPECT_EQ(w.sb.pending(), 1u);
  EXPECT_EQ(w.sa.pending(), 0u);
  w.sb.run_until(msec(10) - 1);
  EXPECT_FALSE(delivered);
  w.sb.run_until(msec(10));
  EXPECT_TRUE(delivered);
  EXPECT_EQ(w.sa.events_processed(), 0u);
  // Counted at the send, with no window opened.
  EXPECT_EQ(w.router.messages_routed(), 1u);
  // A send inside its own shard is not a cross-shard message.
  w.fa.deliver(TwoShards::kA, TwoShards::kA, 0.0, [] {});
  EXPECT_EQ(w.router.messages_routed(), 1u);
}

TEST(ShardRouter, ArrivalBeforeTheWindowEndThrowsAtSend) {
  TwoShards w;
  w.router.open_window(msec(15));
  // Arrives at 10 ms, inside the window [0, 15 ms) shard 1 may already
  // have executed.
  EXPECT_THROW(w.fa.deliver(TwoShards::kA, TwoShards::kB, 0.0, [] {}),
               std::runtime_error);
  EXPECT_EQ(w.sb.pending(), 0u);
  // A send inside its own shard is never checked.
  w.fa.deliver(TwoShards::kA, TwoShards::kA, 0.0, [] {});
  EXPECT_EQ(w.sa.pending(), 1u);
}

// A cross-shard rpc whose 5 ms timeout fires before its request lands at
// 10 ms. The caller's slot stays pinned until the request leg settles on
// the destination's domain, where the server still runs; the slot is then
// released exactly once, and the response arriving at 20 ms dies on the
// slot's generation check instead of completing the rpc that reused it.
TEST(ShardRouter, CrossShardRpcTimingOutBeforeItsRequestLands) {
  TwoShards w;
  int calls = 0;
  std::optional<int> result = 1;
  SimTime served_at = -1;
  w.fa.rpc<int>(
      TwoShards::kA, TwoShards::kB, 0.0, 0.0, msec(5),
      [&] {
        served_at = w.sb.now();
        return 42;
      },
      [&](std::optional<int> r) {
        ++calls;
        result = r;
      });
  EXPECT_EQ(w.sb.pending(), 1u);  // the request leg, on the owner's domain
  w.sa.run_until(msec(9));
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(w.fa.rpc_slots_in_use(), 1u);  // pinned: request in flight

  w.sb.run_until(msec(10));
  EXPECT_EQ(served_at, msec(10));
  EXPECT_EQ(w.sa.now(), msec(9));
  EXPECT_EQ(w.fa.rpc_slots_in_use(), 0u);
  EXPECT_EQ(w.fb.rpc_slots_in_use(), 0u);
  EXPECT_EQ(w.sa.pending(), 1u);  // the late response, due at 20 ms

  // A second rpc reuses the released slot under a bumped generation; its
  // server keeps the reply.
  std::function<void(int)> reply;
  int second_calls = 0;
  std::optional<int> second_result;
  w.fa.rpc_async<int>(
      TwoShards::kA, TwoShards::kB, 0.0, 0.0, sec(1),
      [&](std::function<void(int)> r) { reply = std::move(r); },
      [&](std::optional<int> r) {
        ++second_calls;
        second_result = r;
      });
  EXPECT_EQ(w.fa.rpc_slots_in_use(), 1u);
  EXPECT_EQ(w.fa.rpc_slot_capacity(), 256u);
  w.sa.run_until(msec(20));  // the late response lands and is dropped
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(second_calls, 0);
  EXPECT_EQ(w.fa.rpc_slots_in_use(), 1u);

  w.sb.run_until(msec(19));
  ASSERT_TRUE(reply);
  reply(7);  // arrives at 29 ms
  w.sa.run_until(msec(30));
  EXPECT_EQ(second_calls, 1);
  ASSERT_TRUE(second_result.has_value());
  EXPECT_EQ(*second_result, 7);
  EXPECT_EQ(w.fa.rpc_slots_in_use(), 0u);
}

// ---- lookahead ----

TEST(ShardedScenario, LookaheadHasPositiveFloorAndBoundsWindows) {
  harness::ShardedConfig config;
  config.base.seed = 5;
  config.shards = 2;
  config.force_windows = true;
  harness::ShardedScenario scenario(config);
  harness::NodeSpec spec;
  spec.position = {44.9778, -93.2650};
  scenario.add_node(spec);
  spec.position = {45.2, -93.5};
  scenario.add_node(spec);
  const SimDuration lookahead = scenario.lookahead();
  EXPECT_GT(lookahead, 0);
  // The conservative bound can never exceed the smallest base one-way
  // delay between the two hosts (jitter/slow floors only shrink it).
  const SimDuration owd =
      scenario.network_model().base_rtt(HostId{1}, HostId{2}) / 2;
  EXPECT_LE(lookahead, owd);
}

TEST(ShardedScenario, WindowlessSingleShardUsesOneGiantWindow) {
  harness::ShardedConfig config;
  config.base.seed = 5;
  config.shards = 1;
  harness::ShardedScenario scenario(config);
  harness::NodeSpec spec;
  scenario.add_node(spec);
  scenario.run_until(sec(5.0));
  EXPECT_EQ(scenario.shard_stats().windows, 1u);
}

// Zero jitter and a 20 ms matrix model with effectively infinite
// bandwidth make every one-way delay, and so the lookahead, exactly 10 ms.
// Nodes started at 10 ms register with the manager at exactly 20 ms: with
// run_until(20 ms) from zero, the registrations sent from domain 1 are
// sent at the start of the last window and arrive exactly on the horizon,
// which the sequential contract includes.
TEST(ShardedScenario, CrossShardArrivalOnTheHorizonMatchesTheReference) {
  const auto run = [](unsigned shards) {
    harness::ShardedConfig config;
    config.base.seed = 3;
    config.base.trace = true;
    config.shards = shards;
    harness::ShardedScenario scenario(config, harness::NetKind::kMatrix,
                                      /*default_rtt_ms=*/20.0,
                                      /*default_bw_mbps=*/1e9,
                                      /*jitter_sigma=*/0.0);
    for (int i = 0; i < 8; ++i) {
      harness::NodeSpec spec;
      spec.position = {40.0 + 1.5 * i, -100.0 + 2.0 * i};
      scenario.schedule_node_start(scenario.add_node(spec), msec(10));
    }
    if (shards > 1) {
      EXPECT_EQ(scenario.lookahead(), msec(10));
      EXPECT_GT(scenario.simulator_of(1).pending(), 0u);  // a remote node
    }
    scenario.run_until(msec(20));
    EXPECT_EQ(scenario.central_manager().live_nodes(), scenario.node_count());
    return obs::events_to_jsonl(scenario.canonical_trace());
  };
  const std::string reference = run(1);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(run(2), reference);
}

// ---- harness features at every domain count ----

// A small metro fleet whose nodes and clients start by scheduled events
// only, so nothing is traced until the simulator runs.
void build_small_fleet(harness::ShardedScenario& scenario) {
  for (int i = 0; i < 6; ++i) {
    harness::NodeSpec spec;
    spec.position = {44.9778 + 0.15 * (i % 3), -93.2650 + 0.2 * (i / 3)};
    spec.heartbeat_period = sec(0.8);
    const std::size_t node = scenario.add_node(spec);
    scenario.schedule_node_start(node, sec(0.1 * i));
  }
  for (int i = 0; i < 8; ++i) {
    harness::ClientSpot spot;
    spot.position = {44.95 + 0.05 * i, -93.30 + 0.06 * (i % 4)};
    client::ClientConfig config;
    config.probing_period = sec(2.0);
    config.app.max_fps = 5.0;
    scenario.add_edge_client(spot, config);
    scenario.schedule_at_client(scenario.edge_client_count() - 1,
                                sec(0.5 + 0.25 * i),
                                [](client::EdgeClient& c) { c.start(); });
  }
}

TEST(ShardedScenario, LateObservabilityMatchesTracingFromConstruction) {
  for (const unsigned shards : {1u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    harness::ShardedConfig config;
    config.base.seed = 11;
    config.shards = shards;
    config.force_windows = true;

    harness::ShardedConfig traced_config = config;
    traced_config.base.trace = true;
    harness::ShardedScenario traced(traced_config);
    build_small_fleet(traced);
    traced.run_until(sec(12.0));

    harness::ShardedScenario late(config);
    build_small_fleet(late);
    late.enable_observability();
    late.run_until(sec(12.0));

    const std::vector<obs::TraceEvent> expected = traced.canonical_trace();
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(obs::events_to_jsonl(late.canonical_trace()),
              obs::events_to_jsonl(expected));
    EXPECT_EQ(late.metrics_snapshot().to_json(),
              traced.metrics_snapshot().to_json());
    EXPECT_GT(late.fleet_stats().totals.frames_ok, 0u);
    if (shards > 1) {
      EXPECT_GT(late.shard_stats().cross_shard_messages, 0u);
    }
  }
}

// Exposes the per-domain endpoint lookup every client send goes through.
struct RoutedScenario : harness::ShardedScenario {
  using ShardedScenario::node_api_for;
  using ShardedScenario::ShardedScenario;
};

TEST(ShardedScenario, SetRouteCutsAndRestoresANodeInEveryDomain) {
  harness::ShardedConfig config;
  config.base.seed = 5;
  config.shards = 4;
  RoutedScenario scenario(config);
  build_small_fleet(scenario);
  const NodeId cut = scenario.node_id(0);
  const NodeId other = scenario.node_id(1);
  // Resolve first, so the per-domain endpoints are already cached.
  for (std::uint32_t d = 0; d < config.shards; ++d) {
    ASSERT_NE(scenario.node_api_for(d, cut), nullptr);
  }
  scenario.set_route(cut, false);
  for (std::uint32_t d = 0; d < config.shards; ++d) {
    EXPECT_EQ(scenario.node_api_for(d, cut), nullptr) << "domain " << d;
    EXPECT_NE(scenario.node_api_for(d, other), nullptr) << "domain " << d;
  }
  scenario.set_route(cut, true);
  for (std::uint32_t d = 0; d < config.shards; ++d) {
    net::NodeApi* api = scenario.node_api_for(d, cut);
    ASSERT_NE(api, nullptr) << "domain " << d;
    EXPECT_EQ(api->id(), cut);
  }
  EXPECT_EQ(scenario.node_api_for(0, NodeId{}), nullptr);
}

TEST(ShardedScenario, StandbyTakesOverAtOneDomain) {
  harness::ShardedConfig config;
  config.base.seed = 13;
  config.base.standby.enabled = true;
  config.force_windows = true;
  harness::ShardedScenario scenario(config);
  ASSERT_TRUE(scenario.standby_enabled());
  build_small_fleet(scenario);
  scenario.schedule_manager_crash(sec(4.0), journal::CrashPoint::kBeforeAck,
                                  sec(0.5));
  scenario.run_until(sec(6.0));
  ASSERT_TRUE(scenario.manager_crashed());
  ASSERT_TRUE(scenario.takeover_done());
  EXPECT_GT(scenario.recovered_lsn(), 0u);
  EXPECT_FALSE(scenario.standby_dump().empty());
  EXPECT_EQ(scenario.standby_dump(), scenario.expected_dump());
  EXPECT_NE(&scenario.active_manager(), &scenario.central_manager());

  // The fleet keeps streaming through the standby: nodes re-register with
  // it and clients complete frames after the takeover.
  const std::uint64_t frames_at_takeover =
      scenario.fleet_stats().totals.frames_ok;
  scenario.run_until(sec(16.0));
  EXPECT_EQ(scenario.active_manager().live_nodes(), scenario.node_count());
  EXPECT_GT(scenario.fleet_stats().totals.frames_ok, frames_at_takeover);
}

TEST(ShardedScenario, StandbyRejectsMoreThanOneDomain) {
  harness::ShardedConfig config;
  config.base.standby.enabled = true;
  config.shards = 2;
  EXPECT_THROW(harness::ShardedScenario scenario(config),
               std::invalid_argument);
}

// ---- the witness ----

void expect_identical_reports(const check::ShardRunReport& ref,
                              const check::ShardRunReport& got,
                              const std::string& what) {
  EXPECT_EQ(got.trace_digest, ref.trace_digest) << what;
  EXPECT_EQ(got.trace_events, ref.trace_events) << what;
  EXPECT_EQ(got.frames_sent, ref.frames_sent) << what;
  EXPECT_EQ(got.frames_ok, ref.frames_ok) << what;
  EXPECT_EQ(got.frames_failed, ref.frames_failed) << what;
  EXPECT_EQ(got.joins, ref.joins) << what;
  EXPECT_EQ(got.switches, ref.switches) << what;
  EXPECT_EQ(got.failovers, ref.failovers) << what;
}

TEST(ShardWitness, ShardedMatchesSequentialAcrossShardCounts) {
  for (const std::uint64_t seed : {1ull, 7ull, 23ull}) {
    const check::ScenarioSpec spec = check::generate_spec(seed);
    const check::ShardRunReport ref = check::run_spec_sharded(spec, 0);
    EXPECT_TRUE(ref.ok()) << "seed " << seed << ": "
                          << (ref.violations.empty()
                                  ? ""
                                  : ref.violations.front().message);
    for (const unsigned shards : {1u, 2u, 4u, 8u}) {
      const check::ShardRunReport got = check::run_spec_sharded(spec, shards);
      expect_identical_reports(
          ref, got,
          "seed " + std::to_string(seed) + " shards " +
              std::to_string(shards));
      EXPECT_TRUE(got.ok()) << "seed " << seed << " shards " << shards;
    }
  }
}

TEST(ShardWitness, OverloadFamilySpecsMatchToo) {
  check::FuzzLimits limits;
  limits.overload_families = true;
  const check::ScenarioSpec spec = check::generate_spec(11, limits);
  const check::ShardRunReport ref = check::run_spec_sharded(spec, 0);
  const check::ShardRunReport got = check::run_spec_sharded(spec, 4);
  expect_identical_reports(ref, got, "overload seed 11");
}

TEST(ShardWitness, ShorterForcedWindowsDoNotChangeTheDigest) {
  const check::ScenarioSpec spec = check::generate_spec(5);
  const check::ShardRunReport ref = check::run_spec_sharded(spec, 2);
  ASSERT_GT(ref.shards.window_length, 1);
  check::ShardRunOptions tight;
  tight.window = ref.shards.window_length / 2;
  const check::ShardRunReport got = check::run_spec_sharded(spec, 2, tight);
  expect_identical_reports(ref, got, "half-length windows");
  EXPECT_GE(got.shards.windows, ref.shards.windows);
}

TEST(ShardWitness, ReportsShardStats) {
  const check::ScenarioSpec spec = check::generate_spec(1);
  const check::ShardRunReport rep = check::run_spec_sharded(spec, 4);
  EXPECT_EQ(rep.shards.events_per_domain.size(), 4u);
  std::uint64_t total = 0;
  for (const std::uint64_t e : rep.shards.events_per_domain) total += e;
  EXPECT_GT(total, 0u);
  EXPECT_GT(rep.shards.windows, 0u);
  EXPECT_GT(rep.shards.window_length, 0);
}

}  // namespace
}  // namespace eden
