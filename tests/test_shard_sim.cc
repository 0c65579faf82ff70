// Sharded-simulator tests: the delivery lane's canonical ordering, the
// ShardRouter window-barrier contract, the WindowPool fork-join primitive
// and the resolve_thread_count() contract, conservative lookahead
// derivation — and the tentpole witness: run_spec_sharded() produces a
// bit-identical canonical trace digest at every shard count, pinned
// against the windowless one-shard sequential reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "check/fuzzer.h"
#include "check/shard_witness.h"
#include "harness/sharded_scenario.h"
#include "harness/window_pool.h"
#include "net/shard_router.h"
#include "sim/simulator.h"

namespace eden {
namespace {

// ---- delivery lane ----

TEST(DeliveryLane, DeliveriesBeatEventsAtEqualTimestamps) {
  sim::Simulator sim;
  std::string order;
  sim.schedule_at(msec(10), [&order] { order += 'E'; });
  sim.schedule_delivery(msec(10), sim::Simulator::DeliveryKey{1, 0},
                        sim::Callback([&order] { order += 'D'; }));
  sim.run_until(msec(10));
  EXPECT_EQ(order, "DE");
}

TEST(DeliveryLane, OrdersByCanonicalKeyNotInsertion) {
  sim::Simulator sim;
  std::string order;
  // Insert in scrambled order; the lane must execute by (time, hi, lo).
  sim.schedule_delivery(msec(5), sim::Simulator::DeliveryKey{2, 0},
                        sim::Callback([&order] { order += 'c'; }));
  sim.schedule_delivery(msec(5), sim::Simulator::DeliveryKey{1, 7},
                        sim::Callback([&order] { order += 'b'; }));
  sim.schedule_delivery(msec(5), sim::Simulator::DeliveryKey{1, 2},
                        sim::Callback([&order] { order += 'a'; }));
  sim.schedule_delivery(msec(3), sim::Simulator::DeliveryKey{9, 9},
                        sim::Callback([&order] { order += '0'; }));
  sim.run_all();
  EXPECT_EQ(order, "0abc");
}

TEST(DeliveryLane, CountsTowardPendingAndNextEventTime) {
  sim::Simulator sim;
  bool ran = false;
  sim.schedule_delivery(msec(4), sim::Simulator::DeliveryKey{1, 0},
                        sim::Callback([&ran] { ran = true; }));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(msec(4) - 1);  // the lane's next event is not due yet
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_all();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), msec(4));
  EXPECT_EQ(sim.pending(), 0u);
}

// Deliveries that schedule regular events below the next queued regular
// time lower the radix queue's minimum from inside the event loop (the
// two-lane pop has already refilled the regular queue). Execution order
// must still equal a brute-force reference: (time, lane, key | seq), with
// deliveries (lane 0) before regular events (lane 1) at equal times.
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
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Simulator sim;
    std::mt19937_64 rng(seed);
    auto draw = [&rng](std::uint64_t n) { return rng() % n; };
    std::vector<Pending> reference;
    std::unordered_map<int, sim::EventId> regular_ids;
    std::uint64_t seq = 0;
    std::uint64_t delivery_lo = 0;
    int next_id = 0;
    int executed = 0;
    int out_of_order = 0;
    std::function<void(SimTime)> add_regular;
    std::function<void(SimTime)> add_delivery;

    // Runs inside the engine: the event must be the reference minimum.
    auto fire = [&](int id, bool delivery) {
      const auto min = std::min_element(reference.begin(), reference.end());
      if (min == reference.end() || min->id != id) ++out_of_order;
      reference.erase(std::find_if(reference.begin(), reference.end(),
                                   [id](const Pending& p) {
                                     return p.id == id;
                                   }));
      regular_ids.erase(id);
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
          const int victim_id = victim->first;
          EXPECT_TRUE(sim.cancel(victim->second));
          regular_ids.erase(victim);
          reference.erase(std::find_if(reference.begin(), reference.end(),
                                       [victim_id](const Pending& p) {
                                         return p.id == victim_id;
                                       }));
        }
      }
    };
    add_regular = [&](SimTime at) {
      const int id = next_id++;
      reference.push_back({at, 1, 0, seq++, id});
      regular_ids[id] = sim.schedule_at(at, [&fire, id] { fire(id, false); });
    };
    add_delivery = [&](SimTime at) {
      const int id = next_id++;
      const sim::Simulator::DeliveryKey key{draw(4), delivery_lo++};
      reference.push_back({at, 0, key.hi, key.lo, id});
      sim.schedule_delivery(at, key, sim::Callback([&fire, id] {
                              fire(id, true);
                            }));
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

TEST(ShardRouter, FlushInjectsIntoDestinationDeliveryLane) {
  sim::Simulator sa;
  sim::Simulator sb;
  net::ShardRouter router;
  const auto s0 = router.add_shard(nullptr, &sa);
  const auto s1 = router.add_shard(nullptr, &sb);
  router.set_shard(HostId{10}, s0);
  router.set_shard(HostId{20}, s1);
  EXPECT_EQ(router.shard_of(HostId{10}), s0);
  EXPECT_EQ(router.shard_of(HostId{20}), s1);
  EXPECT_EQ(router.shard_of(HostId{999}), 0u);  // unmapped -> shard 0

  bool delivered = false;
  router.post(s0, s1, msec(12), /*key_hi=*/42, /*key_lo=*/0,
              sim::Callback([&delivered] { delivered = true; }));
  EXPECT_FALSE(router.idle());
  EXPECT_EQ(router.flush(msec(10)), 1u);
  EXPECT_TRUE(router.idle());
  EXPECT_EQ(router.messages_routed(), 1u);
  EXPECT_FALSE(delivered);  // buffered into sb, not executed yet
  sb.run_until(msec(12));
  EXPECT_TRUE(delivered);
  EXPECT_EQ(sa.events_processed(), 0u);
}

TEST(ShardRouter, FlushThrowsWhenArrivalPrecedesWindowStart) {
  sim::Simulator sa;
  sim::Simulator sb;
  net::ShardRouter router;
  const auto s0 = router.add_shard(nullptr, &sa);
  const auto s1 = router.add_shard(nullptr, &sb);
  router.post(s0, s1, msec(5), 1, 0, sim::Callback([] {}));
  EXPECT_THROW(router.flush(msec(6)), std::runtime_error);
}

// ---- resolve_thread_count (shared harness contract) ----

TEST(ResolveThreadCount, ExplicitRequestWins) {
  EXPECT_EQ(harness::resolve_thread_count(4, 8), 4u);
  EXPECT_EQ(harness::resolve_thread_count(1, 8), 1u);
  // An explicit request is honored even when hardware reports nothing.
  EXPECT_EQ(harness::resolve_thread_count(3, 0), 3u);
}

TEST(ResolveThreadCount, ZeroPicksHardwareClampedToOne) {
  EXPECT_EQ(harness::resolve_thread_count(0, 8), 8u);
  // hardware_concurrency() == 0 means "unknown" — never 0 threads.
  EXPECT_EQ(harness::resolve_thread_count(0, 0), 1u);
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(harness::resolve_thread_count(0), hw == 0 ? 1u : hw);
  EXPECT_GE(harness::resolve_thread_count(0), 1u);
}

// ---- WindowPool ----

TEST(WindowPool, InlineWhenSingleThreaded) {
  harness::WindowPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  std::atomic<int> sum{0};
  pool.for_each(100, [&sum](std::size_t i) {
    sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(WindowPool, PooledRunsEveryIndexExactlyOnce) {
  harness::WindowPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  for (int round = 0; round < 5; ++round) {  // reusable across barriers
    pool.for_each(hits.size(), [&hits](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 5);
}

TEST(WindowPool, PropagatesExceptionsAndSurvives) {
  harness::WindowPool pool(2);
  EXPECT_THROW(
      pool.for_each(8,
                    [](std::size_t i) {
                      if (i == 3) throw std::runtime_error("boom");
                    }),
      std::runtime_error);
  // The pool must stay usable after a failed window.
  std::atomic<int> ran{0};
  pool.for_each(8, [&ran](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 8);
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

TEST(ShardWitness, ThreadCountDoesNotChangeTheDigest) {
  const check::ScenarioSpec spec = check::generate_spec(3);
  const check::ShardRunReport ref = check::run_spec_sharded(spec, 4);
  check::ShardRunOptions wide;
  wide.threads = 4;
  const check::ShardRunReport got = check::run_spec_sharded(spec, 4, wide);
  expect_identical_reports(ref, got, "threads 1 vs 4");
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
