// Overload-aware elasticity (load-feedback phase switching) tests:
// manager-side rejoin detection and overload-set hysteresis, node-side
// seqNum safety across rejoins, client-side re-discover hints and dropped
// frame accounting, and bitwise determinism of the feedback loop across
// ParallelRunner thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "check/fuzzer.h"
#include "harness/parallel_runner.h"
#include "harness/scenario.h"
#include "manager/central_manager.h"
#include "net/api.h"
#include "node/edge_node.h"
#include "obs/trace.h"
#include "sim/clock.h"
#include "sim/simulator.h"

namespace eden {
namespace {

net::NodeStatus make_status(std::uint32_t id, std::string geohash = "9zvxvf",
                            int cores = 4, double frame_ms = 30.0) {
  net::NodeStatus status;
  status.node = NodeId{id};
  status.geohash = std::move(geohash);
  status.cores = cores;
  status.base_frame_ms = frame_ms;
  status.burst_credits = 100.0;  // comfortably above min_burst_credits
  return status;
}

manager::OverloadPolicy enabled_policy() {
  manager::OverloadPolicy policy;
  policy.enabled = true;
  return policy;
}

// ---- rejoin detection (satellite 1: no silent resurrection) ----

class ManagerClockTest : public ::testing::Test {
 protected:
  sim::Simulator simulator_;
  sim::SimScheduler clock_{simulator_};
};

TEST_F(ManagerClockTest, HeartbeatAfterTtlExpiryIsExplicitRejoin) {
  manager::CentralManager manager(clock_, {}, sec(3.0));
  obs::TraceRecorder trace;
  manager.set_observability(&trace, nullptr);
  manager.handle_register(make_status(1));
  simulator_.run_until(sec(2.0));
  EXPECT_FALSE(manager.handle_heartbeat(make_status(1)).rejoined);
  EXPECT_EQ(manager.stats().rejoins, 0u);

  // The node goes silent past the TTL; the next heartbeat must be treated
  // as a re-registration (traced expiry + rejoin), not a silent refresh.
  simulator_.run_until(sec(9.0));
  const net::HeartbeatAck ack = manager.handle_heartbeat(make_status(1));
  EXPECT_TRUE(ack.rejoined);
  EXPECT_EQ(manager.stats().rejoins, 1u);
  EXPECT_EQ(trace.count(obs::EventKind::kNodeExpire), 1u);
  EXPECT_EQ(trace.count(obs::EventKind::kNodeRejoin), 1u);
  EXPECT_EQ(manager.live_nodes(), 1u);  // and the node is live again
}

TEST_F(ManagerClockTest, NeverRegisteredHeartbeatIsRejoin) {
  manager::CentralManager manager(clock_, {}, sec(3.0));
  // Registration lost in a fault window: the first thing the manager ever
  // hears is a heartbeat. It must admit the node, but visibly.
  EXPECT_TRUE(manager.handle_heartbeat(make_status(7)).rejoined);
  EXPECT_EQ(manager.stats().rejoins, 1u);
  EXPECT_EQ(manager.live_nodes(), 1u);
}

TEST_F(ManagerClockTest, HeartbeatAtExactTtlBoundaryIsNotRejoin) {
  manager::CentralManager manager(clock_, {}, sec(3.0));
  manager.handle_register(make_status(1));
  // Registry expiry requires age strictly greater than the TTL, so a
  // heartbeat landing exactly at the boundary refreshes the live entry.
  simulator_.run_until(sec(3.0));
  EXPECT_FALSE(manager.handle_heartbeat(make_status(1)).rejoined);
  EXPECT_EQ(manager.stats().rejoins, 0u);
}

// The node reacts to a rejoin ack by bumping its seqNum, so no pre-gap
// seqNum can admit a client after the manager forgot the node.
class ScriptedLink final : public net::ManagerLink {
 public:
  void register_node(const net::NodeStatus&) override {}
  void heartbeat(const net::NodeStatus&) override {}
  void heartbeat_feedback(const net::NodeStatus&,
                          net::Done<std::optional<net::HeartbeatAck>> done)
      override {
    ++heartbeats;
    net::HeartbeatAck ack;
    ack.rejoined = rejoin_next;
    ack.degraded = degraded_next;
    ack.phase_epoch = epoch_next;
    rejoin_next = false;
    done(ack);
  }
  void deregister(NodeId) override {}

  int heartbeats{0};
  bool rejoin_next{false};
  bool degraded_next{false};
  std::uint64_t epoch_next{0};
};

TEST(EdgeNodeRejoin, RejoinAckBumpsSeqNumAndNeverReusesIt) {
  sim::Simulator simulator;
  sim::SimScheduler scheduler(simulator);
  ScriptedLink link;
  node::EdgeNodeConfig config;
  config.id = NodeId{1};
  config.geohash = "9zvxvf";
  config.load_feedback = true;
  node::EdgeNode node(scheduler, config, &link);
  node.start();
  simulator.run_until(sec(2.5));  // a couple of ordinary heartbeats
  const std::uint64_t before = node.seq_num();
  EXPECT_EQ(node.stats().rejoins, 0u);

  link.rejoin_next = true;
  simulator.run_until(sec(3.5));  // next heartbeat carries the rejoin ack
  EXPECT_EQ(node.stats().rejoins, 1u);
  EXPECT_GT(node.seq_num(), before);  // pre-gap seqNums are invalid now
}

TEST(EdgeNodeRejoin, FeedbackOffNeverLearnsPhase) {
  sim::Simulator simulator;
  sim::SimScheduler scheduler(simulator);
  ScriptedLink link;
  link.degraded_next = true;
  link.epoch_next = 9;
  node::EdgeNodeConfig config;
  config.id = NodeId{1};
  config.geohash = "9zvxvf";
  config.load_feedback = false;  // legacy one-way heartbeats
  node::EdgeNode node(scheduler, config, &link);
  node.start();
  simulator.run_until(sec(5.0));
  EXPECT_EQ(link.heartbeats, 0);  // the feedback rpc is never used
  EXPECT_FALSE(node.degraded());
  EXPECT_EQ(node.phase_epoch(), 0u);
}

// ---- overload-set hysteresis ----

net::NodeStatus loaded_status(std::uint32_t id, double queue_per_core,
                              double p95_factor = 0.0) {
  net::NodeStatus status = make_status(id);
  status.queue_depth = static_cast<int>(queue_per_core * status.cores);
  status.p95_proc_ms = p95_factor * status.base_frame_ms;
  return status;
}

TEST_F(ManagerClockTest, EnterThresholdBoundaryIsInclusive) {
  manager::CentralManager manager(clock_, {}, sec(30.0));
  manager.set_overload_policy(enabled_policy());
  manager.handle_register(make_status(1));
  // Exactly at enter_queue_per_core (3.0): >= trips the entry.
  EXPECT_TRUE(manager.handle_heartbeat(loaded_status(1, 3.0)).degraded);
  EXPECT_TRUE(manager.overloaded(NodeId{1}));
  EXPECT_EQ(manager.stats().overload_enters, 1u);
}

TEST_F(ManagerClockTest, JustBelowEnterThresholdStaysClear) {
  manager::CentralManager manager(clock_, {}, sec(30.0));
  manager.set_overload_policy(enabled_policy());
  manager.handle_register(make_status(1));
  EXPECT_FALSE(manager.handle_heartbeat(loaded_status(1, 2.75)).degraded);
  EXPECT_FALSE(manager.overloaded(NodeId{1}));
}

TEST_F(ManagerClockTest, ExitRequiresEveryThresholdClear) {
  manager::CentralManager manager(clock_, {}, sec(30.0));
  manager.set_overload_policy(enabled_policy());
  manager.handle_register(make_status(1));
  ASSERT_TRUE(manager.handle_heartbeat(loaded_status(1, 4.0)).degraded);
  // Past the dwell, queue cleared but p95 still hot: must stay overloaded
  // (exit needs every signal clear, not any).
  simulator_.run_until(sec(3.0));
  EXPECT_TRUE(manager.handle_heartbeat(loaded_status(1, 0.0, 5.0)).degraded);
  simulator_.run_until(sec(6.0));
  // Exactly at the exit boundaries (<=): allowed out.
  EXPECT_FALSE(manager.handle_heartbeat(loaded_status(1, 1.0, 2.5)).degraded);
  EXPECT_EQ(manager.stats().overload_exits, 1u);
}

TEST_F(ManagerClockTest, ThresholdFlappingIsBoundedByDwell) {
  manager::CentralManager manager(clock_, {}, sec(60.0));
  manager.set_overload_policy(enabled_policy());  // min_dwell = 2s
  manager.handle_register(make_status(1));
  // Telemetry oscillating across the boundary every 250 ms for 10 s: 40
  // heartbeats, but at most one transition per dwell period.
  bool high = true;
  for (int i = 0; i < 40; ++i) {
    simulator_.run_until(msec(250.0 * (i + 1)));
    manager.handle_heartbeat(loaded_status(1, high ? 4.0 : 0.0));
    high = !high;
  }
  const std::uint64_t transitions =
      manager.stats().overload_enters + manager.stats().overload_exits;
  EXPECT_GE(transitions, 2u);  // the set does react...
  EXPECT_LE(transitions, 6u);  // ...but <= ceil(10s / 2s dwell) + first entry
}

TEST_F(ManagerClockTest, PhaseEpochIsMonotonePerEpisode) {
  manager::CentralManager manager(clock_, {}, sec(60.0));
  manager::OverloadPolicy policy = enabled_policy();
  policy.min_dwell = msec(100.0);
  manager.set_overload_policy(policy);
  manager.handle_register(make_status(1));

  std::vector<std::uint64_t> epochs;
  for (int episode = 0; episode < 3; ++episode) {
    simulator_.run_until(sec(1.0 * (2 * episode + 1)));
    const net::HeartbeatAck enter = manager.handle_heartbeat(loaded_status(1, 5.0));
    ASSERT_TRUE(enter.degraded);
    epochs.push_back(enter.phase_epoch);
    simulator_.run_until(sec(1.0 * (2 * episode + 2)));
    const net::HeartbeatAck exit = manager.handle_heartbeat(loaded_status(1, 0.0));
    ASSERT_FALSE(exit.degraded);
    // The epoch identifies the episode; exiting does not rewind it.
    EXPECT_EQ(exit.phase_epoch, epochs.back());
  }
  ASSERT_EQ(epochs.size(), 3u);
  EXPECT_EQ(epochs[0] + 1, epochs[1]);
  EXPECT_EQ(epochs[1] + 1, epochs[2]);
}

TEST_F(ManagerClockTest, BurstCreditExhaustionCountsOnlyWithBacklog) {
  manager::CentralManager manager(clock_, {}, sec(30.0));
  manager.set_overload_policy(enabled_policy());
  manager.handle_register(make_status(1));
  net::NodeStatus starved = make_status(1);
  starved.burst_credits = 0.2;  // below min_burst_credits
  starved.queue_depth = 0;      // but nothing is waiting
  EXPECT_FALSE(manager.handle_heartbeat(starved).degraded);
  starved.queue_depth = starved.cores;  // one waiting frame per core
  EXPECT_TRUE(manager.handle_heartbeat(starved).degraded);
}

TEST_F(ManagerClockTest, PolicyDisabledNeverEntersOverload) {
  manager::CentralManager manager(clock_, {}, sec(30.0));
  manager.handle_register(make_status(1));
  const net::HeartbeatAck ack = manager.handle_heartbeat(loaded_status(1, 50.0));
  EXPECT_FALSE(ack.degraded);
  EXPECT_EQ(ack.phase_epoch, 0u);
  EXPECT_FALSE(manager.overloaded(NodeId{1}));
  EXPECT_EQ(manager.stats().overload_enters, 0u);
}

// ---- cell-shed trigger ----

TEST_F(ManagerClockTest, DiscoveryShedsOnlyWhenWholeCellIsHot) {
  manager::CentralManager manager(clock_, {}, sec(30.0));
  manager::OverloadPolicy policy = enabled_policy();
  policy.min_dwell = 0;
  manager.set_overload_policy(policy);
  manager.handle_register(make_status(1, "9zvxvf"));
  manager.handle_register(make_status(2, "9zvxvg"));  // same 4-char cell
  net::NodeStatus cloud = make_status(3, "9zvxvf");
  cloud.is_cloud = true;
  manager.handle_register(cloud);

  net::DiscoveryRequest req;
  req.client = ClientId{50};
  req.geohash = "9zvxvf";
  req.top_n = 3;

  // One of two volunteers hot: no shed.
  manager.handle_heartbeat(loaded_status(1, 5.0));
  EXPECT_FALSE(manager.handle_discover(req).candidates.empty());
  EXPECT_EQ(manager.stats().cell_sheds, 0u);

  // Both volunteers hot (the cloud node is the shed target, not a source):
  // discovery flips into shed mode.
  manager.handle_heartbeat(loaded_status(2, 5.0));
  EXPECT_FALSE(manager.handle_discover(req).candidates.empty());
  EXPECT_EQ(manager.stats().cell_sheds, 1u);

  // One volunteer recovers: shed mode ends.
  manager.handle_heartbeat(loaded_status(1, 0.0));
  EXPECT_FALSE(manager.handle_discover(req).candidates.empty());
  EXPECT_EQ(manager.stats().cell_sheds, 1u);
}

// ---- end-to-end: dropped frames, re-discover hints ----

harness::NodeSpec throttled_node(const char* name) {
  harness::NodeSpec spec;
  spec.name = name;
  spec.cores = 1;
  spec.base_frame_ms = 60.0;
  spec.burstable = true;
  spec.burst_baseline = 0.3;
  spec.initial_credits_core_sec = 0.5;  // throttles almost immediately
  return spec;
}

TEST(OverloadEndToEnd, DroppedFramesSurfaceAsFailedInClientStats) {
  harness::ScenarioConfig config;
  config.seed = 11;
  config.trace = true;
  config.load_feedback = true;
  harness::Scenario scenario(config);
  scenario.add_node(throttled_node("hot"));
  scenario.start_node(0);

  client::ClientConfig cc;
  cc.id = ClientId{100};
  cc.app.max_fps = 20.0;
  cc.app.adaptive_rate = false;  // keep pressure on
  client::EdgeClient& cl =
      scenario.add_edge_client(harness::ClientSpot{.name = "u"}, cc);
  cl.start();
  scenario.run_until(sec(30.0));

  const client::ClientStats& stats = cl.stats();
  EXPECT_GT(stats.frames_sent, 0u);
  // The throttled executor sheds; fast-fail surfaces them as failed frames
  // instead of silent timeouts.
  EXPECT_GT(stats.frames_failed, 0u);
  EXPECT_GT(scenario.node(0).stats().frames_shed, 0u);
  EXPECT_GT(scenario.trace_recorder()->count(obs::EventKind::kNodeShed), 0u);
  // Frame conservation: everything sent is accounted ok/failed, modulo the
  // handful still in flight (bounded by timeout * fps, generously 32).
  const std::uint64_t settled = stats.frames_ok + stats.frames_failed;
  EXPECT_LE(settled, stats.frames_sent);
  EXPECT_LE(stats.frames_sent - settled, 32u);
}

TEST(OverloadEndToEnd, RediscHintHonoredAtMostOncePerEpoch) {
  harness::ScenarioConfig config;
  config.seed = 12;
  config.trace = true;
  config.load_feedback = true;
  harness::Scenario scenario(config);
  scenario.add_node(throttled_node("hot"));
  // A spare dedicated node nearby — but started only after the client is
  // committed to "hot", so the hint (not initial selection) moves it.
  harness::NodeSpec spare;
  spare.name = "spare";
  spare.position = {44.9800, -93.2700};
  spare.cores = 8;
  spare.base_frame_ms = 15.0;
  spare.dedicated = true;
  scenario.add_node(spare);
  scenario.start_node(0);
  scenario.schedule_node_start(1, sec(15.0));

  client::ClientConfig cc;
  cc.id = ClientId{100};
  cc.app.max_fps = 15.0;
  cc.app.adaptive_rate = false;  // keep pressure on the hot node
  client::EdgeClient& cl =
      scenario.add_edge_client(harness::ClientSpot{.name = "u"}, cc);
  // Let "hot" finish registering first, so the client commits to it.
  scenario.run_until(sec(0.5));
  cl.start();
  scenario.run_until(sec(40.0));

  // The whole loop must have closed: "hot" entered the overload set, the
  // client moved to the spare, and the drained node eventually exited.
  const obs::TraceRecorder& tr = *scenario.trace_recorder();
  EXPECT_GE(tr.count(obs::EventKind::kOverloadEnter), 1u);
  EXPECT_GE(tr.count(obs::EventKind::kOverloadExit), 1u);
  EXPECT_GE(cl.stats().switches + cl.stats().failovers, 1u);
  ASSERT_TRUE(cl.current_node().has_value());
  EXPECT_EQ(*cl.current_node(), scenario.node_id(1));  // ...to the spare
  EXPECT_FALSE(scenario.node(0).degraded());
  // Every honored hint consumed a distinct phase epoch: honoring is
  // at-most-once per (node, episode), no matter how many frame responses
  // carried the same epoch.
  std::vector<double> honored_epochs;
  for (const obs::TraceEvent& ev : scenario.trace_recorder()->events()) {
    if (ev.kind == obs::EventKind::kRediscHint) {
      honored_epochs.push_back(ev.value);
    }
  }
  EXPECT_GE(honored_epochs.size(), 1u);  // the scenario does degrade "hot"
  EXPECT_EQ(cl.stats().redisc_hints, honored_epochs.size());
  const std::set<double> unique(honored_epochs.begin(), honored_epochs.end());
  EXPECT_EQ(unique.size(), honored_epochs.size());
}

TEST(OverloadEndToEnd, FeedbackOffKeepsLegacyBehavior) {
  harness::ScenarioConfig config;
  config.seed = 11;
  config.trace = true;
  config.load_feedback = false;
  harness::Scenario scenario(config);
  scenario.add_node(throttled_node("hot"));
  scenario.start_node(0);
  client::ClientConfig cc;
  cc.id = ClientId{100};
  cc.app.max_fps = 20.0;
  cc.app.adaptive_rate = false;
  client::EdgeClient& cl =
      scenario.add_edge_client(harness::ClientSpot{.name = "u"}, cc);
  cl.start();
  scenario.run_until(sec(30.0));

  // No feedback: no phase, no hints, no fast-fail, no overload tracing.
  EXPECT_FALSE(scenario.node(0).degraded());
  EXPECT_EQ(scenario.node(0).stats().frames_shed, 0u);
  EXPECT_EQ(cl.stats().redisc_hints, 0u);
  const obs::TraceRecorder& trace = *scenario.trace_recorder();
  EXPECT_EQ(trace.count(obs::EventKind::kOverloadEnter), 0u);
  EXPECT_EQ(trace.count(obs::EventKind::kRediscHint), 0u);
  EXPECT_EQ(trace.count(obs::EventKind::kNodeShed), 0u);
  EXPECT_EQ(scenario.central_manager().stats().overload_enters, 0u);
}

// ---- bitwise determinism across thread counts ----

TEST(OverloadDeterminism, HeartbeatTelemetryIdenticalAcrossThreadCounts) {
  // The full trace (which serializes every heartbeat's piggybacked
  // telemetry decisions: overload enters/exits, sheds, hints) must hash
  // identically whether the seeds run on 1 worker or 4.
  check::FuzzLimits limits;
  limits.overload_families = true;
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5, 6};
  auto digests = [&](int threads) {
    harness::ParallelRunner runner(threads);
    std::vector<std::function<std::uint64_t()>> jobs;
    for (const std::uint64_t seed : seeds) {
      jobs.emplace_back([seed, &limits] {
        return check::run_spec(check::generate_spec(seed, limits)).trace_digest;
      });
    }
    return runner.map(std::move(jobs));
  };
  const std::vector<std::uint64_t> serial = digests(1);
  const std::vector<std::uint64_t> wide = digests(4);
  EXPECT_EQ(serial, wide);
  for (const std::uint64_t digest : serial) EXPECT_NE(digest, 0u);
}

}  // namespace
}  // namespace eden
