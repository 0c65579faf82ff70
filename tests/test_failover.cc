// Failure-injection tests for the failure monitor (§IV-E): immediate
// switch to proactively-connected backups, reactive re-connect, hard
// failures when every backup is gone — plus manager-failover tests
// (DESIGN.md §15): the primary dies mid-churn at each crash point and the
// warm standby takes over with every oracle holding.
#include <gtest/gtest.h>

#include <vector>

#include "check/fuzzer.h"
#include "check/spec.h"
#include "harness/experiments.h"
#include "harness/scenario.h"
#include "journal/manager_journal.h"

namespace eden::client {
namespace {

using harness::ClientSpot;
using harness::NodeSpec;
using harness::Scenario;
using harness::ScenarioConfig;

NodeSpec volunteer(const std::string& name, double lat, double lon,
                   int cores = 2, double frame_ms = 30.0) {
  NodeSpec spec;
  spec.name = name;
  spec.position = {lat, lon};
  spec.tier = net::AccessTier::kFiber;
  spec.cores = cores;
  spec.base_frame_ms = frame_ms;
  return spec;
}

ClientConfig probing_config(int top_n = 3, bool proactive = true) {
  ClientConfig config;
  config.top_n = top_n;
  config.probing_period = sec(2.0);
  config.proactive_connections = proactive;
  return config;
}

class FailoverTest : public ::testing::Test {
 protected:
  FailoverTest()
      : scenario_(ScenarioConfig{.seed = 21}, harness::NetKind::kGeo) {}

  void build_three_nodes() {
    node_a_ = scenario_.add_node(volunteer("a", 44.978, -93.265, 4, 20.0));
    node_b_ = scenario_.add_node(volunteer("b", 44.99, -93.25, 2, 30.0));
    node_c_ = scenario_.add_node(volunteer("c", 45.01, -93.20, 2, 35.0));
    harness::start_all_nodes(scenario_);
    scenario_.run_until(sec(2.0));
  }

  EdgeClient& add_client(ClientConfig config) {
    auto& client = scenario_.add_edge_client(
        ClientSpot{"u1", {44.9778, -93.2650}, net::AccessTier::kCable, ""},
        std::move(config));
    client.start();
    return client;
  }

  // Index of the node the client is currently attached to.
  std::size_t current_index(const EdgeClient& client) {
    return *scenario_.node_index(*client.current_node());
  }

  Scenario scenario_;
  std::size_t node_a_{0};
  std::size_t node_b_{0};
  std::size_t node_c_{0};
};

TEST_F(FailoverTest, ImmediateSwitchToFirstBackup) {
  build_three_nodes();
  auto& client = add_client(probing_config());
  scenario_.run_until(sec(6.0));
  ASSERT_TRUE(client.current_node().has_value());
  ASSERT_FALSE(client.backup_nodes().empty());
  const NodeId expected_backup = client.backup_nodes().front();

  scenario_.stop_node(current_index(client), /*graceful=*/false);
  scenario_.run_until(sec(10.0));

  // Failure monitor replaced the node with the pre-sorted second-best.
  ASSERT_TRUE(client.current_node().has_value());
  EXPECT_EQ(*client.current_node(), expected_backup);
  EXPECT_GE(client.stats().failovers, 1u);
  EXPECT_EQ(client.stats().hard_failures, 0u);
}

TEST_F(FailoverTest, ServiceContinuesThroughFailure) {
  build_three_nodes();
  auto& client = add_client(probing_config());
  scenario_.run_until(sec(6.0));
  scenario_.stop_node(current_index(client), false);
  scenario_.run_until(sec(20.0));

  // Frames keep completing after the failure (on the backup).
  const auto after = client.latency_series().window(sec(8), sec(20));
  EXPECT_GT(after.count(), 100u);
}

TEST_F(FailoverTest, ProactiveGapSmallerThanReactive) {
  // Measure the service interruption (max gap between consecutive
  // completed frames around the failure) with and without proactive
  // connections — the Fig 4 comparison.
  auto gap_for = [&](bool proactive) {
    Scenario scenario(ScenarioConfig{.seed = 33}, harness::NetKind::kGeo);
    scenario.add_node(volunteer("a", 44.978, -93.265, 4, 20.0));
    scenario.add_node(volunteer("b", 44.99, -93.25, 2, 30.0));
    scenario.add_node(volunteer("c", 45.01, -93.20, 2, 35.0));
    harness::start_all_nodes(scenario);
    scenario.run_until(sec(2.0));
    auto config = probing_config(3, proactive);
    config.reconnect_penalty = msec(800.0);
    auto& client = scenario.add_edge_client(
        ClientSpot{"u1", {44.9778, -93.2650}, net::AccessTier::kCable, ""},
        config);
    client.start();
    scenario.run_until(sec(6.0));
    scenario.stop_node(*scenario.node_index(*client.current_node()), false);
    scenario.run_until(sec(20.0));

    SimTime max_gap = 0;
    SimTime prev = 0;
    for (const auto& [t, v] : client.latency_series().points()) {
      if (prev != 0) max_gap = std::max(max_gap, t - prev);
      prev = t;
    }
    return max_gap;
  };

  const SimTime proactive_gap = gap_for(true);
  const SimTime reactive_gap = gap_for(false);
  EXPECT_LT(proactive_gap, reactive_gap);
  EXPECT_GT(reactive_gap, msec(800.0));  // at least the reconnect penalty
  EXPECT_LT(proactive_gap, sec(2.5));    // ~keepalive detection + switch
}

TEST_F(FailoverTest, CascadingFailuresWalkTheBackupList) {
  build_three_nodes();
  auto& client = add_client(probing_config());
  scenario_.run_until(sec(6.0));
  // Kill the current node AND the first backup at the same instant.
  const std::size_t current = current_index(client);
  ASSERT_FALSE(client.backup_nodes().empty());
  const std::size_t first_backup =
      *scenario_.node_index(client.backup_nodes().front());
  scenario_.stop_node(current, false);
  scenario_.stop_node(first_backup, false);
  scenario_.run_until(sec(12.0));

  ASSERT_TRUE(client.current_node().has_value());
  const std::size_t survivor = current_index(client);
  EXPECT_NE(survivor, current);
  EXPECT_NE(survivor, first_backup);
  EXPECT_EQ(client.stats().hard_failures, 0u);
}

TEST_F(FailoverTest, AllBackupsDeadIsAHardFailure) {
  build_three_nodes();
  auto& client = add_client(probing_config());
  scenario_.run_until(sec(6.0));
  // Everything dies at once: the client must record a hard failure
  // (re-connect situation) — this is what Fig 10b counts.
  scenario_.stop_node(node_a_, false);
  scenario_.stop_node(node_b_, false);
  scenario_.stop_node(node_c_, false);
  scenario_.run_until(sec(12.0));
  EXPECT_GE(client.stats().hard_failures, 1u);
  EXPECT_FALSE(client.current_node().has_value());

  // A node returns: the reactive rediscovery path eventually re-attaches.
  scenario_.schedule_node_start(node_c_, sec(13.0));
  scenario_.run_until(sec(25.0));
  EXPECT_TRUE(client.current_node().has_value());
}

TEST_F(FailoverTest, TopN1HasNoBackups) {
  build_three_nodes();
  auto& client = add_client(probing_config(/*top_n=*/1));
  scenario_.run_until(sec(6.0));
  EXPECT_TRUE(client.backup_nodes().empty());
  scenario_.stop_node(current_index(client), false);
  scenario_.run_until(sec(12.0));
  // With no backups every failure is a hard failure.
  EXPECT_GE(client.stats().hard_failures, 1u);
}

TEST_F(FailoverTest, GracefulLeaveAlsoTriggersFailover) {
  // A graceful node departure (deregister + dead host) looks the same from
  // the client's data path: the keepalive misses, failover kicks in.
  build_three_nodes();
  auto& client = add_client(probing_config());
  scenario_.run_until(sec(6.0));
  const std::size_t current = current_index(client);
  scenario_.stop_node(current, /*graceful=*/true);
  scenario_.run_until(sec(12.0));
  ASSERT_TRUE(client.current_node().has_value());
  EXPECT_NE(current_index(client), current);
}

TEST_F(FailoverTest, NoRouteKeepaliveDrivesFailover) {
  // Regression: the current node's resolver yielding nullptr (deregistered
  // / pulled from the fabric) used to return early from keepalive_tick(),
  // so the node never accrued misses and the client stayed attached to it
  // forever. No-route must count as a miss and drive the failure monitor.
  scenario_.enable_observability();
  build_three_nodes();
  auto config = probing_config();
  config.probing_period = sec(10.0);  // keepalive, not re-probing, must act
  config.send_frames = false;         // selection-only: keepalive-only path
  auto& client = add_client(config);
  scenario_.run_until(sec(6.0));
  ASSERT_TRUE(client.current_node().has_value());
  const NodeId wedged = *client.current_node();
  ASSERT_FALSE(client.backup_nodes().empty());

  scenario_.set_route(wedged, false);
  scenario_.run_until(sec(9.0));

  auto* trace = scenario_.trace_recorder();
  ASSERT_NE(trace, nullptr);
  EXPECT_GE(trace->count(obs::EventKind::kKeepaliveMiss), 2u);
  EXPECT_GE(trace->count(obs::EventKind::kNodeFailure), 1u);
  EXPECT_GE(trace->count(obs::EventKind::kFailover), 1u);
  EXPECT_GE(client.stats().failovers, 1u);
  ASSERT_TRUE(client.current_node().has_value());
  EXPECT_NE(*client.current_node(), wedged);
}

TEST_F(FailoverTest, NoRouteFrameIsCountedAndFailsOver) {
  // Regression: send_frame() used to return early on a nullptr route —
  // frames vanished without touching frames_sent/frames_failed and the
  // client never reacted. A no-route frame is a definitive drop: count it
  // and fail over immediately.
  scenario_.enable_observability();
  build_three_nodes();
  auto& client = add_client(probing_config());
  scenario_.run_until(sec(6.0));
  ASSERT_TRUE(client.current_node().has_value());
  const NodeId wedged = *client.current_node();
  const auto frames_failed_before = client.stats().frames_failed;

  scenario_.set_route(wedged, false);
  scenario_.run_until(sec(8.0));

  auto* trace = scenario_.trace_recorder();
  ASSERT_NE(trace, nullptr);
  EXPECT_GE(trace->count(obs::EventKind::kFrameDrop), 1u);
  EXPECT_GE(trace->count(obs::EventKind::kNodeFailure), 1u);
  EXPECT_GE(trace->count(obs::EventKind::kFailover), 1u);
  EXPECT_GT(client.stats().frames_failed, frames_failed_before);
  ASSERT_TRUE(client.current_node().has_value());
  EXPECT_NE(*client.current_node(), wedged);
  // Service resumed on the backup: frames complete after the cut.
  EXPECT_GT(client.latency_series().window(sec(7), sec(8)).count(), 0u);
}

TEST_F(FailoverTest, FailedNodeRemovedFromDiscoveryAfterTtl) {
  build_three_nodes();
  auto& client = add_client(probing_config());
  scenario_.run_until(sec(6.0));
  const std::size_t failed = current_index(client);
  scenario_.stop_node(failed, false);
  // After the heartbeat TTL (3 s) + a probing period, the candidate list no
  // longer contains the dead node, so backups are all alive.
  scenario_.run_until(sec(14.0));
  for (const NodeId b : client.backup_nodes()) {
    EXPECT_NE(b, scenario_.node_id(failed));
  }
}

}  // namespace
}  // namespace eden::client

// ---- manager failover: primary dies mid-churn, warm standby takes over ----

namespace eden::check {
namespace {

// A churny failover scenario: nodes joining/leaving and clients streaming
// while the primary manager is killed. Mirrors the eden_check crash
// selftest topology but with live churn around the crash instant.
ScenarioSpec churny_crash_spec(int crash_point) {
  ScenarioSpec spec;
  spec.seed = 7100 + static_cast<std::uint64_t>(crash_point);
  spec.horizon_sec = 30.0;
  spec.cooldown_sec = 10.0;
  spec.heartbeat_ttl_sec = 3.0;
  spec.user_idle_ttl_sec = 12.0;
  spec.standby = true;
  spec.crash.enabled = true;
  spec.crash.point = crash_point;
  spec.crash.at_sec = 8.0;
  spec.crash.takeover_delay_sec = 0.5;
  for (int i = 0; i < 3; ++i) {
    FuzzNode node;
    node.lat += 0.02 * i;
    node.base_frame_ms = 18.0 + 4.0 * i;
    node.heartbeat_period_sec = 0.8;
    spec.nodes.push_back(node);
  }
  // Churn around the crash: one node joins just before it, one leaves just
  // after — both mutations must land in (or replay from) the journal.
  FuzzNode late;
  late.lon += 0.05;
  late.start_sec = 7.0;
  spec.nodes.push_back(late);
  spec.nodes[2].stop_sec = 9.5;
  spec.nodes[2].graceful_stop = true;
  for (int i = 0; i < 2; ++i) {
    FuzzClient client;
    client.lon += 0.03 * i;
    client.probing_period_sec = 2.5;
    client.start_sec = static_cast<double>(i);
    spec.clients.push_back(client);
  }
  return spec;
}

TEST(ManagerFailover, DiesMidChurnStandbyTakesOverAtEveryCrashPoint) {
  for (int point = 0; point <= 3; ++point) {
    SCOPED_TRACE("crash point " + std::to_string(point));
    const ScenarioSpec spec = churny_crash_spec(point);
    ASSERT_TRUE(effective_crash(spec).has_value());
    const RunReport report = run_spec(spec);
    // All oracles hold: the seven pre-existing ones plus journal-seqnum
    // (no LSN regression across takeover; exactly one crash + takeover)
    // and readmission (bounded re-admission of surviving nodes).
    for (const Violation& v : report.violations) {
      ADD_FAILURE() << v.oracle << ": " << v.message;
    }
    // Clients kept liveness: frames completed during the run despite the
    // manager dying (the takeover happens at 8.5 s of a 30 s horizon, so
    // the bulk of the stream flows through the standby).
    EXPECT_GT(report.frames_ok, 0u);
    EXPECT_GT(report.frames_sent, report.frames_ok / 2);
  }
}

TEST(ManagerFailover, CrashRunsAreBitwiseDeterministic) {
  const ScenarioSpec spec = churny_crash_spec(1);
  const RunReport first = run_spec(spec);
  const RunReport second = run_spec(spec);
  EXPECT_EQ(first.trace_digest, second.trace_digest);
  EXPECT_EQ(first.trace_events, second.trace_events);
}

TEST(ManagerFailover, PlantedReplayBugTripsJournalOracles) {
  // Chaos bit: the standby silently drops the last committed batch at
  // replay. Both the LSN-regression oracle and the replay-determinism
  // witness must catch it — proving the takeover checks are live.
  ScenarioSpec spec = churny_crash_spec(1);
  spec.chaos = kChaosDropLastBatchOnReplay;
  const RunReport report = run_spec(spec);
  bool caught_lsn = false;
  bool caught_dump = false;
  for (const Violation& v : report.violations) {
    caught_lsn |= v.oracle == "journal-seqnum";
    caught_dump |= v.oracle == "journal-replay";
  }
  EXPECT_TRUE(caught_lsn);
  EXPECT_TRUE(caught_dump);
}

TEST(ManagerFailover, FuzzedCrashSeedsHoldAllOracles) {
  // A miniature of the eden_check --crash sweep, pinned in ctest: every
  // generated spec carries a standby plus a sampled crash point.
  FuzzLimits limits;
  limits.crash_points = true;
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const ScenarioSpec spec = generate_spec(seed, limits);
    EXPECT_TRUE(spec.standby);
    EXPECT_TRUE(spec.crash.enabled);
    const RunReport report = run_spec(spec);
    for (const Violation& v : report.violations) {
      ADD_FAILURE() << "seed " << seed << ": " << v.oracle << ": "
                    << v.message;
    }
  }
}

// The scenario silences a crashed primary through the injector it owns:
// with none supplied by the caller, nothing the dead primary sends from the
// crash instant on is delivered, while its earlier sends are.
TEST(ManagerFailover, CrashedPrimarySendsNothingWithoutCallerInjector) {
  harness::ScenarioConfig config;
  config.seed = 5;
  config.standby.enabled = true;
  harness::Scenario scenario(config);
  harness::NodeSpec spec;
  spec.name = "listener";
  const std::size_t node = scenario.add_node(spec);
  scenario.start_node(node);
  const SimTime crash_at = sec(2.0);
  scenario.schedule_manager_crash(crash_at, journal::CrashPoint::kAfterAppend,
                                  sec(0.5));
  // Probe sends from the primary's host; the one at crash_at is queued
  // after the crash trigger, so it runs just after the primary died.
  std::vector<SimTime> delivered;
  for (const SimTime at : {sec(1.0), crash_at, sec(2.2), sec(3.0)}) {
    scenario.simulator().schedule_at(at, [&scenario, &delivered, node, at] {
      scenario.fabric().deliver(HostId{0}, scenario.node_id(node), 64.0,
                                [&delivered, at] { delivered.push_back(at); });
    });
  }
  scenario.run_until(sec(4.0));
  ASSERT_TRUE(scenario.manager_crashed());
  EXPECT_EQ(delivered, std::vector<SimTime>{sec(1.0)});
}

}  // namespace
}  // namespace eden::check
