// Fault-injection tests: directional cuts, partitions, host brownouts and
// latency inflation — and the client's reaction when a PATH dies while
// both endpoints stay up (the case the paper's connection-level failure
// monitor must catch).
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "geo/geopoint.h"
#include "harness/experiments.h"
#include "harness/scenario.h"
#include "manager/registry.h"
#include "net/sim_network.h"

namespace eden {
namespace {

using harness::ClientSpot;
using harness::NodeSpec;
using harness::Scenario;
using harness::ScenarioConfig;

// ---- FaultInjector unit behaviour ----

TEST(FaultInjector, DirectionalCut) {
  net::FaultInjector faults;
  faults.cut_link(HostId{1}, HostId{2}, msec(100), msec(200));
  EXPECT_FALSE(faults.dropped(HostId{1}, HostId{2}, msec(50)));
  EXPECT_TRUE(faults.dropped(HostId{1}, HostId{2}, msec(150)));
  EXPECT_FALSE(faults.dropped(HostId{2}, HostId{1}, msec(150)));  // one way
  EXPECT_FALSE(faults.dropped(HostId{1}, HostId{2}, msec(200)));  // half-open
}

TEST(FaultInjector, PartitionCutsBothWays) {
  net::FaultInjector faults;
  faults.partition(HostId{1}, HostId{2}, 0, sec(1));
  EXPECT_TRUE(faults.dropped(HostId{1}, HostId{2}, msec(10)));
  EXPECT_TRUE(faults.dropped(HostId{2}, HostId{1}, msec(10)));
  EXPECT_FALSE(faults.dropped(HostId{1}, HostId{3}, msec(10)));
}

TEST(FaultInjector, HostIsolationIsWildcard) {
  net::FaultInjector faults;
  faults.isolate_host(HostId{5}, 0, sec(1));
  EXPECT_TRUE(faults.dropped(HostId{5}, HostId{1}, msec(10)));
  EXPECT_TRUE(faults.dropped(HostId{2}, HostId{5}, msec(10)));
  EXPECT_FALSE(faults.dropped(HostId{2}, HostId{1}, msec(10)));
}

TEST(FaultInjector, SlowLinkMultiplies) {
  net::FaultInjector faults;
  faults.slow_link(HostId{1}, HostId{2}, 3.0, 0, sec(1));
  faults.slow_link(HostId{1}, HostId{2}, 2.0, 0, sec(1));
  EXPECT_DOUBLE_EQ(faults.delay_factor(HostId{1}, HostId{2}, msec(10)), 6.0);
  EXPECT_DOUBLE_EQ(faults.delay_factor(HostId{2}, HostId{1}, msec(10)), 1.0);
  EXPECT_DOUBLE_EQ(faults.delay_factor(HostId{1}, HostId{2}, sec(2)), 1.0);
}

// ---- fabric integration ----

TEST(SimNetworkFaults, CutDropsAtSendTime) {
  sim::Simulator simulator;
  net::MatrixNetwork model(20.0, 100.0, 0.0);
  net::HostTable hosts;
  net::SimNetwork fabric(simulator, model, hosts, Rng(1));
  net::FaultInjector faults;
  fabric.set_fault_injector(&faults);
  hosts.set_alive(HostId{1}, true);
  hosts.set_alive(HostId{2}, true);
  faults.cut_link(HostId{1}, HostId{2}, 0, msec(100));

  int delivered = 0;
  fabric.deliver(HostId{1}, HostId{2}, 0, [&] { ++delivered; });  // cut
  simulator.run_until(msec(150));
  fabric.deliver(HostId{1}, HostId{2}, 0, [&] { ++delivered; });  // healed
  simulator.run_all();
  EXPECT_EQ(delivered, 1);
}

TEST(SimNetworkFaults, SlowLinkInflatesRpcLatency) {
  sim::Simulator simulator;
  net::MatrixNetwork model(20.0, 100.0, 0.0);
  net::HostTable hosts;
  net::SimNetwork fabric(simulator, model, hosts, Rng(1));
  net::FaultInjector faults;
  fabric.set_fault_injector(&faults);
  hosts.set_alive(HostId{1}, true);
  hosts.set_alive(HostId{2}, true);
  faults.slow_link(HostId{1}, HostId{2}, 5.0, 0, sec(10));

  SimTime completed_at = 0;
  fabric.rpc<int>(
      HostId{1}, HostId{2}, 0, 0, sec(5), [] { return 1; },
      [&](std::optional<int> r) {
        ASSERT_TRUE(r.has_value());
        completed_at = simulator.now();
      });
  simulator.run_all();
  // Outbound leg 10 ms x5 = 50 ms, return leg 10 ms -> 60 ms total.
  EXPECT_EQ(completed_at, msec(60));
}

// ---- protocol reaction: path death with both endpoints alive ----

class PathFaultTest : public ::testing::Test {
 protected:
  PathFaultTest()
      : scenario_(ScenarioConfig{.seed = 77}, harness::NetKind::kGeo) {
    NodeSpec spec;
    spec.name = "primary";
    spec.position = {44.978, -93.265};
    spec.tier = net::AccessTier::kFiber;
    spec.cores = 4;
    spec.base_frame_ms = 15.0;
    primary_ = scenario_.add_node(spec);
    spec.name = "backup";
    spec.position = {44.99, -93.25};
    spec.base_frame_ms = 30.0;
    backup_ = scenario_.add_node(spec);
    harness::start_all_nodes(scenario_);
    scenario_.run_until(sec(2.0));
  }

  Scenario scenario_;
  std::size_t primary_{0};
  std::size_t backup_{0};
};

TEST_F(PathFaultTest, ClientFailsOverWhenItsPathDiesNodeStaysUp) {
  client::ClientConfig config;
  config.top_n = 2;
  config.probing_period = sec(2.0);
  auto& user = scenario_.add_edge_client(
      ClientSpot{"u", {44.9778, -93.2650}, net::AccessTier::kCable, ""},
      config);
  user.start();
  scenario_.run_until(sec(6.0));
  ASSERT_TRUE(user.current_node().has_value());
  const std::size_t current = *scenario_.node_index(*user.current_node());

  // Sever only this client's path to its node, both directions, forever.
  scenario_.partition(user.id(), scenario_.node_id(current), sec(6), sec(600));
  scenario_.run_until(sec(12.0));

  // The node is still running and registered — but this client moved.
  EXPECT_TRUE(scenario_.node(current).running());
  ASSERT_TRUE(user.current_node().has_value());
  EXPECT_NE(*scenario_.node_index(*user.current_node()), current);
  EXPECT_GE(user.stats().failovers, 1u);
  // And frames flow again on the new node (the rate controller is still
  // recovering from the failure backoff, so expect a reduced rate).
  scenario_.run_until(sec(16.0));
  EXPECT_GT(user.latency_series().window(sec(9), sec(16)).count(), 30u);
}

TEST_F(PathFaultTest, TransientBrownoutHealsWithoutFlapping) {
  client::ClientConfig config;
  config.top_n = 2;
  config.probing_period = sec(2.0);
  auto& user = scenario_.add_edge_client(
      ClientSpot{"u", {44.9778, -93.2650}, net::AccessTier::kCable, ""},
      config);
  user.start();
  scenario_.run_until(sec(6.0));
  ASSERT_TRUE(user.current_node().has_value());

  // 600 ms brownout: shorter than keepalive_misses x period detection, so
  // the client should ride it out without a failover.
  scenario_.partition(user.id(), *user.current_node(), sec(6), sec(6.6));
  scenario_.run_until(sec(12.0));
  EXPECT_EQ(user.stats().hard_failures, 0u);
  EXPECT_GT(user.latency_series().window(sec(8), sec(12)).count(), 20u);
}

TEST_F(PathFaultTest, ManagerBrownoutOnlyPausesDiscovery) {
  client::ClientConfig config;
  config.top_n = 2;
  config.probing_period = sec(2.0);
  auto& user = scenario_.add_edge_client(
      ClientSpot{"u", {44.9778, -93.2650}, net::AccessTier::kCable, ""},
      config);
  user.start();
  scenario_.run_until(sec(6.0));
  const auto frames_before = user.stats().frames_ok;

  // The manager goes dark for 10 s; the data plane must not care.
  scenario_.isolate_host(HostId{0}, sec(6), sec(16));
  scenario_.run_until(sec(16.0));
  EXPECT_GT(user.stats().frames_ok, frames_before + 100);
  EXPECT_TRUE(user.current_node().has_value());
}

TEST_F(PathFaultTest, FailoverLandsOnSlowedBackupWhenNodeDies) {
  client::ClientConfig config;
  config.top_n = 2;
  config.probing_period = sec(2.0);
  auto& user = scenario_.add_edge_client(
      ClientSpot{"u", {44.9778, -93.2650}, net::AccessTier::kCable, ""},
      config);
  user.start();
  scenario_.run_until(sec(6.0));
  ASSERT_TRUE(user.current_node().has_value());
  const std::size_t current = *scenario_.node_index(*user.current_node());
  const std::size_t other = current == primary_ ? backup_ : primary_;

  // The only surviving path is 4x slower AND the attached node dies: the
  // failover must still land on the slowed backup, not strand the client.
  scenario_.slow_link(user.id(), scenario_.node_id(other), 4.0, sec(5), sec(30));
  scenario_.stop_node(current, /*graceful=*/false);
  scenario_.run_until(sec(14.0));

  ASSERT_TRUE(user.current_node().has_value());
  EXPECT_EQ(*user.current_node(), scenario_.node_id(other));
  // The recovery can be booked as a backup takeover (counted in
  // failovers, not joins), a probing-cycle switch, or a plain re-join from
  // the detached state if the slowed takeover loses the race — the
  // invariant is that a second attachment landed.
  EXPECT_GE(user.stats().joins + user.stats().failovers, 2u);
  EXPECT_GT(user.latency_series().window(sec(10), sec(14)).count(), 10u);
}

// ---- churn + fault windows together ----

// Node lifecycle churn overlapping a fault window: one node arrives late,
// one dies mid-run while the client's path to a third is browned out. The
// client must end attached to a node that is actually running.
TEST(ChurnFaults, ScheduledChurnWithFaultWindowKeepsClientOnLiveNode) {
  Scenario scenario(ScenarioConfig{.seed = 31}, harness::NetKind::kGeo);

  NodeSpec spec;
  spec.position = {44.978, -93.265};
  spec.tier = net::AccessTier::kFiber;
  spec.cores = 4;
  spec.base_frame_ms = 20.0;
  spec.name = "anchor";
  const auto anchor = scenario.add_node(spec);
  spec.name = "late";
  spec.position = {44.99, -93.25};
  const auto late = scenario.add_node(spec);
  spec.name = "doomed";
  spec.position = {44.96, -93.28};
  const auto doomed = scenario.add_node(spec);

  scenario.start_node(anchor);
  scenario.start_node(doomed);
  scenario.schedule_node_start(late, sec(6.0));
  scenario.schedule_node_stop(doomed, sec(12.0), /*graceful=*/false);

  client::ClientConfig config;
  config.top_n = 3;
  config.probing_period = sec(2.0);
  auto& user = scenario.add_edge_client(
      ClientSpot{"u", {44.9778, -93.2650}, net::AccessTier::kCable, ""},
      config);
  user.start();

  // Brownout to the doomed node straddles its death; brownout to the late
  // arrival straddles its birth.
  scenario.partition(user.id(), scenario.node_id(doomed), sec(10), sec(14));
  scenario.slow_link(user.id(), scenario.node_id(late), 3.0, sec(5), sec(8));

  scenario.run_until(sec(24.0));

  ASSERT_TRUE(user.current_node().has_value());
  const auto index = scenario.node_index(*user.current_node());
  ASSERT_TRUE(index.has_value());
  EXPECT_TRUE(scenario.node(*index).running());
  EXPECT_NE(*index, doomed);
  EXPECT_GT(user.stats().frames_ok, 0u);
  // Frames still flowing in the quiet tail after all churn settled.
  EXPECT_GT(user.latency_series().window(sec(18), sec(24)).count(), 20u);
}

// A dead node must age out of the registry even while the manager's link
// to OTHER hosts is degraded — TTL expiry is local to the manager.
TEST(ChurnFaults, RegistryExpiresDeadNodeDuringUnrelatedFaults) {
  const ScenarioConfig config{.seed = 33, .heartbeat_ttl = sec(3.0)};
  Scenario scenario(config, harness::NetKind::kGeo);

  NodeSpec spec;
  spec.position = {44.978, -93.265};
  spec.tier = net::AccessTier::kFiber;
  spec.cores = 2;
  spec.name = "stays";
  const auto stays = scenario.add_node(spec);
  spec.name = "dies";
  spec.position = {44.99, -93.25};
  const auto dies = scenario.add_node(spec);
  harness::start_all_nodes(scenario);
  scenario.run_until(sec(2.0));
  const auto live_ids = [&scenario](SimTime now) {
    std::vector<NodeId> ids;
    scenario.central_manager().registry().for_each_live(
        "", now,
        [&ids](const manager::RegistryEntry& entry,
               const std::optional<geo::GeoPoint>&) {
          ids.push_back(entry.status.node);
        });
    return ids;
  };
  ASSERT_EQ(live_ids(sec(2.0)).size(), 2u);

  // Unrelated noise: slow the surviving node's heartbeat path.
  scenario.slow_link(scenario.node_id(stays), HostId{0}, 2.0, sec(2), sec(20));
  scenario.stop_node(dies, /*graceful=*/false);
  scenario.run_until(sec(12.0));

  const auto live = live_ids(sec(12.0));
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live.front(), scenario.node_id(stays));
}

}  // namespace
}  // namespace eden
