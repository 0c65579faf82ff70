// Unit tests for the EdgeNode runtime: Table I handlers, Algorithm 1 join
// synchronization, the what-if cache triggers, the performance monitor and
// heartbeats.
#include "node/edge_node.h"

#include <gtest/gtest.h>

#include <vector>

#include "obs/trace.h"
#include "sim/clock.h"
#include "sim/simulator.h"

namespace eden::node {
namespace {

// Captures manager-bound traffic.
class FakeManagerLink final : public net::ManagerLink {
 public:
  void register_node(const net::NodeStatus& status) override {
    registrations.push_back(status);
  }
  void heartbeat(const net::NodeStatus& status) override {
    heartbeats.push_back(status);
  }
  void deregister(NodeId node) override { deregistrations.push_back(node); }

  std::vector<net::NodeStatus> registrations;
  std::vector<net::NodeStatus> heartbeats;
  std::vector<NodeId> deregistrations;
};

class EdgeNodeTest : public ::testing::Test {
 protected:
  EdgeNodeConfig make_config(int cores = 2, double frame_ms = 30.0) {
    EdgeNodeConfig config;
    config.id = NodeId{7};
    config.geohash = "9zvxvf";
    config.executor.cores = cores;
    config.executor.base_frame_ms = frame_ms;
    config.executor.contention_alpha = 0.0;
    config.test_workload_delay = msec(20.0);
    return config;
  }

  sim::Simulator simulator_;
  sim::SimScheduler scheduler_{simulator_};
  FakeManagerLink manager_;
};

TEST_F(EdgeNodeTest, StartRegistersAndMeasuresInitialWhatIf) {
  EdgeNode node(scheduler_, make_config(), &manager_);
  node.start();
  EXPECT_EQ(manager_.registrations.size(), 1u);
  EXPECT_EQ(manager_.registrations[0].node, NodeId{7});
  simulator_.run_until(sec(0.5));
  // Initial test workload ran on an idle node: what-if == base frame time.
  EXPECT_NEAR(node.whatif_ms(), 30.0, 1e-6);
  EXPECT_EQ(node.stats().test_invocations, 1u);
}

TEST_F(EdgeNodeTest, HeartbeatsArePeriodic) {
  auto config = make_config();
  config.heartbeat_period = sec(1.0);
  EdgeNode node(scheduler_, config, &manager_);
  node.start();
  simulator_.run_until(sec(5.5));
  EXPECT_EQ(manager_.heartbeats.size(), 5u);
}

TEST_F(EdgeNodeTest, GracefulStopDeregistersAbruptDoesNot) {
  EdgeNode node(scheduler_, make_config(), &manager_);
  node.start();
  node.stop(/*graceful=*/true);
  EXPECT_EQ(manager_.deregistrations.size(), 1u);

  EdgeNode node2(scheduler_, make_config(), &manager_);
  node2.start();
  node2.stop(/*graceful=*/false);
  EXPECT_EQ(manager_.deregistrations.size(), 1u);  // unchanged
}

TEST_F(EdgeNodeTest, StopHaltsHeartbeats) {
  EdgeNode node(scheduler_, make_config(), &manager_);
  node.start();
  simulator_.run_until(sec(2.5));
  const auto count = manager_.heartbeats.size();
  node.stop(false);
  simulator_.run_until(sec(10));
  EXPECT_EQ(manager_.heartbeats.size(), count);
}

TEST_F(EdgeNodeTest, ProcessProbeReturnsCachedStateAndCounts) {
  EdgeNode node(scheduler_, make_config(), &manager_);
  node.start();
  simulator_.run_until(sec(0.5));
  const auto probe = node.handle_process_probe();
  EXPECT_NEAR(probe.whatif_ms, 30.0, 1e-6);
  EXPECT_EQ(probe.attached_users, 0);
  EXPECT_EQ(probe.seq_num, node.seq_num());
  EXPECT_EQ(node.stats().probes_received, 1u);
}

TEST_F(EdgeNodeTest, JoinAcceptsMatchingSeqNum) {
  EdgeNode node(scheduler_, make_config(), &manager_);
  node.start();
  simulator_.run_until(sec(0.5));
  const auto probe = node.handle_process_probe();
  const auto response =
      node.handle_join(net::JoinRequest{ClientId{1}, probe.seq_num, 20.0});
  EXPECT_TRUE(response.accepted);
  EXPECT_EQ(response.seq_num, probe.seq_num + 1);  // state changed
  EXPECT_EQ(node.attached_users(), 1);
  EXPECT_EQ(node.stats().joins_accepted, 1u);
}

TEST_F(EdgeNodeTest, JoinRejectsStaleSeqNum) {
  // Algorithm 1: two users probing the same state — the second join must
  // be rejected because the first join bumped the sequence number.
  EdgeNode node(scheduler_, make_config(), &manager_);
  node.start();
  simulator_.run_until(sec(0.5));
  const auto probe = node.handle_process_probe();
  EXPECT_TRUE(
      node.handle_join(net::JoinRequest{ClientId{1}, probe.seq_num, 20.0})
          .accepted);
  const auto second =
      node.handle_join(net::JoinRequest{ClientId{2}, probe.seq_num, 20.0});
  EXPECT_FALSE(second.accepted);
  EXPECT_EQ(node.attached_users(), 1);
  EXPECT_EQ(node.stats().joins_rejected, 1u);
  // The rejected user can retry with the fresh seqNum.
  EXPECT_TRUE(
      node.handle_join(net::JoinRequest{ClientId{2}, second.seq_num, 20.0})
          .accepted);
}

TEST_F(EdgeNodeTest, JoinSchedulesDelayedTestWorkload) {
  EdgeNode node(scheduler_, make_config(), &manager_);
  node.start();
  simulator_.run_until(sec(0.5));
  const auto before = node.stats().test_invocations;
  const auto probe = node.handle_process_probe();
  (void)node.handle_join(net::JoinRequest{ClientId{1}, probe.seq_num, 20.0});
  // Algorithm 1 line 5: invoked asynchronously after ~2x common RTT.
  EXPECT_EQ(node.stats().test_invocations, before);
  simulator_.run_until(simulator_.now() + msec(100.0));
  EXPECT_EQ(node.stats().test_invocations, before + 1);
}

TEST_F(EdgeNodeTest, UnexpectedJoinNeverRejected) {
  EdgeNode node(scheduler_, make_config(), &manager_);
  node.start();
  simulator_.run_until(sec(0.5));
  // Stale/zero seq num would fail a normal Join; Unexpected_join must pass.
  EXPECT_TRUE(node.handle_unexpected_join(
      net::JoinRequest{ClientId{1}, 12345, 20.0}));
  EXPECT_TRUE(node.handle_unexpected_join(
      net::JoinRequest{ClientId{2}, 0, 20.0}));
  EXPECT_EQ(node.attached_users(), 2);
  EXPECT_EQ(node.stats().unexpected_joins, 2u);
}

TEST_F(EdgeNodeTest, LeaveDetachesAndBumpsState) {
  EdgeNode node(scheduler_, make_config(), &manager_);
  node.start();
  simulator_.run_until(sec(0.5));
  const auto probe = node.handle_process_probe();
  (void)node.handle_join(net::JoinRequest{ClientId{1}, probe.seq_num, 20.0});
  const auto seq_after_join = node.seq_num();
  node.handle_leave(ClientId{1});
  EXPECT_EQ(node.attached_users(), 0);
  EXPECT_EQ(node.seq_num(), seq_after_join + 1);
  EXPECT_EQ(node.stats().leaves, 1u);
}

TEST_F(EdgeNodeTest, LeaveOfUnknownClientIgnored) {
  EdgeNode node(scheduler_, make_config(), &manager_);
  node.start();
  const auto seq = node.seq_num();
  node.handle_leave(ClientId{42});
  EXPECT_EQ(node.seq_num(), seq);
  EXPECT_EQ(node.stats().leaves, 0u);

  // Also when the unknown id falls between or past attached ones.
  ASSERT_TRUE(node.handle_unexpected_join(net::JoinRequest{ClientId{1}, 0, 20.0}));
  ASSERT_TRUE(node.handle_unexpected_join(net::JoinRequest{ClientId{3}, 0, 20.0}));
  const auto seq_attached = node.seq_num();
  node.handle_leave(ClientId{2});
  node.handle_leave(ClientId{9});
  EXPECT_EQ(node.attached_ids(),
            (std::vector<ClientId>{ClientId{1}, ClientId{3}}));
  EXPECT_EQ(node.seq_num(), seq_attached);
  EXPECT_EQ(node.stats().leaves, 0u);
}

// ---- attached-user table ----

TEST_F(EdgeNodeTest, AttachedIdsAreSortedWhateverTheJoinOrder) {
  EdgeNode node(scheduler_, make_config(), &manager_);
  node.start();
  for (const std::uint32_t id : {30u, 10u, 40u, 20u}) {
    ASSERT_TRUE(node.handle_unexpected_join(
        net::JoinRequest{ClientId{id}, 0, 20.0}));
  }
  EXPECT_EQ(node.attached_ids(),
            (std::vector<ClientId>{ClientId{10}, ClientId{20}, ClientId{30},
                                   ClientId{40}}));
}

TEST_F(EdgeNodeTest, JoinLeaveRejoinKeepsOneEntry) {
  EdgeNode node(scheduler_, make_config(), &manager_);
  node.start();
  simulator_.run_until(sec(0.5));
  const ClientId client{5};
  ASSERT_TRUE(node.handle_join(
      net::JoinRequest{client, node.handle_process_probe().seq_num, 20.0})
                  .accepted);
  node.handle_leave(client);
  EXPECT_EQ(node.attached_users(), 0);
  ASSERT_TRUE(node.handle_join(
      net::JoinRequest{client, node.handle_process_probe().seq_num, 20.0})
                  .accepted);
  // A failover join of an already attached client refreshes its entry.
  ASSERT_TRUE(node.handle_unexpected_join(net::JoinRequest{client, 0, 20.0}));
  EXPECT_EQ(node.attached_users(), 1);
  EXPECT_EQ(node.attached_ids(), std::vector<ClientId>{client});
}

TEST_F(EdgeNodeTest, IdleUsersAreEvictedInAscendingClientIdAtOneHeartbeat) {
  auto config = make_config();
  config.heartbeat_period = sec(1.0);
  config.user_idle_ttl = sec(2.0);
  EdgeNode node(scheduler_, config, &manager_);
  obs::TraceRecorder trace;
  node.set_observability(&trace);
  node.start();
  simulator_.run_until(sec(0.5));
  for (const std::uint32_t id : {9u, 3u, 7u, 1u, 5u}) {
    ASSERT_TRUE(node.handle_unexpected_join(
        net::JoinRequest{ClientId{id}, 0, 20.0}));
  }
  // Client 5 keeps probing; the other four go silent together.
  for (int i = 1; i <= 4; ++i) {
    simulator_.run_until(sec(0.5 + 0.5 * i));
    (void)node.handle_process_probe(ClientId{5});
  }
  const auto seq_before = node.seq_num();
  simulator_.run_until(sec(3.5));  // the heartbeat at 3 s evicts

  std::vector<ClientId> evicted;
  SimTime evicted_at = -1;
  for (const obs::TraceEvent& event : trace.events()) {
    if (event.kind != obs::EventKind::kNodeEvict) continue;
    evicted.push_back(event.subject);
    if (evicted_at < 0) evicted_at = event.at;
    EXPECT_EQ(event.at, evicted_at);  // all at one heartbeat
  }
  EXPECT_EQ(evicted, (std::vector<ClientId>{ClientId{1}, ClientId{3},
                                            ClientId{7}, ClientId{9}}));
  EXPECT_EQ(node.stats().evictions, 4u);
  EXPECT_EQ(node.attached_ids(), std::vector<ClientId>{ClientId{5}});
  // One workload decrease for the whole batch.
  EXPECT_EQ(node.seq_num(), seq_before + 1);
}

TEST_F(EdgeNodeTest, OffloadProcessesFrameAndRecordsStats) {
  EdgeNode node(scheduler_, make_config(1, 25.0), &manager_);
  node.start();
  simulator_.run_until(sec(0.5));
  net::FrameResponse response;
  node.handle_offload(net::FrameRequest{ClientId{1}, 99, 20'000},
                      [&](net::FrameResponse r) { response = r; });
  simulator_.run_until(simulator_.now() + sec(5.0));
  EXPECT_EQ(response.frame_id, 99u);
  EXPECT_NEAR(response.proc_ms, 25.0, 1e-6);
  EXPECT_EQ(node.stats().frames_processed, 1u);
}

TEST_F(EdgeNodeTest, WhatIfReflectsLoadFromAttachedUsers) {
  // With one core busy processing real frames, a later what-if measurement
  // must exceed the idle baseline (the test frame queues).
  EdgeNode node(scheduler_, make_config(1, 30.0), &manager_);
  node.start();
  simulator_.run_until(sec(0.5));
  const double idle_whatif = node.whatif_ms();

  // Saturate with back-to-back frames and trigger a state change.
  for (int i = 0; i < 6; ++i) {
    node.handle_offload(net::FrameRequest{ClientId{1}, 1, 20'000},
                        [](net::FrameResponse) {});
  }
  const auto probe = node.handle_process_probe();
  (void)node.handle_join(net::JoinRequest{ClientId{1}, probe.seq_num, 20.0});
  simulator_.run_until(simulator_.now() + sec(5.0));
  EXPECT_GT(node.whatif_ms(), idle_whatif);
}

TEST_F(EdgeNodeTest, PerfMonitorTriggersTestOnDrift) {
  auto config = make_config(1, 30.0);
  config.perf_change_threshold = 0.25;
  config.min_perf_test_interval = msec(100.0);
  EdgeNode node(scheduler_, config, &manager_);
  node.start();
  simulator_.run_until(sec(0.5));
  const auto tests_before = node.stats().test_invocations;

  // Host workload makes frames 2x slower: live EMA drifts 100% above the
  // cached what-if, so the monitor must re-measure.
  node.executor().set_background_load(0.5);
  for (int i = 0; i < 10; ++i) {
    simulator_.schedule_at(simulator_.now() + msec(200.0 * (i + 1)),
                           [&node] {
                             node.handle_offload(
                                 net::FrameRequest{ClientId{1}, 1, 20'000},
                                 [](net::FrameResponse) {});
                           });
  }
  simulator_.run_until(simulator_.now() + sec(5.0));
  EXPECT_GT(node.stats().test_invocations, tests_before);
  // And the refreshed what-if reflects the slower machine.
  EXPECT_GT(node.whatif_ms(), 45.0);
}

TEST_F(EdgeNodeTest, StoppedNodeDropsWork) {
  EdgeNode node(scheduler_, make_config(), &manager_);
  node.start();
  simulator_.run_until(sec(0.5));
  node.stop(false);
  bool replied = false;
  node.handle_offload(net::FrameRequest{ClientId{1}, 1, 20'000},
                      [&](net::FrameResponse) { replied = true; });
  simulator_.run_until(simulator_.now() + sec(5.0));
  EXPECT_FALSE(replied);
  EXPECT_FALSE(node.handle_join(net::JoinRequest{ClientId{1}, 0, 20.0}).accepted);
  EXPECT_FALSE(node.handle_unexpected_join(net::JoinRequest{ClientId{1}, 0, 20.0}));
}

TEST_F(EdgeNodeTest, StatusSnapshotMatchesConfig) {
  auto config = make_config(4, 45.0);
  config.dedicated = true;
  config.network_tag = "isp-x";
  EdgeNode node(scheduler_, config, &manager_);
  node.start();
  const auto status = node.status();
  EXPECT_EQ(status.node, NodeId{7});
  EXPECT_EQ(status.cores, 4);
  EXPECT_DOUBLE_EQ(status.base_frame_ms, 45.0);
  EXPECT_TRUE(status.dedicated);
  EXPECT_FALSE(status.is_cloud);
  EXPECT_EQ(status.network_tag, "isp-x");
  EXPECT_EQ(status.geohash, "9zvxvf");
}

TEST_F(EdgeNodeTest, SetBackgroundLoadBumpsSeq) {
  EdgeNode node(scheduler_, make_config(), &manager_);
  node.start();
  simulator_.run_until(sec(0.5));
  const auto seq = node.seq_num();
  node.set_background_load(0.3);
  EXPECT_EQ(node.seq_num(), seq + 1);
}

}  // namespace
}  // namespace eden::node
