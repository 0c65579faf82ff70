// Integration-level tests for the EdgeClient: the Algorithm 2 probing
// cycle, join synchronization under conflicts, backup lists, switching, and
// adaptive offloading — all through the simulated fabric via Scenario.
#include "client/edge_client.h"

#include <gtest/gtest.h>

#include "harness/experiments.h"
#include "harness/scenario.h"

namespace eden::client {
namespace {

using harness::ClientSpot;
using harness::NodeSpec;
using harness::Scenario;
using harness::ScenarioConfig;

NodeSpec volunteer(const std::string& name, double lat, double lon, int cores,
                   double frame_ms) {
  NodeSpec spec;
  spec.name = name;
  spec.position = {lat, lon};
  spec.tier = net::AccessTier::kFiber;
  spec.cores = cores;
  spec.base_frame_ms = frame_ms;
  return spec;
}

ClientConfig fast_probing_config(int top_n = 3) {
  ClientConfig config;
  config.top_n = top_n;
  config.probing_period = sec(1.0);
  return config;
}

class ClientTest : public ::testing::Test {
 protected:
  ClientTest() : scenario_(ScenarioConfig{.seed = 11}, harness::NetKind::kGeo) {}

  Scenario scenario_;
};

TEST_F(ClientTest, DiscoversProbesAndJoinsBestNode) {
  // Fast nearby node vs slow distant node: client must land on the former.
  const auto fast = scenario_.add_node(volunteer("fast", 44.98, -93.26, 4, 20.0));
  const auto slow = scenario_.add_node(volunteer("slow", 45.4, -92.8, 1, 80.0));
  harness::start_all_nodes(scenario_);
  scenario_.run_until(sec(2.0));

  auto& client = scenario_.add_edge_client(
      ClientSpot{"u1", {44.9778, -93.2650}, net::AccessTier::kCable, ""},
      fast_probing_config());
  client.start();
  scenario_.run_until(sec(5.0));

  ASSERT_TRUE(client.current_node().has_value());
  EXPECT_EQ(*client.current_node(), scenario_.node_id(fast));
  EXPECT_NE(*client.current_node(), scenario_.node_id(slow));
  EXPECT_EQ(scenario_.node(fast).attached_users(), 1);
  EXPECT_GT(client.stats().probes_sent, 0u);
  EXPECT_EQ(client.stats().joins, 1u);
}

TEST_F(ClientTest, BackupListHoldsRemainingCandidates) {
  for (int i = 0; i < 4; ++i) {
    scenario_.add_node(
        volunteer("n" + std::to_string(i), 44.97 + 0.01 * i, -93.26, 2, 30.0));
  }
  harness::start_all_nodes(scenario_);
  scenario_.run_until(sec(2.0));

  auto& client = scenario_.add_edge_client(
      ClientSpot{"u1", {44.9778, -93.2650}, net::AccessTier::kCable, ""},
      fast_probing_config(/*top_n=*/3));
  client.start();
  scenario_.run_until(sec(5.0));

  ASSERT_TRUE(client.current_node().has_value());
  // TopN = 3 -> current + 2 backups; the backup list never contains the
  // current node.
  EXPECT_EQ(client.backup_nodes().size(), 2u);
  for (const NodeId backup : client.backup_nodes()) {
    EXPECT_NE(backup, *client.current_node());
  }
}

TEST_F(ClientTest, FramesFlowAndLatencyIsRecorded) {
  scenario_.add_node(volunteer("n0", 44.98, -93.26, 4, 25.0));
  harness::start_all_nodes(scenario_);
  scenario_.run_until(sec(2.0));

  auto& client = scenario_.add_edge_client(
      ClientSpot{"u1", {44.9778, -93.2650}, net::AccessTier::kCable, ""},
      fast_probing_config(1));
  client.start();
  scenario_.run_until(sec(12.0));

  EXPECT_GT(client.stats().frames_ok, 100u);  // ~20 fps for ~10 s
  const auto window = client.latency_series().window(sec(3), sec(12));
  ASSERT_GT(window.count(), 0u);
  // e2e ~ RTT (~15 ms) + transfer (~5 ms) + proc (25 ms).
  EXPECT_GT(window.mean(), 25.0);
  EXPECT_LT(window.mean(), 90.0);
}

TEST_F(ClientTest, SelectionOnlyClientSendsNoFrames) {
  scenario_.add_node(volunteer("n0", 44.98, -93.26, 4, 25.0));
  harness::start_all_nodes(scenario_);
  scenario_.run_until(sec(2.0));
  auto config = fast_probing_config(1);
  config.send_frames = false;
  auto& client = scenario_.add_edge_client(
      ClientSpot{"u1", {44.9778, -93.2650}, net::AccessTier::kCable, ""},
      config);
  client.start();
  scenario_.run_until(sec(5.0));
  EXPECT_TRUE(client.current_node().has_value());
  EXPECT_EQ(client.stats().frames_sent, 0u);
}

TEST_F(ClientTest, JoinConflictResolvedByRetry) {
  // Two clients start simultaneously with one clearly-best node (uniform
  // matrix network, so both prefer it): both probe the same seqNum;
  // exactly one join wins and the loser re-runs discovery (Algorithm 2
  // line 14) and still ends up attached somewhere.
  Scenario scenario(ScenarioConfig{.seed = 12}, harness::NetKind::kMatrix,
                    /*default_rtt_ms=*/20.0, /*default_bw_mbps=*/100.0,
                    /*jitter_sigma=*/0.0);
  const auto best = scenario.add_node(volunteer("best", 44.98, -93.26, 8, 15.0));
  scenario.add_node(volunteer("spare", 44.99, -93.20, 2, 45.0));
  harness::start_all_nodes(scenario);
  scenario.run_until(sec(2.0));

  auto& c1 = scenario.add_edge_client(
      ClientSpot{"u1", {44.9778, -93.2650}, net::AccessTier::kCable, ""},
      fast_probing_config());
  auto& c2 = scenario.add_edge_client(
      ClientSpot{"u2", {44.9778, -93.2650}, net::AccessTier::kCable, ""},
      fast_probing_config());
  c1.start();
  c2.start();
  scenario.run_until(sec(8.0));

  ASSERT_TRUE(c1.current_node().has_value());
  ASSERT_TRUE(c2.current_node().has_value());
  EXPECT_GE(c1.stats().join_conflicts + c2.stats().join_conflicts, 1u);
  // Both ultimately attached; the big node can hold both users.
  EXPECT_GE(scenario.node(best).attached_users(), 1);
}

TEST_F(ClientTest, SwitchesWhenBetterNodeAppears) {
  // Client settles on a mediocre node, then a much better one joins: the
  // periodic probing must discover it and switch, with Leave() on the old.
  const auto mediocre =
      scenario_.add_node(volunteer("mediocre", 44.99, -93.25, 1, 60.0));
  const auto better = scenario_.add_node(volunteer("better", 44.98, -93.26, 8, 15.0));
  scenario_.start_node(mediocre);
  scenario_.run_until(sec(1.0));

  auto& client = scenario_.add_edge_client(
      ClientSpot{"u1", {44.9778, -93.2650}, net::AccessTier::kCable, ""},
      fast_probing_config());
  client.start();
  scenario_.run_until(sec(4.0));
  ASSERT_TRUE(client.current_node().has_value());
  EXPECT_EQ(*client.current_node(), scenario_.node_id(mediocre));

  scenario_.schedule_node_start(better, sec(5.0));
  scenario_.run_until(sec(12.0));
  ASSERT_TRUE(client.current_node().has_value());
  EXPECT_EQ(*client.current_node(), scenario_.node_id(better));
  EXPECT_GE(client.stats().switches, 1u);
  EXPECT_EQ(scenario_.node(mediocre).attached_users(), 0);  // Leave() arrived
}

TEST_F(ClientTest, GoPolicySpreadsLoadAcrossEqualNodes) {
  // Two identical 1-core nodes, four fixed-rate 10 fps clients (total
  // demand 1.2 cores): the only stable state is a 2/2 split, and the GO
  // policy must find it instead of piling everybody onto one node.
  //
  // The split is a rate over seeds, not a per-seed guarantee: two equal
  // nodes leave clients free to flip between them every probing cycle
  // (the herding ROADMAP item), so at the 25 s snapshot a node may still
  // count a client that is already moving on. The latency bound holds at
  // every seed.
  constexpr std::uint64_t kSeeds = 40;
  int split_seeds = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Scenario scenario(ScenarioConfig{.seed = seed}, harness::NetKind::kGeo);
    const auto a = scenario.add_node(volunteer("a", 44.98, -93.26, 1, 30.0));
    const auto b = scenario.add_node(volunteer("b", 44.98, -93.27, 1, 30.0));
    harness::start_all_nodes(scenario);
    scenario.run_until(sec(2.0));

    std::vector<EdgeClient*> clients;
    for (int i = 0; i < 4; ++i) {
      auto config = fast_probing_config(2);
      config.app.adaptive_rate = false;
      config.app.max_fps = 10.0;
      auto& client = scenario.add_edge_client(
          ClientSpot{"u" + std::to_string(i),
                     {44.9778, -93.2650},
                     net::AccessTier::kCable,
                     ""},
          config);
      scenario.simulator().schedule_at(sec(2.0 + 2.0 * i),
                                       [&client] { client.start(); });
      clients.push_back(&client);
    }
    scenario.run_until(sec(25.0));

    if (scenario.node(a).attached_users() == 2 &&
        scenario.node(b).attached_users() == 2) {
      ++split_seeds;
    }
    // The split delivers bounded latency for everyone (transient switch
    // spikes allowed, sustained overload not).
    for (const auto* c : clients) {
      const auto window = c->latency_series().window(sec(15), sec(25));
      ASSERT_GT(window.count(), 0u);
      EXPECT_LT(window.mean(), 200.0);
    }
  }
  EXPECT_GE(split_seeds, 30) << "2/2 split at " << split_seeds << "/"
                             << kSeeds << " seeds";
}

TEST_F(ClientTest, AdaptiveRateBacksOffOnOverload) {
  // One weak node, several aggressive clients: rate controllers must end
  // below the max rate.
  scenario_.add_node(volunteer("weak", 44.98, -93.26, 1, 45.0));
  harness::start_all_nodes(scenario_);
  scenario_.run_until(sec(2.0));

  std::vector<client::EdgeClient*> clients;
  for (int i = 0; i < 3; ++i) {
    auto config = fast_probing_config(1);
    config.app.target_latency_ms = 120.0;
    auto& c = scenario_.add_edge_client(
        ClientSpot{"u" + std::to_string(i),
                   {44.9778, -93.2650},
                   net::AccessTier::kCable,
                   ""},
        config);
    c.start();
    clients.push_back(&c);
  }
  scenario_.run_until(sec(20.0));
  double total_fps = 0;
  for (const auto* c : clients) total_fps += c->fps();
  EXPECT_LT(total_fps, 3 * 20.0);
}

TEST_F(ClientTest, StopLeavesCurrentNode) {
  const auto n = scenario_.add_node(volunteer("n", 44.98, -93.26, 2, 30.0));
  harness::start_all_nodes(scenario_);
  scenario_.run_until(sec(2.0));
  auto& client = scenario_.add_edge_client(
      ClientSpot{"u1", {44.9778, -93.2650}, net::AccessTier::kCable, ""},
      fast_probing_config(1));
  client.start();
  scenario_.run_until(sec(4.0));
  ASSERT_EQ(scenario_.node(n).attached_users(), 1);
  client.stop();
  scenario_.run_until(sec(6.0));
  EXPECT_EQ(scenario_.node(n).attached_users(), 0);
}

TEST_F(ClientTest, StopMidProbeThenRestartRecovers) {
  // Regression: stop() used to leave cycle_in_flight_ (and the keepalive
  // latch / miss count) set when it interrupted a cycle — the in-flight
  // callbacks bail on !running_ without clearing them — so after a restart
  // every probing_cycle() returned immediately and the client never
  // attached again.
  scenario_.enable_observability();
  const auto n = scenario_.add_node(volunteer("n", 44.98, -93.26, 2, 30.0));
  harness::start_all_nodes(scenario_);
  scenario_.run_until(sec(2.0));
  auto& client = scenario_.add_edge_client(
      ClientSpot{"u1", {44.9778, -93.2650}, net::AccessTier::kCable, ""},
      fast_probing_config(1));
  // start() kicks off a discovery immediately; stopping in the same instant
  // catches the cycle mid-flight.
  client.start();
  client.stop();
  scenario_.run_until(sec(4.0));
  EXPECT_FALSE(client.current_node().has_value());

  client.start();
  scenario_.run_until(sec(8.0));
  ASSERT_TRUE(client.current_node().has_value());
  EXPECT_EQ(*client.current_node(), scenario_.node_id(n));
  EXPECT_GE(client.stats().discoveries, 2u);
  // The restarted runtime really ran fresh probing cycles end to end.
  auto* trace = scenario_.trace_recorder();
  ASSERT_NE(trace, nullptr);
  EXPECT_GE(trace->count(obs::EventKind::kProbeCycleBegin), 2u);
  EXPECT_GE(trace->count(obs::EventKind::kJoinAccept), 1u);
}

TEST_F(ClientTest, NoNodesMeansNoAttachmentButNoCrash) {
  auto& client = scenario_.add_edge_client(
      ClientSpot{"u1", {44.9778, -93.2650}, net::AccessTier::kCable, ""},
      fast_probing_config());
  client.start();
  scenario_.run_until(sec(10.0));
  EXPECT_FALSE(client.current_node().has_value());
  EXPECT_EQ(client.stats().frames_sent, 0u);
  EXPECT_GE(client.stats().discoveries, 2u);  // it kept trying
}

TEST_F(ClientTest, ManagerUnreachableIsSurvivable) {
  scenario_.add_node(volunteer("n", 44.98, -93.26, 2, 30.0));
  harness::start_all_nodes(scenario_);
  scenario_.run_until(sec(2.0));
  // Kill the manager host: discovery RPCs now time out.
  scenario_.hosts().set_alive(HostId{0}, false);
  auto& client = scenario_.add_edge_client(
      ClientSpot{"u1", {44.9778, -93.2650}, net::AccessTier::kCable, ""},
      fast_probing_config());
  client.start();
  scenario_.run_until(sec(8.0));
  EXPECT_FALSE(client.current_node().has_value());
  // Manager comes back: the next periodic cycle succeeds.
  scenario_.hosts().set_alive(HostId{0}, true);
  scenario_.run_until(sec(16.0));
  EXPECT_TRUE(client.current_node().has_value());
}

}  // namespace
}  // namespace eden::client
