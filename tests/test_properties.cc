// Property-based suites over protocol invariants: join-storm
// serialization, executor work conservation, exactly-once RPC callbacks
// under random topologies and failures, client event-sequence sanity, and
// end-of-run attachment consistency under churn.
#include <gtest/gtest.h>

#include <unordered_set>

#include "churn/churn.h"
#include "harness/experiments.h"
#include "harness/scenario.h"

namespace eden {
namespace {

using harness::ClientSpot;
using harness::NodeSpec;
using harness::Scenario;
using harness::ScenarioConfig;

// ---- Algorithm 1: a storm of joins against one probed seqNum admits
// exactly one user per state change ----

class JoinStorm : public ::testing::TestWithParam<int> {};

TEST_P(JoinStorm, ExactlyOneWinnerPerSeq) {
  const int contenders = GetParam();
  sim::Simulator simulator;
  sim::SimScheduler scheduler(simulator);
  node::EdgeNodeConfig config;
  config.id = NodeId{1};
  config.executor.cores = 8;
  config.executor.base_frame_ms = 10.0;
  node::EdgeNode node(scheduler, config, nullptr);
  node.start();
  simulator.run_until(sec(1.0));

  const auto probe = node.handle_process_probe();
  std::unordered_set<std::uint32_t> admitted;
  int accepted = 0;
  for (int i = 0; i < contenders; ++i) {
    const std::uint32_t client = 100 + static_cast<std::uint32_t>(i);
    const auto response =
        node.handle_join(net::JoinRequest{ClientId{client}, probe.seq_num, 20.0});
    if (response.accepted) {
      ++accepted;
      admitted.insert(client);
    }
  }
  EXPECT_EQ(accepted, 1);
  EXPECT_EQ(node.attached_users(), 1);

  // Losers re-probe and retry (Algorithm 2 line 14): exactly one more is
  // admitted per state change, so everyone gets in after N-1 extra rounds.
  int rounds = 0;
  while (node.attached_users() < contenders && rounds < contenders * 2) {
    const auto fresh = node.handle_process_probe();
    int admitted_this_round = 0;
    for (int i = 0; i < contenders; ++i) {
      const std::uint32_t client = 100 + static_cast<std::uint32_t>(i);
      if (admitted.count(client)) continue;
      if (node.handle_join(net::JoinRequest{ClientId{client}, fresh.seq_num, 20.0})
              .accepted) {
        admitted.insert(client);
        ++admitted_this_round;
      }
    }
    EXPECT_LE(admitted_this_round, 1);
    ++rounds;
  }
  EXPECT_EQ(node.attached_users(), contenders);
  EXPECT_EQ(rounds, contenders - 1);
}

INSTANTIATE_TEST_SUITE_P(Storms, JoinStorm, ::testing::Range(2, 18));

// ---- executor work conservation: submitted = completed + dropped +
// in-flight/queued, under random loads ----

class ExecutorConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExecutorConservation, NothingLostNothingInvented) {
  Rng rng(GetParam());
  sim::Simulator simulator;
  sim::SimScheduler scheduler(simulator);
  node::ExecutorConfig config;
  config.cores = static_cast<int>(rng.uniform_int(1, 4));
  config.base_frame_ms = rng.uniform(5, 40);
  config.max_queue = static_cast<int>(rng.uniform_int(1, 8));
  node::Executor executor(scheduler, config);

  const int submitted = 200;
  int completions = 0;
  int drops = 0;
  for (int i = 0; i < submitted; ++i) {
    simulator.schedule_at(
        static_cast<SimTime>(rng.uniform(0, 2'000'000)),
        [&executor, &completions, &drops, &rng] {
          executor.submit(rng.uniform(0.5, 2.0),
                          [&completions, &drops](double ms) {
                            if (ms >= 0) {
                              ++completions;
                            } else {
                              ++drops;
                            }
                          });
        });
  }
  simulator.run_all();
  EXPECT_EQ(static_cast<std::uint64_t>(completions), executor.completed());
  EXPECT_EQ(static_cast<std::uint64_t>(drops), executor.dropped());
  EXPECT_EQ(executor.completed() + executor.dropped(),
            static_cast<std::uint64_t>(submitted));
  EXPECT_EQ(executor.busy(), 0);
  EXPECT_EQ(executor.queued(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorConservation,
                         ::testing::Range(std::uint64_t{1}, std::uint64_t{25}));

// ---- SimNetwork rpc: callbacks exactly once, under random host deaths ----

class RpcExactlyOnce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RpcExactlyOnce, EveryCallCompletesOnce) {
  Rng rng(GetParam());
  sim::Simulator simulator;
  net::MatrixNetwork model(rng.uniform(5, 50), 100.0, 0.1);
  net::HostTable hosts;
  net::SimNetwork fabric(simulator, model, hosts, GetParam());

  const int host_count = 6;
  for (std::uint32_t h = 0; h < host_count; ++h) {
    hosts.set_alive(HostId{h}, true);
  }
  // Random deaths over the run.
  for (int k = 0; k < 3; ++k) {
    const HostId victim{static_cast<std::uint32_t>(rng.uniform_int(1, 5))};
    simulator.schedule_at(static_cast<SimTime>(rng.uniform(0, 500'000)),
                          [&hosts, victim] { hosts.set_alive(victim, false); });
  }

  const int calls = 300;
  std::vector<int> completions(calls, 0);
  for (int i = 0; i < calls; ++i) {
    const HostId to{static_cast<std::uint32_t>(rng.uniform_int(1, 5))};
    simulator.schedule_at(
        static_cast<SimTime>(rng.uniform(0, 1'000'000)),
        [&fabric, &completions, i, to] {
          fabric.rpc<int>(
              HostId{0}, to, 100, 100, msec(200), [] { return 1; },
              [&completions, i](std::optional<int>) { ++completions[i]; });
        });
  }
  simulator.run_all();
  for (int i = 0; i < calls; ++i) {
    EXPECT_EQ(completions[i], 1) << "call " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RpcExactlyOnce,
                         ::testing::Range(std::uint64_t{100}, std::uint64_t{124}));

// ---- client event stream: first event is a join; switches/failovers
// always follow an attachment; node ids are valid ----

TEST(ClientEvents, SequenceIsSane) {
  Scenario scenario(ScenarioConfig{.seed = 31}, harness::NetKind::kGeo);
  NodeSpec spec;
  spec.name = "a";
  spec.cores = 4;
  spec.base_frame_ms = 20.0;
  spec.position = {44.98, -93.26};
  const auto a = scenario.add_node(spec);
  spec.name = "b";
  spec.position = {44.99, -93.25};
  scenario.add_node(spec);
  harness::start_all_nodes(scenario);
  scenario.run_until(sec(2.0));

  client::ClientConfig config;
  config.top_n = 2;
  config.probing_period = sec(1.0);
  auto& user = scenario.add_edge_client(ClientSpot{.name = "u"}, config);
  std::vector<client::ClientEvent> events;
  user.set_event_hook(
      [&events](const client::ClientEvent& e) { events.push_back(e); });
  user.start();
  scenario.run_until(sec(6.0));
  scenario.stop_node(a, false);  // may or may not be the current node
  scenario.run_until(sec(12.0));

  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].kind, client::ClientEvent::Kind::kJoined);
  bool attached = false;
  SimTime prev = 0;
  for (const auto& event : events) {
    EXPECT_GE(event.at, prev);  // chronological
    prev = event.at;
    switch (event.kind) {
      case client::ClientEvent::Kind::kJoined:
        EXPECT_TRUE(event.node.valid());
        attached = true;
        break;
      case client::ClientEvent::Kind::kSwitched:
      case client::ClientEvent::Kind::kFailover:
        EXPECT_TRUE(attached);  // can only move if we were somewhere
        EXPECT_TRUE(event.node.valid());
        break;
      case client::ClientEvent::Kind::kHardFailure:
        attached = false;
        break;
      case client::ClientEvent::Kind::kQosRejected:
        break;
    }
  }
  EXPECT_STREQ(client::to_string(client::ClientEvent::Kind::kFailover),
               "failover");
}

// ---- churn end-state consistency: every client's current node is alive
// and actually has the client attached ----

class ChurnConsistency : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChurnConsistency, AttachmentsConsistentAtEnd) {
  harness::ScenarioConfig config;
  config.seed = GetParam();
  Scenario scenario(config, harness::NetKind::kMatrix, 25.0, 50.0, 0.05);

  churn::ChurnConfig churn_config;
  churn_config.horizon = sec(60.0);
  churn_config.initial_nodes = 4;
  churn_config.max_nodes = 12;
  Rng churn_rng = Rng(config.seed).fork("churn");
  const auto schedule = churn::generate_churn(churn_config, churn_rng);
  const auto specs =
      harness::churn_node_specs(static_cast<int>(schedule.total_nodes));
  for (const auto& spec : specs) scenario.add_node(spec);
  for (const auto& event : schedule.events) {
    if (event.kind == churn::ChurnEventKind::kJoin) {
      scenario.schedule_node_start(event.node_index, event.at);
    } else {
      scenario.schedule_node_stop(event.node_index, event.at, false);
    }
  }

  std::vector<client::EdgeClient*> clients;
  for (int i = 0; i < 5; ++i) {
    client::ClientConfig client_config;
    client_config.top_n = 3;
    client_config.probing_period = sec(2.0);
    auto& c = scenario.add_edge_client(
        ClientSpot{"u" + std::to_string(i)}, client_config);
    scenario.simulator().schedule_at(msec(300.0), [&c] { c.start(); });
    clients.push_back(&c);
  }
  // Churn stops at 60 s; run a settle window past the horizon so failure
  // detection and in-flight moves triggered by the last stops complete —
  // otherwise the end-state check races the protocol.
  scenario.run_until(sec(66.0));

  for (const auto* c : clients) {
    if (!c->current_node()) continue;
    const auto index = scenario.node_index(*c->current_node());
    ASSERT_TRUE(index.has_value());
    EXPECT_TRUE(scenario.node(*index).running())
        << "client attached to a dead node";
  }
  // Node-side attachment sets only contain live clients we know about.
  int total_attached = 0;
  for (std::size_t i = 0; i < scenario.node_count(); ++i) {
    if (scenario.node(i).running()) {
      total_attached += scenario.node(i).attached_users();
    }
  }
  EXPECT_LE(total_attached, 5 + 2);  // small slack for in-flight moves
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnConsistency,
                         ::testing::Values(2030, 2042, 2047));

}  // namespace
}  // namespace eden
