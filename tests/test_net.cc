// Unit tests for network models and the simulated message fabric.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "net/host_table.h"
#include "net/network_model.h"
#include "net/sim_network.h"
#include "sim/simulator.h"

namespace eden::net {
namespace {

const HostId kA{1};
const HostId kB{2};
const HostId kC{3};

TEST(MatrixNetwork, DefaultsApply) {
  MatrixNetwork net(25.0, 100.0, 0.0);
  EXPECT_EQ(net.base_rtt(kA, kB), msec(25.0));
  EXPECT_DOUBLE_EQ(net.bandwidth_mbps(kA, kB), 100.0);
}

TEST(MatrixNetwork, ExplicitPairIsSymmetric) {
  MatrixNetwork net(25.0, 100.0, 0.0);
  net.set_rtt_ms(kA, kB, 8.0);
  EXPECT_EQ(net.base_rtt(kA, kB), msec(8.0));
  EXPECT_EQ(net.base_rtt(kB, kA), msec(8.0));
  EXPECT_EQ(net.base_rtt(kA, kC), msec(25.0));
}

TEST(MatrixNetwork, LoopbackIsTiny) {
  MatrixNetwork net(25.0, 100.0, 0.0);
  EXPECT_LT(net.base_rtt(kA, kA), msec(1.0));
}

TEST(MatrixNetwork, UplinkCapsSenderBandwidth) {
  MatrixNetwork net(25.0, 100.0, 0.0);
  net.set_uplink_mbps(kA, 10.0);
  EXPECT_DOUBLE_EQ(net.bandwidth_mbps(kA, kB), 10.0);
  EXPECT_DOUBLE_EQ(net.bandwidth_mbps(kB, kA), 100.0);  // cap is directional
}

TEST(NetworkModel, TransferDelayMatchesBandwidth) {
  MatrixNetwork net(25.0, 100.0, 0.0);
  // 20 KB at 100 Mbps = 1.6 ms.
  EXPECT_NEAR(to_ms(net.transfer_delay(kA, kB, 20'000)), 1.6, 0.01);
  EXPECT_EQ(net.transfer_delay(kA, kB, 0), 0);
}

TEST(NetworkModel, SampleOwdIsHalfRttWithoutJitter) {
  MatrixNetwork net(30.0, 100.0, 0.0);
  Rng rng(1);
  EXPECT_EQ(net.sample_owd(kA, kB, rng), msec(15.0));
}

TEST(NetworkModel, JitterSpreadsSamples) {
  MatrixNetwork net(30.0, 100.0, 0.2);
  Rng rng(1);
  SimDuration lo = msec(1000);
  SimDuration hi = 0;
  for (int i = 0; i < 200; ++i) {
    const SimDuration d = net.sample_owd(kA, kB, rng);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
    EXPECT_GT(d, 0);
  }
  EXPECT_LT(lo, msec(15.0));
  EXPECT_GT(hi, msec(15.0));
}

TEST(GeoNetwork, CloserIsFaster) {
  GeoNetwork net(0.0);
  net.add_host(kA, {44.9778, -93.2650}, AccessTier::kCable);
  net.add_host(kB, {44.9900, -93.2700}, AccessTier::kCable);  // ~1.5 km
  net.add_host(kC, {44.5000, -92.9000}, AccessTier::kCable);  // ~60 km
  EXPECT_LT(net.base_rtt(kA, kB), net.base_rtt(kA, kC));
}

TEST(GeoNetwork, TierOrderingMatchesFig1) {
  // From a cable home: the BEST of several nearby volunteers < Local Zone
  // < cloud. Individual volunteer pairs vary (per-pair peering), which is
  // exactly the heterogeneity the paper measures, so the ordering is
  // asserted on the best volunteer as in Fig 1.
  GeoNetwork net(0.0);
  const HostId user{10};
  const HostId local_zone{30};
  const HostId cloud{31};
  net.add_host(user, {44.9778, -93.2650}, AccessTier::kCable);
  net.add_host(local_zone, {44.8848, -93.2223}, AccessTier::kLocalZone);
  net.add_host(cloud, {39.9612, -82.9988}, AccessTier::kCloud);
  net.set_extra_rtt_ms(cloud, 18.0);

  SimDuration best_volunteer = msec(10'000);
  for (std::uint32_t i = 11; i < 21; ++i) {
    const HostId volunteer{i};
    net.add_host(volunteer, {44.9800, -93.2600}, AccessTier::kFiber);
    best_volunteer = std::min(best_volunteer, net.base_rtt(user, volunteer));
  }
  const auto lz = net.base_rtt(user, local_zone);
  const auto c = net.base_rtt(user, cloud);
  EXPECT_LT(best_volunteer, lz);
  EXPECT_LT(lz, c);
  EXPECT_GT(c, msec(60.0));  // regional cloud is tens of ms away
  EXPECT_LT(best_volunteer, msec(25.0));
}

TEST(GeoNetwork, SameIspResidentialPairsAreWellPeered) {
  // Same-ISP metro residential pairs collapse to near-LAN last-mile cost —
  // the paper's same-local-loop volunteers; other pairs pay full last-mile
  // plus peering variation.
  GeoNetwork net(0.0);
  const HostId user{1};
  const HostId same_isp{2};
  const HostId other_isp{3};
  const HostId no_isp{4};
  const HostId same_isp_far{5};
  net.add_host(user, {44.9778, -93.2650}, AccessTier::kCable, /*isp=*/7);
  net.add_host(same_isp, {44.9800, -93.2600}, AccessTier::kCable, 7);
  net.add_host(other_isp, {44.9800, -93.2600}, AccessTier::kCable, 8);
  net.add_host(no_isp, {44.9800, -93.2600}, AccessTier::kCable);
  net.add_host(same_isp_far, {40.0, -93.2600}, AccessTier::kCable, 7);

  EXPECT_LT(net.base_rtt(user, same_isp), msec(8.0));
  EXPECT_GT(net.base_rtt(user, other_isp), msec(15.0));
  EXPECT_GT(net.base_rtt(user, no_isp), msec(15.0));
  // Well-peering only applies inside the metro.
  EXPECT_GT(net.base_rtt(user, same_isp_far), msec(15.0));
}

TEST(GeoNetwork, PeeringOffsetIsDeterministicPerPair) {
  GeoNetwork net(0.0);
  net.add_host(HostId{1}, {44.98, -93.26}, AccessTier::kCable, 1);
  net.add_host(HostId{2}, {44.99, -93.27}, AccessTier::kCable, 2);
  net.add_host(HostId{3}, {44.99, -93.27}, AccessTier::kCable, 3);
  const auto r12 = net.base_rtt(HostId{1}, HostId{2});
  EXPECT_EQ(net.base_rtt(HostId{1}, HostId{2}), r12);  // stable
  EXPECT_EQ(net.base_rtt(HostId{2}, HostId{1}), r12);  // symmetric
  // Different pairs (same geometry) usually differ: routing diversity.
  EXPECT_NE(net.base_rtt(HostId{1}, HostId{3}), r12);
}

TEST(GeoNetwork, RepeatedLookupsMatchFreshInstance) {
  // Lookups are pure: a network that has served thousands of (possibly
  // repeated) queries answers identically to a fresh instance computing
  // each pair for the first time.
  auto build = [] {
    GeoNetwork net(0.0);
    Rng rng(42);
    for (std::uint32_t i = 1; i <= 20; ++i) {
      net.add_host(HostId{i}, {rng.uniform(-60, 60), rng.uniform(-180, 180)},
                   static_cast<AccessTier>(rng.uniform_int(0, 5)),
                   static_cast<int>(rng.uniform_int(0, 3)));
    }
    return net;
  };
  GeoNetwork hot = build();
  for (int pass = 0; pass < 3; ++pass) {  // every pair asked three times
    for (std::uint32_t a = 1; a <= 20; ++a) {
      for (std::uint32_t b = 1; b <= 20; ++b) {
        (void)hot.base_rtt(HostId{a}, HostId{b});
        (void)hot.bandwidth_mbps(HostId{a}, HostId{b});
      }
    }
  }
  GeoNetwork cold = build();
  for (std::uint32_t a = 1; a <= 20; ++a) {
    for (std::uint32_t b = 1; b <= 20; ++b) {
      EXPECT_EQ(hot.base_rtt(HostId{a}, HostId{b}),
                cold.base_rtt(HostId{a}, HostId{b}));
      EXPECT_DOUBLE_EQ(hot.bandwidth_mbps(HostId{a}, HostId{b}),
                       cold.bandwidth_mbps(HostId{a}, HostId{b}));
    }
  }
}

TEST(GeoNetwork, SetExtraRttTakesEffect) {
  GeoNetwork net(0.0);
  net.add_host(kA, {44.98, -93.26}, AccessTier::kCable);
  net.add_host(kB, {44.99, -93.27}, AccessTier::kCable);
  const auto before = net.base_rtt(kA, kB);  // asked before the penalty
  net.set_extra_rtt_ms(kB, 25.0);
  const auto after = net.base_rtt(kA, kB);
  EXPECT_EQ(after - before, msec(25.0));  // kB's fixed penalty now applies
  net.set_extra_rtt_ms(kB, 0.0);
  EXPECT_EQ(net.base_rtt(kA, kB), before);
}

TEST(GeoNetwork, AddHostReplacesFallback) {
  // A previously-unknown host that was answered with the fallback RTT
  // must get real metrics once registered.
  GeoNetwork net(0.0);
  net.add_host(kA, {44.98, -93.26}, AccessTier::kCable);
  EXPECT_EQ(net.base_rtt(kA, kB), msec(50.0));  // fallback: kB unknown
  net.add_host(kB, {44.99, -93.27}, AccessTier::kCable);
  EXPECT_NE(net.base_rtt(kA, kB), msec(50.0));
  EXPECT_LT(net.base_rtt(kA, kB), msec(45.0));
}

TEST(GeoNetwork, UnknownHostGetsFallback) {
  GeoNetwork net(0.0);
  net.add_host(kA, {44.98, -93.26}, AccessTier::kCable);
  EXPECT_EQ(net.base_rtt(kA, HostId{99}), msec(50.0));
  EXPECT_FALSE(net.position(HostId{99}).has_value());
}

TEST(GeoNetwork, InvalidAndUnaddedHostsGetFallback) {
  GeoNetwork net(0.0);
  net.add_host(HostId{}, {44.98, -93.26}, AccessTier::kFiber);  // ignored
  net.add_host(kA, {44.98, -93.26}, AccessTier::kFiber);
  net.add_host(kB, {44.99, -93.27}, AccessTier::kFiber);
  EXPECT_FALSE(net.position(HostId{}).has_value());
  EXPECT_EQ(net.base_rtt(kA, HostId{}), msec(50.0));
  EXPECT_DOUBLE_EQ(net.bandwidth_mbps(kA, HostId{}), 10.0);
  // Ids past the last added host: the next one, and one far beyond it.
  for (const HostId beyond : {kC, HostId{1000}}) {
    EXPECT_FALSE(net.position(beyond).has_value());
    EXPECT_EQ(net.base_rtt(kA, beyond), msec(50.0));
    EXPECT_EQ(net.base_rtt(beyond, kB), msec(50.0));
    EXPECT_DOUBLE_EQ(net.bandwidth_mbps(kA, beyond), 10.0);
    EXPECT_DOUBLE_EQ(net.bandwidth_mbps(beyond, beyond), 10.0);
  }
}

TEST(GeoNetwork, BandwidthIsMinOfTiers) {
  GeoNetwork net(0.0);
  net.add_host(kA, {44.98, -93.26}, AccessTier::kDsl);
  net.add_host(kB, {44.99, -93.27}, AccessTier::kFiber);
  EXPECT_DOUBLE_EQ(net.bandwidth_mbps(kA, kB),
                   GeoNetwork::tier_uplink_mbps(AccessTier::kDsl));
}

class SimNetworkTest : public ::testing::Test {
 protected:
  SimNetworkTest()
      : model_(20.0, 100.0, 0.0),
        fabric_(simulator_, model_, hosts_, Rng(7)) {
    hosts_.set_alive(kA, true);
    hosts_.set_alive(kB, true);
  }

  sim::Simulator simulator_;
  MatrixNetwork model_;
  HostTable hosts_;
  SimNetwork fabric_;
};

TEST_F(SimNetworkTest, DeliverAfterOneWayDelay) {
  SimTime arrived = -1;
  fabric_.deliver(kA, kB, 0, [&] { arrived = simulator_.now(); });
  simulator_.run_all();
  EXPECT_EQ(arrived, msec(10.0));  // half of 20 ms RTT
}

TEST_F(SimNetworkTest, DeliverDropsToDeadHost) {
  hosts_.set_alive(kB, false);
  bool arrived = false;
  fabric_.deliver(kA, kB, 0, [&] { arrived = true; });
  simulator_.run_all();
  EXPECT_FALSE(arrived);
}

TEST_F(SimNetworkTest, DeliverChecksLivenessAtArrivalTime) {
  bool arrived = false;
  fabric_.deliver(kA, kB, 0, [&] { arrived = true; });
  // Host dies while the message is in flight.
  simulator_.schedule_at(msec(5.0), [&] { hosts_.set_alive(kB, false); });
  simulator_.run_all();
  EXPECT_FALSE(arrived);
}

// Benches and examples mutate the model mid-run (e.g. a degraded link);
// the next message must see the new value.
TEST_F(SimNetworkTest, SetRttTakesEffectMidRun) {
  SimTime arrived = -1;
  fabric_.deliver(kA, kB, 0, [&] { arrived = simulator_.now(); });
  simulator_.run_all();
  ASSERT_EQ(arrived, msec(10.0));
  model_.set_rtt_ms(kA, kB, 40.0);
  fabric_.deliver(kA, kB, 0, [&] { arrived = simulator_.now(); });
  simulator_.run_all();
  EXPECT_EQ(arrived, msec(10.0) + msec(20.0));  // half of the new 40 ms
}

TEST_F(SimNetworkTest, SetUplinkTakesEffectMidRun) {
  SimTime arrived = -1;
  // 20 KB at the 100 Mbps default: 10 ms owd + 1.6 ms transfer.
  fabric_.deliver(kA, kB, 20'000, [&] { arrived = simulator_.now(); });
  simulator_.run_all();
  ASSERT_EQ(arrived, msec(11.6));
  model_.set_uplink_mbps(kA, 10.0);  // now 16 ms transfer
  const SimTime sent = simulator_.now();
  fabric_.deliver(kA, kB, 20'000, [&] { arrived = simulator_.now(); });
  simulator_.run_all();
  EXPECT_EQ(arrived - sent, msec(10.0) + msec(16.0));
}

TEST(SimNetwork, GeoExtraRttTakesEffectMidRun) {
  sim::Simulator simulator;
  GeoNetwork model(0.0);
  model.add_host(kA, {44.98, -93.26}, AccessTier::kCable);
  model.add_host(kB, {44.99, -93.27}, AccessTier::kCable);
  HostTable hosts;
  hosts.set_alive(kB, true);
  SimNetwork fabric(simulator, model, hosts, Rng(7));
  SimTime arrived = -1;
  fabric.deliver(kA, kB, 0, [&] { arrived = simulator.now(); });
  simulator.run_all();
  const SimDuration first = arrived;
  ASSERT_GT(first, 0);
  model.set_extra_rtt_ms(kB, 30.0);  // +30 ms rtt = +15 ms one way
  const SimTime sent = simulator.now();
  fabric.deliver(kA, kB, 0, [&] { arrived = simulator.now(); });
  simulator.run_all();
  EXPECT_EQ(arrived - sent, first + msec(15.0));
}

// Deterministic delivery numbers each message by its source's own
// sequence and hashes the jitter from (pair, that number): host C's
// traffic to B leaves the delay of A's n-th message to B unchanged, while
// A's own messages elsewhere advance A's sequence.
TEST(SimNetwork, DeterministicJitterFollowsTheSourceSequence) {
  auto delays_from_a = [](bool c_sends_to_b, bool a_sends_to_c) {
    sim::Simulator simulator;
    MatrixNetwork model(20.0, 100.0, 0.2);
    HostTable hosts;
    hosts.set_alive(kB, true);
    hosts.set_alive(kC, true);
    SimNetwork fabric(simulator, model, hosts, Rng(7));
    fabric.enable_deterministic_delivery(42);
    std::vector<SimDuration> delays;
    for (int n = 0; n < 8; ++n) {
      const SimTime sent = simulator.now();
      fabric.deliver(kA, kB, 0, [&delays, &simulator, sent] {
        delays.push_back(simulator.now() - sent);
      });
      if (c_sends_to_b) fabric.deliver(kC, kB, 0, [] {});
      if (a_sends_to_c) fabric.deliver(kA, kC, 0, [] {});
      simulator.run_all();
    }
    return delays;
  };
  const std::vector<SimDuration> alone = delays_from_a(false, false);
  ASSERT_EQ(alone.size(), 8u);
  EXPECT_NE(*std::min_element(alone.begin(), alone.end()),
            *std::max_element(alone.begin(), alone.end()));  // jittered
  EXPECT_EQ(delays_from_a(true, false), alone);
  EXPECT_NE(delays_from_a(false, true), alone);
}

TEST_F(SimNetworkTest, RpcRoundTrip) {
  std::optional<int> result;
  fabric_.rpc<int>(
      kA, kB, 100, 100, sec(1), [] { return 42; },
      [&](std::optional<int> r) { result = r; });
  simulator_.run_all();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(simulator_.now(), msec(20.0) + 2 * msec(0.008));  // rtt + transfer
}

TEST_F(SimNetworkTest, RpcTimesOutWhenServerDead) {
  hosts_.set_alive(kB, false);
  bool done_called = false;
  std::optional<int> result = 1;
  fabric_.rpc<int>(
      kA, kB, 0, 0, msec(100), [] { return 42; },
      [&](std::optional<int> r) {
        done_called = true;
        result = r;
      });
  simulator_.run_all();
  EXPECT_TRUE(done_called);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(simulator_.now(), msec(100));  // fired at the timeout
}

TEST_F(SimNetworkTest, RpcCallbackExactlyOnce) {
  int calls = 0;
  // Response arrives before the timeout: the timeout must not double-fire.
  fabric_.rpc<int>(
      kA, kB, 0, 0, sec(10), [] { return 1; },
      [&](std::optional<int>) { ++calls; });
  simulator_.run_all();
  EXPECT_EQ(calls, 1);
}

TEST_F(SimNetworkTest, RpcAsyncServerRepliesLater) {
  std::function<void(int)> reply;
  std::optional<int> result;
  fabric_.rpc_async<int>(
      kA, kB, 0, 0, sec(5),
      [&](std::function<void(int)> r) { reply = std::move(r); },
      [&](std::optional<int> r) { result = r; });
  simulator_.run_until(msec(50));
  ASSERT_TRUE(reply);  // request arrived, response pending
  EXPECT_FALSE(result.has_value());
  reply(7);
  simulator_.run_all();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, 7);
}

TEST_F(SimNetworkTest, RpcAsyncLateReplyAfterTimeoutIgnored) {
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
  simulator_.run_until(msec(200));  // timeout fired
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(result.has_value());
  reply(9);  // server finally answers
  simulator_.run_all();
  EXPECT_EQ(calls, 1);  // still exactly once
}

TEST(HostTable, DefaultsToDead) {
  HostTable hosts;
  EXPECT_FALSE(hosts.alive(kA));
  hosts.set_alive(kA, true);
  EXPECT_TRUE(hosts.alive(kA));
  hosts.set_alive(kA, false);
  EXPECT_FALSE(hosts.alive(kA));
}

}  // namespace
}  // namespace eden::net
