// Unit tests for harness::ParallelRunner and resolve_thread_count():
// ordering, exception propagation, and the property the benches rely on —
// a pool of N threads produces bitwise-identical results to running the
// same jobs sequentially.
#include "harness/parallel_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "net/network_model.h"
#include "sim/simulator.h"

namespace eden::harness {
namespace {

TEST(ResolveThreadCount, ExplicitRequestWins) {
  EXPECT_EQ(resolve_thread_count(4, 8), 4u);
  EXPECT_EQ(resolve_thread_count(1, 8), 1u);
  // An explicit request is honored even when hardware reports nothing.
  EXPECT_EQ(resolve_thread_count(3, 0), 3u);
}

TEST(ResolveThreadCount, ZeroPicksHardwareClampedToOne) {
  EXPECT_EQ(resolve_thread_count(0, 8), 8u);
  // hardware_concurrency() == 0 means "unknown" — never 0 threads.
  EXPECT_EQ(resolve_thread_count(0, 0), 1u);
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(resolve_thread_count(0), hw == 0 ? 1u : hw);
  EXPECT_GE(resolve_thread_count(0), 1u);
}

TEST(ParallelRunner, AtLeastOneThread) {
  EXPECT_GE(ParallelRunner(0).threads(), 1u);
  EXPECT_EQ(ParallelRunner(3).threads(), 3u);
}

TEST(ParallelRunner, RunsEveryJobOnce) {
  ParallelRunner pool(4);
  std::vector<std::atomic<int>> hits(64);
  std::vector<std::function<void()>> jobs;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    jobs.emplace_back([&hits, i] { hits[i].fetch_add(1); });
  }
  pool.run(std::move(jobs));
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelRunner, MapDepositsByJobIndex) {
  ParallelRunner pool(4);
  std::vector<std::function<int()>> jobs;
  for (int i = 0; i < 32; ++i) {
    jobs.emplace_back([i] {
      // Uneven work so completion order differs from submission order.
      volatile int spin = (31 - i) * 1000;
      while (spin > 0) spin = spin - 1;
      return i * i;
    });
  }
  const std::vector<int> out = pool.map<int>(std::move(jobs));
  ASSERT_EQ(out.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelRunner, FirstExceptionRethrownAfterAllJobsFinish) {
  ParallelRunner pool(4);
  std::atomic<int> completed{0};
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 16; ++i) {
    jobs.emplace_back([&completed, i] {
      if (i == 5) throw std::runtime_error("job 5 failed");
      completed.fetch_add(1);
    });
  }
  EXPECT_THROW(pool.run(std::move(jobs)), std::runtime_error);
  // The failure does not cancel the remaining jobs.
  EXPECT_EQ(completed.load(), 15);
}

TEST(ParallelRunner, EmptyJobListIsFine) {
  ParallelRunner pool(4);
  pool.run({});
  EXPECT_TRUE(pool.map<int>({}).empty());
}

// One simulation replicate, the shape every bench job has: its own
// simulator, network model and RNG streams. Returns a digest of the full
// event sequence, so any divergence — ordering, timing, RNG draws —
// changes the result.
std::uint64_t replicate_digest(std::uint64_t seed) {
  sim::Simulator simulator;
  net::GeoNetwork network(0.0);
  Rng rng(seed);
  for (std::uint32_t h = 1; h <= 12; ++h) {
    network.add_host(HostId{h},
                     {rng.uniform(-60, 60), rng.uniform(-180, 180)},
                     static_cast<net::AccessTier>(rng.uniform_int(0, 5)),
                     static_cast<int>(rng.uniform_int(0, 2)));
  }
  std::uint64_t digest = 0xcbf29ce484222325ull;
  auto mix = [&digest](std::uint64_t v) {
    digest = (digest ^ v) * 0x100000001b3ull;
  };
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.uniform_int(1, 12));
    const auto b = static_cast<std::uint32_t>(rng.uniform_int(1, 12));
    const SimDuration owd = network.sample_owd(HostId{a}, HostId{b}, rng);
    simulator.schedule_at(simulator.now() + owd + rng.uniform_int(0, 5000),
                          [&mix, &simulator, i] {
                            mix(static_cast<std::uint64_t>(simulator.now()));
                            mix(static_cast<std::uint64_t>(i));
                          });
    if (i % 64 == 0) simulator.run_until(simulator.now() + msec(1.0));
  }
  simulator.run_all();
  mix(simulator.events_processed());
  return digest;
}

TEST(ParallelRunner, ParallelBitwiseIdenticalToSequential) {
  constexpr int kReplicates = 12;
  std::vector<std::uint64_t> sequential;
  for (int i = 0; i < kReplicates; ++i) {
    sequential.push_back(replicate_digest(1000 + i));
  }
  for (const unsigned threads : {1u, 2u, 7u}) {
    ParallelRunner pool(threads);
    std::vector<std::function<std::uint64_t()>> jobs;
    for (int i = 0; i < kReplicates; ++i) {
      jobs.emplace_back([i] { return replicate_digest(1000 + i); });
    }
    EXPECT_EQ(pool.map<std::uint64_t>(std::move(jobs)), sequential)
        << "thread count " << threads;
  }
}

}  // namespace
}  // namespace eden::harness
