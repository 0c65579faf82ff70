// eden::check end-to-end: generator determinism, repro round-trips, a
// clean fuzz sweep, bitwise determinism across ParallelRunner thread
// counts, the seeded-bug -> shrink -> replay pipeline, the vacuous-run
// guard, world parity between the two harness configurations and the
// pinned digests.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/fuzzer.h"
#include "check/repro.h"
#include "check/shard_witness.h"
#include "check/shrink.h"
#include "check/spec.h"
#include "harness/parallel_runner.h"

namespace eden::check {
namespace {

ScenarioSpec tiny_chaos_spec() {
  ScenarioSpec spec;
  spec.seed = 99;
  spec.horizon_sec = 24.0;
  spec.cooldown_sec = 10.0;
  spec.chaos = kChaosFreezeSeqNum;
  spec.nodes.resize(2);
  spec.nodes[1].lat += 0.05;
  spec.clients.resize(2);
  spec.clients[1].lon += 0.04;
  spec.clients[1].start_sec = 1.0;
  return spec;
}

TEST(CheckGenerator, DeterministicAndWithinLimits) {
  const FuzzLimits limits;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    const ScenarioSpec a = generate_spec(seed, limits);
    const ScenarioSpec b = generate_spec(seed, limits);
    EXPECT_EQ(a, b) << "seed " << seed;
    EXPECT_GE(a.clients.size(), 1u);
    EXPECT_LE(a.clients.size(), limits.max_clients);
    // The cloud fallback may ride on top of the volunteer cap.
    EXPECT_LE(a.nodes.size(), limits.max_nodes + 1);
    EXPECT_LE(a.faults.size(), limits.max_faults);
    EXPECT_GE(a.horizon_sec, a.cooldown_sec + 12.0);
    // Quiet-tail contract: no churn or fault inside the cooldown.
    const double quiet = a.horizon_sec - a.cooldown_sec;
    for (const FuzzNode& n : a.nodes) {
      if (n.stop_sec >= 0.0) {
        EXPECT_LE(n.stop_sec, quiet);
      }
    }
    for (const FuzzFault& f : a.faults) EXPECT_LE(f.until_sec, quiet);
  }
  EXPECT_NE(generate_spec(1), generate_spec(2));
}

TEST(CheckRepro, JsonRoundTripIsExactAndByteStable) {
  ReproFile repro;
  repro.target_oracle = "seqnum";
  repro.spec = generate_spec(17);
  const std::string json = to_json(repro);
  const auto parsed = parse_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, repro);
  // write -> parse -> write is byte-identical (%.17g doubles).
  EXPECT_EQ(to_json(*parsed), json);
}

TEST(CheckRepro, RejectsGarbage) {
  EXPECT_FALSE(parse_json("").has_value());
  EXPECT_FALSE(parse_json("{\"eden_repro\": 1").has_value());
  EXPECT_FALSE(parse_json("not json at all").has_value());
  const std::string valid = to_json(ReproFile{1, "x", generate_spec(3)});
  EXPECT_FALSE(parse_json(valid + "trailing").has_value());
}

TEST(CheckFuzz, SweepHoldsAllInvariants) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const RunReport report = run_spec(generate_spec(seed));
    EXPECT_TRUE(report.ok()) << "seed " << seed << ": "
                             << (report.violations.empty()
                                     ? ""
                                     : report.violations.front().oracle + ": " +
                                           report.violations.front().message);
    EXPECT_GT(report.trace_events, 0u);
  }
}

// The acceptance pin for the whole subsystem: the same spec run on a
// 1-thread and a 4-thread pool (and twice within each pool) produces
// bitwise-identical traces.
TEST(CheckFuzz, DeterministicAcrossThreadCounts) {
  const ScenarioSpec spec = generate_spec(11);
  const std::uint64_t reference = run_spec(spec).trace_digest;
  for (const unsigned threads : {1u, 4u}) {
    harness::ParallelRunner runner(threads);
    std::vector<std::function<std::uint64_t()>> jobs;
    for (int i = 0; i < 4; ++i) {
      jobs.emplace_back([&spec] { return run_spec(spec).trace_digest; });
    }
    for (const std::uint64_t digest : runner.map(std::move(jobs))) {
      EXPECT_EQ(digest, reference) << threads << " threads";
    }
  }
}

TEST(CheckFuzz, SeededSeqNumFreezeIsCaughtAndShrunk) {
  const ScenarioSpec spec = tiny_chaos_spec();
  const RunReport seeded = run_spec(spec);
  ASSERT_FALSE(seeded.ok());
  bool seqnum_fired = false;
  for (const Violation& v : seeded.violations) {
    seqnum_fired = seqnum_fired || v.oracle == "seqnum";
  }
  EXPECT_TRUE(seqnum_fired);

  const ShrinkResult shrunk = shrink(spec, "seqnum");
  ASSERT_TRUE(shrunk.accepted);
  EXPECT_LE(shrunk.spec.nodes.size(), 3u);
  EXPECT_LE(shrunk.spec.clients.size(), 2u);

  // The minimized spec survives a repro round trip and replays to the
  // same oracle with the same digest.
  ReproFile repro{1, "seqnum", shrunk.spec};
  const auto reloaded = parse_json(to_json(repro));
  ASSERT_TRUE(reloaded.has_value());
  const RunReport replayed = run_spec(reloaded->spec);
  EXPECT_EQ(replayed.trace_digest, shrunk.report.trace_digest);
  bool reproduced = false;
  for (const Violation& v : replayed.violations) {
    reproduced = reproduced || v.oracle == "seqnum";
  }
  EXPECT_TRUE(reproduced);
}

TEST(CheckFuzz, CleanRunOfChaosSpecWithoutChaosBit) {
  ScenarioSpec spec = tiny_chaos_spec();
  spec.chaos = 0;
  EXPECT_TRUE(run_spec(spec).ok());
}

TEST(CheckFuzz, VacuousSpecIsFlagged) {
  ScenarioSpec spec = tiny_chaos_spec();
  spec.chaos = 0;
  spec.clients.clear();
  const RunReport report = run_spec(spec);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations.front().oracle, "vacuous-run");
}

// ---- one recipe, both harness configurations ----

// run_spec and the windowless sharded reference build their worlds from
// the same recipe: the same node and client ids in the same order, and
// the same base-RTT table.
TEST(CheckRecipe, BothHarnessesBuildTheSameWorld) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ScenarioSpec spec = generate_spec(seed);
    const EndState seq = run_spec(spec).end;
    const EndState sharded = run_spec_sharded(spec, 0).end;
    ASSERT_EQ(seq.nodes.size(), spec.nodes.size());
    ASSERT_EQ(sharded.nodes.size(), seq.nodes.size());
    for (std::size_t i = 0; i < seq.nodes.size(); ++i) {
      EXPECT_EQ(sharded.nodes[i].id, seq.nodes[i].id);
    }
    ASSERT_EQ(seq.clients.size(), spec.clients.size());
    ASSERT_EQ(sharded.clients.size(), seq.clients.size());
    for (std::size_t i = 0; i < seq.clients.size(); ++i) {
      EXPECT_EQ(sharded.clients[i].id, seq.clients[i].id);
    }
    ASSERT_EQ(sharded.base_rtt.size(), seq.base_rtt.size());
    for (std::size_t i = 0; i < seq.base_rtt.size(); ++i) {
      EXPECT_EQ(sharded.base_rtt[i].client, seq.base_rtt[i].client);
      EXPECT_EQ(sharded.base_rtt[i].node, seq.base_rtt[i].node);
      EXPECT_EQ(sharded.base_rtt[i].base_rtt_ms, seq.base_rtt[i].base_rtt_ms);
    }
  }
}

// ---- digests pinned across commits ----

// run_spec trace digests of seeds 1..30 in each generator family. Any
// change to event order, RNG draws or trace content trips this gate. A
// deliberate event-order change re-records the lists in the same commit
// (`eden_check --seed S [--overload | --crash]` prints each digest) and
// says so in the change log.
constexpr std::uint64_t kDefaultFamilyDigests[30] = {
    0x672824342371641cull, 0xb69d6ab9b3126f89ull, 0x7ef454db707afa1eull,
    0xaf6db29173593e2full, 0x1bd66503d57cc0ebull, 0x20b7105fdc75898dull,
    0xf5315bcb94f97f7bull, 0x6141c7b4cab3eb71ull, 0xca2d016e478dc7f6ull,
    0x99f1876224e84969ull, 0x16769aa4bf07c92eull, 0x75abaff028a599c1ull,
    0xf9d7cd7fbb3eff75ull, 0x44928c63d6a1b157ull, 0x6372f6bebafd5c01ull,
    0x857df3685ab7a3d2ull, 0x95918ba62d53270eull, 0x5dbce0c2f18e1960ull,
    0x2edd3c41cfb34ab3ull, 0xafb4f95df34aac57ull, 0x8589eb6178bc7834ull,
    0x74de7cb62df470c5ull, 0x477eb45e5385f119ull, 0xfb5e30498b6340b2ull,
    0xf1e5d57bc253974eull, 0x4c1a3610e6c0e711ull, 0x665c08c3ad878a1dull,
    0x044abaf229a68432ull, 0x28cca10f2aee6b85ull, 0xfbe3b6e7c9c668ecull,
};
constexpr std::uint64_t kOverloadFamilyDigests[30] = {
    0x5c60cb06ab2ef27full, 0x223806f05146b602ull, 0xc446f48e10804249ull,
    0xa286f72dfe0e8c39ull, 0xb6d0f4902f168e9aull, 0x3045c68a5b5c7fb9ull,
    0x6b64ba9ef50045d2ull, 0xa2bc537841a76dbfull, 0x2075c0017aa7613full,
    0x7f8e9c3f4e28f73bull, 0xac59ac1c2f4cf67dull, 0xb785fbfd8359e8cbull,
    0x961cb37140482df5ull, 0xe16e61ffba53055dull, 0x55f1806d5646ce8eull,
    0x646104226064277eull, 0xbf4e492eae714b87ull, 0x40aefcc0c84e7604ull,
    0x5036a2ee1b9b949dull, 0x12ef9df931190bc0ull, 0x58621dd5b00a90beull,
    0xecd9e41f4ba252e1ull, 0x3edbdaf85c8e4f4cull, 0x89a9b217b82dd8a8ull,
    0xb390e3ad77d43ec2ull, 0x6b7983fbf63723aeull, 0x10de3c7d4d7645c8ull,
    0xa12d7f98b5956404ull, 0xf70ca535812b5ffaull, 0xdfc1c490309434a1ull,
};
constexpr std::uint64_t kCrashFamilyDigests[30] = {
    0x68215bf00a9f6180ull, 0xe17188012e23507full, 0x19a8fee039a53b03ull,
    0xf2738b01b376cb47ull, 0xc52e0ef4ccaa3c7eull, 0x35f7838ec9b2a007ull,
    0x7095663570ec0906ull, 0x63e79ccf78f3f7b0ull, 0xf5df5b784e1d6589ull,
    0x6cf6f1329f3512e9ull, 0x94cf0252b3422e07ull, 0x4dd868cfa7cf6276ull,
    0x49e3a41c0c06077full, 0xd2747de8ac1faab8ull, 0xaa1770fce0284c0dull,
    0xbb3e15c782d4252eull, 0xeafa85380b96af76ull, 0x9935d28815e79644ull,
    0xd8f932a87e6bbb76ull, 0x3cabc2a076ea76edull, 0x88d29fe6d1ebe5eaull,
    0x2815dc7b88589b6eull, 0x4c2a7b0d418f7027ull, 0x6be36fc3306d68b7ull,
    0xf9a02c613ec16e8cull, 0x35aede497f192685ull, 0xd81400d9d7a959f3ull,
    0xd8e29b0b573047f3ull, 0xfb667905be2415c3ull, 0x7453f7b9e1e1550dull,
};

TEST(CheckDigests, FuzzSeedsReproduceRecordedDigests) {
  struct Family {
    const char* name;
    FuzzLimits limits;
    const std::uint64_t* digests;
  };
  FuzzLimits overload;
  overload.overload_families = true;
  FuzzLimits crash;
  crash.crash_points = true;
  const Family families[] = {{"default", FuzzLimits{}, kDefaultFamilyDigests},
                             {"overload", overload, kOverloadFamilyDigests},
                             {"crash", crash, kCrashFamilyDigests}};
  for (const Family& family : families) {
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
      const RunReport report = run_spec(generate_spec(seed, family.limits));
      EXPECT_EQ(report.trace_digest, family.digests[seed - 1])
          << family.name << " seed " << seed;
    }
  }
}

TEST(CheckShrink, RejectsSpecThatDoesNotViolate) {
  ScenarioSpec spec = tiny_chaos_spec();
  spec.chaos = 0;
  const ShrinkResult result = shrink(spec, "seqnum", /*max_attempts=*/3);
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.spec, spec);
  EXPECT_EQ(result.attempts, 1);
}

}  // namespace
}  // namespace eden::check
