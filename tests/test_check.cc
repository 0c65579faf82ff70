// eden::check end-to-end: generator determinism, repro round-trips, a
// clean fuzz sweep, bitwise determinism across ParallelRunner thread
// counts, the seeded-bug -> shrink -> replay pipeline, the vacuous-run
// guard, world parity between the two harnesses and the pinned digests.
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

// ---- one recipe, two harnesses ----

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
    0xd5e59460acae0661ull, 0x8749b9e74db06332ull, 0x0b418de00bdded88ull,
    0x0ee8606cb9c129edull, 0xf8cc3efe80e1d497ull, 0x20b7105fdc75898dull,
    0x8703291730559ca2ull, 0x499836d65d0e208bull, 0x7b4666f519adfeceull,
    0x939c51bfdbbebe1dull, 0x2550ca98188dba1aull, 0x75abaff028a599c1ull,
    0x722d5874bfb6bb01ull, 0x44928c63d6a1b157ull, 0x6372f6bebafd5c01ull,
    0x857df3685ab7a3d2ull, 0x357f896f1110f79eull, 0x75bccbf591138243ull,
    0x2edd3c41cfb34ab3ull, 0x579031c1f2802a09ull, 0xebc83edb9c7bf462ull,
    0x6d36ca8be620f5abull, 0xf5f4648a53771938ull, 0x64640d0cfd4a8ae3ull,
    0x2ccc3d6a556ce95full, 0xe33d6ff20e697c41ull, 0x086d8bf78ffadf8cull,
    0x044abaf229a68432ull, 0x1e79ef835f0575f6ull, 0xfbe3b6e7c9c668ecull,
};
constexpr std::uint64_t kOverloadFamilyDigests[30] = {
    0xf88505f30e79726aull, 0xbca452bb8181423aull, 0x7e6cdaa24460b1e9ull,
    0x42c658fda049cbecull, 0xda1d199b1c4723ceull, 0x3045c68a5b5c7fb9ull,
    0x81a5b04a08666585ull, 0xe06e6d580f856b2bull, 0x460d4b5e40a23a9bull,
    0xae016e8f8eea0ef1ull, 0x139a13c1cc219a19ull, 0xb785fbfd8359e8cbull,
    0xad15127dd3d3a19dull, 0xe16e61ffba53055dull, 0x9191c64ef1c2e206ull,
    0xe2ebf40e515cf13aull, 0x2c05486375580178ull, 0xd5335dbbc87cbf53ull,
    0x5036a2ee1b9b949dull, 0x15ca43b29f9149c7ull, 0xd0abd3b236f3017full,
    0xa7ac1ba7f39b35adull, 0x46f7ce525a31875aull, 0x7fa45a8e175bac04ull,
    0xb36dba9de8c043abull, 0xd1b1ea519fb145c9ull, 0x37c2eb80ecea6af2ull,
    0xc5e8ee04915596a4ull, 0xfbadd765cfd73e8dull, 0xdfc1c490309434a1ull,
};
constexpr std::uint64_t kCrashFamilyDigests[30] = {
    0x7780fa77b073d82dull, 0x317c87eeb2f74ac7ull, 0x25d2efa37c3d7c53ull,
    0xfe9d22a58ecb8c8full, 0x028d3ca35edf1b89ull, 0x35f7838ec9b2a007ull,
    0xea71e74f3fd7d25bull, 0x8a6c317c79ba779cull, 0xc8a13897df6c9123ull,
    0xaa72328e64236e4dull, 0x972ca7e6929cc0c3ull, 0x4dd868cfa7cf6276ull,
    0xe13967ed65cb7807ull, 0xd2747de8ac1faab8ull, 0xaa1770fce0284c0dull,
    0xbb3e15c782d4252eull, 0x3469f5dbe5e5ea46ull, 0x4fd18f39edb21258ull,
    0xd8f932a87e6bbb76ull, 0x203fff9bf07510d5ull, 0xd047fb89d5b5b2c5ull,
    0x5345f79436dc5860ull, 0x6c0b4a585174e0cdull, 0xe5baa2f79a1d6841ull,
    0xe7a2e803ca84ae12ull, 0x0f0f4fb636ac0ca9ull, 0x7b2bbd4a71ee50dcull,
    0xfc7626a5d996b3bbull, 0x67a7e12d5c197a1aull, 0x7453f7b9e1e1550dull,
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
