// Unit tests for the discrete-event simulator: ordering, cancellation,
// periodic tasks, determinism.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/clock.h"

namespace eden::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(msec(30), [&] { order.push_back(3); });
  s.schedule_at(msec(10), [&] { order.push_back(1); });
  s.schedule_at(msec(20), [&] { order.push_back(2); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), msec(30));
}

TEST(Simulator, EqualTimestampsFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(msec(5), [&order, i] { order.push_back(i); });
  }
  s.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator s;
  SimTime fired_at = -1;
  s.schedule_at(msec(10), [&] {
    s.schedule_after(msec(5), [&] { fired_at = s.now(); });
  });
  s.run_all();
  EXPECT_EQ(fired_at, msec(15));
}

TEST(Simulator, PastEventsClampToNow) {
  Simulator s;
  s.run_until(msec(100));
  SimTime fired_at = -1;
  s.schedule_at(msec(1), [&] { fired_at = s.now(); });
  s.run_all();
  EXPECT_EQ(fired_at, msec(100));
}

TEST(Simulator, NegativeDelayClampsToZero) {
  Simulator s;
  SimTime fired_at = -1;
  s.schedule_after(msec(-50), [&] { fired_at = s.now(); });
  s.run_all();
  EXPECT_EQ(fired_at, 0);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool fired = false;
  const EventId id = s.schedule_at(msec(10), [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));  // second cancel is a no-op
  s.run_all();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterRunReturnsFalse) {
  Simulator s;
  const EventId id = s.schedule_at(msec(1), [] {});
  s.run_all();
  EXPECT_FALSE(s.cancel(id));
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator s;
  int fired = 0;
  s.schedule_at(msec(10), [&] { ++fired; });
  s.schedule_at(msec(20), [&] { ++fired; });
  s.schedule_at(msec(21), [&] { ++fired; });
  s.run_until(msec(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), msec(20));
  s.run_until(msec(30));
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockWithEmptyQueue) {
  Simulator s;
  s.run_until(sec(5));
  EXPECT_EQ(s.now(), sec(5));
}

TEST(Simulator, EventsScheduledDuringRunAreProcessed) {
  Simulator s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.schedule_after(msec(1), recurse);
  };
  s.schedule_at(0, recurse);
  s.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.events_processed(), 5u);
}

TEST(Simulator, RunAllThrowsOnRunaway) {
  Simulator s;
  std::function<void()> forever = [&] { s.schedule_after(1, forever); };
  s.schedule_at(0, forever);
  EXPECT_THROW(s.run_all(1000), std::runtime_error);
}

TEST(Periodic, FiresEveryPeriodUntilStopped) {
  Simulator s;
  int count = 0;
  Periodic p(s, msec(10), msec(10), [&] { ++count; });
  s.run_until(msec(55));
  EXPECT_EQ(count, 5);  // t = 10, 20, 30, 40, 50
  p.stop();
  s.run_until(msec(200));
  EXPECT_EQ(count, 5);
}

TEST(Periodic, DestructorStops) {
  Simulator s;
  int count = 0;
  {
    Periodic p(s, 0, msec(10), [&] { ++count; });
    s.run_until(msec(25));
  }
  s.run_until(msec(100));
  EXPECT_EQ(count, 3);  // t = 0, 10, 20
}

TEST(Periodic, CanStopItselfFromCallback) {
  Simulator s;
  int count = 0;
  Periodic p;
  p = Periodic(s, 0, msec(1), [&] {
    if (++count == 3) p.stop();
  });
  s.run_until(sec(1));
  EXPECT_EQ(count, 3);
}

TEST(Simulator, PendingExcludesCancelledImmediately) {
  Simulator s;
  const EventId a = s.schedule_at(msec(10), [] {});
  s.schedule_at(msec(20), [] {});
  s.schedule_at(msec(30), [] {});
  EXPECT_EQ(s.pending(), 3u);
  EXPECT_TRUE(s.cancel(a));
  // The cancelled event leaves pending() at once, not when its timestamp
  // is reached.
  EXPECT_EQ(s.pending(), 2u);
  s.run_all();
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, TombstonesDoNotAccumulate) {
  Simulator s;
  // A persistent pool plus heavy cancel churn: the timeout-rearm pattern
  // that made the old engine's queue grow without bound.
  std::vector<EventId> persistent;
  for (int i = 0; i < 100; ++i) {
    persistent.push_back(s.schedule_at(sec(1000) + i, [] {}));
  }
  for (int i = 0; i < 100'000; ++i) {
    const EventId id = s.schedule_at(msec(100) + i % 50, [] {});
    ASSERT_TRUE(s.cancel(id));
    if (i % 10'000 == 0) {
      // live + not-yet-purged tombstones stays O(pending()).
      ASSERT_LE(s.queued_entries(), 300u);
    }
  }
  EXPECT_EQ(s.pending(), 100u);
  EXPECT_LE(s.queued_entries(), 300u);
  s.run_all();
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, QueueStorageStaysProportionalToQueuedEntries) {
  // A rolling 3 s horizon over 120 simulated seconds: every 10 ms, 190
  // events land uniformly up to 3 s ahead. About a third are deliveries
  // (never cancelled, keyed in the slot-indexed side array); ~30% of the
  // rest are cancelled one step later. The time front sweeps the 64
  // level-3 radix buckets (2^18 us each) several times over, so a queue
  // where every bucket kept its own peak would hold many times the peak
  // queue.
  Simulator s;
  std::mt19937_64 rng(19);
  std::uniform_int_distribution<SimDuration> ahead(0, sec(3));
  constexpr std::size_t kEntryBytes = 16;
  constexpr std::size_t kBlockBytes = 1024;
  constexpr std::size_t kBuckets = 11 * 64;  // levels x digits
  std::vector<EventId> doomed;
  std::size_t scheduled = 0;
  std::size_t deliveries = 0;
  std::size_t cancelled = 0;
  std::size_t fired = 0;
  std::size_t peak_entries = 0;
  for (SimTime t = 0; t < sec(120); t += msec(10)) {
    for (const EventId id : doomed) cancelled += s.cancel(id) ? 1 : 0;
    doomed.clear();
    for (int i = 0; i < 190; ++i) {
      ++scheduled;
      if (rng() % 3 == 0) {
        s.schedule_delivery(t + ahead(rng),
                            Simulator::DeliveryKey{rng() % 64, deliveries++},
                            [&fired] { ++fired; });
        continue;
      }
      const EventId id = s.schedule_at(t + ahead(rng), [&fired] { ++fired; });
      if (rng() % 10 < 3) doomed.push_back(id);
    }
    peak_entries = std::max(peak_entries, s.queued_entries());
    // Linear in the peak queue, plus one partly filled block per bucket.
    ASSERT_LE(s.queue_storage_bytes(),
              2 * kEntryBytes * peak_entries + kBuckets * kBlockBytes)
        << "at t=" << t << " us, peak queued entries " << peak_entries;
    s.run_until(t + msec(10));
  }
  s.run_all();
  EXPECT_GT(peak_entries, 15'000u);
  EXPECT_GT(deliveries * 4, scheduled);  // ~1/3 of the load
  EXPECT_GT(cancelled * 4, scheduled - deliveries);  // ~30% of the rest
  EXPECT_EQ(fired + cancelled, scheduled);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, StaleHandleAfterSlotReuse) {
  Simulator s;
  bool b_fired = false;
  const EventId a = s.schedule_at(msec(10), [] {});
  ASSERT_TRUE(s.cancel(a));
  // B reuses A's arena slot; A's stale handle must not be able to touch it.
  const EventId b = s.schedule_at(msec(20), [&] { b_fired = true; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(s.cancel(a));
  s.run_all();
  EXPECT_TRUE(b_fired);
}

TEST(Simulator, RescheduleIntoRunUntilGap) {
  // run_until can advance now() into a gap before the next queued batch;
  // a schedule into that gap must still fire before the later batch.
  Simulator s;
  std::vector<int> order;
  s.schedule_at(msec(100), [&] { order.push_back(100); });
  s.schedule_at(msec(300), [&] { order.push_back(300); });
  s.run_until(msec(200));
  s.schedule_at(msec(250), [&] { order.push_back(250); });
  s.schedule_at(msec(220), [&] { order.push_back(220); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{100, 220, 250, 300}));
}

TEST(Simulator, GapScheduleLowersMultiBlockBuckets) {
  // run_until() refills the next batch past its limit and parks now() in
  // the gap before it; a schedule into that gap lowers the queue's
  // minimum. The batch (300 events on one tick just past a 4096-tick
  // boundary) and the tied clusters behind it span several 63-entry
  // blocks, and the gap schedule crosses the boundary, so lowering moves
  // the batch and splices multi-block chains. Order must stay (time,
  // deliveries by key, then regular events in schedule order).
  Simulator s;
  const SimTime tick = 4096 * 5 + 10;
  std::vector<int> fired;
  int next_id = 0;
  auto add_regular = [&](SimTime at) {
    const int id = next_id++;
    s.schedule_at(at, [&fired, id] { fired.push_back(id); });
    return id;
  };
  auto add_delivery = [&](SimTime at, std::uint64_t lo) {
    const int id = next_id++;
    s.schedule_delivery(at, Simulator::DeliveryKey{0, lo},
                        [&fired, id] { fired.push_back(id); });
    return id;
  };
  std::vector<int> batch;
  std::vector<int> clusters;
  for (int n = 0; n < 300; ++n) batch.push_back(add_regular(tick));
  for (SimTime k = 1; k <= 6; ++k) {
    for (int n = 0; n < 150; ++n) clusters.push_back(add_regular(tick + 64 * k));
  }
  s.run_until(tick - 100);
  ASSERT_EQ(s.events_processed(), 0u);
  const int gap = add_regular(tick - 50);
  const int late = add_delivery(tick, 9);
  const int early = add_delivery(tick, 2);
  const int tail = add_regular(tick);
  s.run_all();

  std::vector<int> want{gap, early, late};
  want.insert(want.end(), batch.begin(), batch.end());
  want.push_back(tail);
  want.insert(want.end(), clusters.begin(), clusters.end());
  EXPECT_EQ(fired, want);
}

TEST(Periodic, MoveConstructionTransfersOwnership) {
  Simulator s;
  int count = 0;
  Periodic a(s, msec(10), msec(10), [&] { ++count; });
  Periodic b(std::move(a));
  EXPECT_TRUE(b.running());
  EXPECT_FALSE(a.running());  // NOLINT(bugprone-use-after-move) inert
  s.run_until(msec(25));
  EXPECT_EQ(count, 2);
  b.stop();
  s.run_until(msec(100));
  EXPECT_EQ(count, 2);
}

TEST(Periodic, MoveAssignmentStopsReplacedTask) {
  Simulator s;
  int fast = 0;
  int slow = 0;
  Periodic target(s, msec(1), msec(1), [&] { ++fast; });
  Periodic replacement(s, msec(10), msec(10), [&] { ++slow; });
  target = std::move(replacement);
  s.run_until(msec(50));
  EXPECT_EQ(fast, 0);  // the replaced task never fires
  EXPECT_EQ(slow, 5);  // t = 10, 20, 30, 40, 50
}

TEST(SimScheduler, AdaptsSimulator) {
  Simulator s;
  SimScheduler sched(s);
  EXPECT_EQ(sched.now(), 0);
  bool fired = false;
  const EventId id = sched.schedule_after(msec(5), [&] { fired = true; });
  EXPECT_GT(id, 0u);
  s.run_until(msec(10));
  EXPECT_TRUE(fired);
  EXPECT_EQ(sched.now(), msec(10));
}

}  // namespace
}  // namespace eden::sim
