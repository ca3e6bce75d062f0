// Kernel scheduler semantics: timed callbacks, delta cycles, cancellation,
// determinism. These tests pin down the evaluate/update contract that all
// Bluetooth models rely on.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim/environment.hpp"
#include "sim/event.hpp"
#include "sim/time.hpp"

namespace btsc::sim {
namespace {

using namespace btsc::sim::literals;

TEST(SchedulerTest, StartsAtTimeZero) {
  Environment env;
  EXPECT_EQ(env.now(), SimTime::zero());
}

TEST(SchedulerTest, ScheduleRunsAtRequestedTime) {
  Environment env;
  SimTime fired = SimTime::max();
  env.schedule(10_us, [&] { fired = env.now(); });
  env.run_until(1_ms);
  EXPECT_EQ(fired, 10_us);
}

TEST(SchedulerTest, RunUntilAdvancesToBoundWhenIdle) {
  Environment env;
  env.run_until(5_ms);
  EXPECT_EQ(env.now(), 5_ms);
}

TEST(SchedulerTest, EventsFireInTimeOrder) {
  Environment env;
  std::vector<int> order;
  env.schedule(30_us, [&] { order.push_back(3); });
  env.schedule(10_us, [&] { order.push_back(1); });
  env.schedule(20_us, [&] { order.push_back(2); });
  env.run_until(1_ms);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SchedulerTest, SameTimeCallbacksFifoOrder) {
  Environment env;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    env.schedule(10_us, [&, i] { order.push_back(i); });
  }
  env.run_until(1_ms);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SchedulerTest, NestedSchedulingFromCallback) {
  Environment env;
  std::vector<std::uint64_t> times;
  std::function<void()> chain = [&] {
    times.push_back(env.now().as_ns());
    if (times.size() < 4) env.schedule(100_ns, chain);
  };
  env.schedule(0_ns, chain);
  env.run_until(1_us);
  EXPECT_EQ(times, (std::vector<std::uint64_t>{0, 100, 200, 300}));
}

TEST(SchedulerTest, ZeroDelayCallbackRunsAtSameTimeLater) {
  Environment env;
  bool inner = false;
  env.schedule(5_us, [&] {
    env.schedule(0_ns, [&] { inner = true; });
  });
  env.run_until(5_us);
  EXPECT_TRUE(inner);
  EXPECT_EQ(env.now(), 5_us);
}

TEST(SchedulerTest, CancelPreventsExecution) {
  Environment env;
  bool ran = false;
  const TimerId id = env.schedule(10_us, [&] { ran = true; });
  env.cancel(id);
  env.run_until(1_ms);
  EXPECT_FALSE(ran);
}

TEST(SchedulerTest, CancelAfterFireIsSafe) {
  Environment env;
  bool ran = false;
  const TimerId id = env.schedule(10_us, [&] { ran = true; });
  env.run_until(1_ms);
  EXPECT_TRUE(ran);
  env.cancel(id);  // must not crash or affect anything
}

TEST(SchedulerTest, RunUntilDoesNotExecuteBeyondBound) {
  Environment env;
  bool late = false;
  env.schedule(2_ms, [&] { late = true; });
  env.run_until(1_ms);
  EXPECT_FALSE(late);
  EXPECT_EQ(env.now(), 1_ms);
  env.run_until(3_ms);
  EXPECT_TRUE(late);
}

TEST(SchedulerTest, RunDurationIsRelative) {
  Environment env;
  env.run(1_ms);
  env.run(1_ms);
  EXPECT_EQ(env.now(), 2_ms);
}

TEST(SchedulerTest, IdleReflectsPendingWork) {
  Environment env;
  EXPECT_TRUE(env.idle());
  env.schedule(1_us, [] {});
  EXPECT_FALSE(env.idle());
  env.run_until(1_ms);
  EXPECT_TRUE(env.idle());
}

TEST(SchedulerTest, DeltaNotifyRunsProcessWithoutTimeAdvance) {
  Environment env;
  Event ev(env);
  SimTime when = SimTime::max();
  Process& p = env.register_process([&] { when = env.now(); });
  ev.add_sensitive(p);
  env.schedule(7_us, [&] { ev.notify_delta(); });
  env.run_until(1_ms);
  EXPECT_EQ(when, 7_us);
}

TEST(SchedulerTest, ProcessNotQueuedTwicePerDelta) {
  Environment env;
  Event a(env), b(env);
  int runs = 0;
  Process& p = env.register_process([&] { runs++; });
  a.add_sensitive(p);
  b.add_sensitive(p);
  env.schedule(1_us, [&] {
    a.notify_delta();
    b.notify_delta();
  });
  env.run_until(1_ms);
  EXPECT_EQ(runs, 1);
}

TEST(SchedulerTest, ActivationAndDeltaCountersAdvance) {
  Environment env;
  Event ev(env);
  Process& p = env.register_process([] {});
  ev.add_sensitive(p);
  const auto d0 = env.delta_count();
  const auto a0 = env.process_activations();
  env.schedule(1_us, [&] { ev.notify_delta(); });
  env.run_until(1_ms);
  EXPECT_GT(env.delta_count(), d0);
  EXPECT_EQ(env.process_activations(), a0 + 1);
}

// ---- true-cancellation semantics of the intrusive-heap timed queue ----

TEST(SchedulerTest, IdleTrueWhenOnlyCanceledTimersRemain) {
  Environment env;
  const TimerId id = env.schedule(10_us, [] {});
  EXPECT_FALSE(env.idle());
  env.cancel(id);
  // Regression: the old kernel left a dead queue entry behind, so idle()
  // reported pending work that could never execute.
  EXPECT_TRUE(env.idle());
}

TEST(SchedulerTest, RunUntilSkipsFullyCanceledInstants) {
  Environment env;
  const TimerId id = env.schedule(10_us, [] {});
  env.cancel(id);
  env.run_until(1_ms);
  EXPECT_EQ(env.now(), 1_ms);
  // Regression: the old kernel advanced now_ through the ghost timestamp
  // and dispatched a no-op pop there. Nothing may fire at all now.
  EXPECT_EQ(env.scheduler_stats().fired, 0u);
}

TEST(SchedulerTest, CancelIsNoOpAfterFireEvenWhenSlotIsReused) {
  Environment env;
  bool first = false, second = false;
  const TimerId id1 = env.schedule(1_us, [&] { first = true; });
  env.run_until(2_us);
  EXPECT_TRUE(first);
  // The new timer recycles id1's slab slot; the stale handle must not
  // reach it (slot generations).
  const TimerId id2 = env.schedule(1_us, [&] { second = true; });
  EXPECT_NE(id1, id2);
  env.cancel(id1);
  EXPECT_TRUE(env.pending(id2));
  env.run_until(10_us);
  EXPECT_TRUE(second);
}

TEST(SchedulerTest, CancelSameInstantSiblingFromInsideCallback) {
  Environment env;
  bool sibling_ran = false, later_ran = false;
  TimerId sibling = kInvalidTimer;
  env.schedule(5_us, [&] { env.cancel(sibling); });
  sibling = env.schedule(5_us, [&] { sibling_ran = true; });
  env.schedule(5_us, [&] { later_ran = true; });
  env.run_until(1_ms);
  EXPECT_FALSE(sibling_ran);  // removed mid-instant, before its turn
  EXPECT_TRUE(later_ran);     // FIFO order of the survivors is preserved
  EXPECT_TRUE(env.idle());
}

TEST(SchedulerTest, PendingTracksTimerLifecycle) {
  Environment env;
  EXPECT_FALSE(env.pending(kInvalidTimer));
  const TimerId fires = env.schedule(10_us, [] {});
  const TimerId dies = env.schedule(10_us, [] {});
  EXPECT_TRUE(env.pending(fires));
  EXPECT_TRUE(env.pending(dies));
  env.cancel(dies);
  EXPECT_FALSE(env.pending(dies));
  env.run_until(20_us);
  EXPECT_FALSE(env.pending(fires));
}

TEST(SchedulerTest, CancelOwnedRemovesOnlyThatOwnersTimers) {
  Environment env;
  int mine = 0, other = 0;
  const int owner_a = 0, owner_b = 0;  // distinct addresses as tags
  env.schedule(10_us, [&] { ++mine; }, &owner_a);
  env.schedule(20_us, [&] { ++mine; }, &owner_a);
  const TimerId keep = env.schedule(30_us, [&] { ++other; }, &owner_b);
  env.schedule(40_us, [&] { ++other; });  // untagged
  env.cancel_owned(&owner_a);
  EXPECT_TRUE(env.pending(keep));
  env.run_until(1_ms);
  EXPECT_EQ(mine, 0);
  EXPECT_EQ(other, 2);
  EXPECT_TRUE(env.idle());
}

TEST(SchedulerTest, SchedulerStatsCountLifecycle) {
  Environment env;
  const TimerId canceled = env.schedule(1_us, [] {});
  env.schedule(2_us, [] {});
  env.cancel(canceled);
  env.cancel(canceled);  // stale handle: a counted no-op
  env.run_until(1_ms);
  const Environment::SchedulerStats s = env.scheduler_stats();
  EXPECT_EQ(s.scheduled, 2u);
  EXPECT_EQ(s.fired, 1u);
  EXPECT_EQ(s.canceled, 1u);
  EXPECT_EQ(s.cancels_after_fire, 1u);
  EXPECT_EQ(s.live, 0u);
  EXPECT_EQ(s.peak_live, 2u);
  EXPECT_EQ(s.peak_depth, 2u);  // 4-ary heap: 2 entries span 2 levels
}

TEST(SchedulerTest, ScheduleCancelChurnQueueGrowthBounded) {
  Environment env;
  // 10k schedules in schedule/cancel storms: a kernel that only forgets
  // the callback on cancel grows its queue by one dead entry per cancel
  // and fails the peak assertion below.
  std::uint64_t fired = 0;
  for (int round = 0; round < 2500; ++round) {
    TimerId guards[3];
    for (int g = 0; g < 3; ++g) {
      guards[g] = env.schedule(SimTime::us(50 + g), [] {});
    }
    env.schedule(SimTime::us(10), [&fired] { ++fired; });  // survivor
    for (TimerId id : guards) env.cancel(id);
    env.run(SimTime::us(20));  // survivor fires; guards are gone
  }
  const Environment::SchedulerStats s = env.scheduler_stats();
  EXPECT_EQ(fired, 2500u);
  EXPECT_EQ(s.scheduled, 10000u);
  EXPECT_EQ(s.canceled, 7500u);
  EXPECT_EQ(s.live, 0u);
  EXPECT_LE(s.peak_live, 4u);
  EXPECT_TRUE(env.idle());
}

TEST(SchedulerTest, ManyTimersStressOrdering) {
  Environment env;
  std::vector<std::uint64_t> fired;
  // Schedule in a scrambled deterministic order.
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t t = (i * 7919) % 1000;
    env.schedule(SimTime::us(t), [&fired, &env] {
      fired.push_back(env.now().as_ns());
    });
  }
  env.run_until(1_sec);
  ASSERT_EQ(fired.size(), 1000u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1], fired[i]);
  }
}

TEST(SchedulerTest, StressOrderingSurvivesInterleavedCancels) {
  Environment env;
  // Scrambled schedule order with heavy same-time collisions, then every
  // third timer canceled: survivors must still fire in (time, schedule
  // order) -- removal must not disturb the heap's FIFO tiebreak.
  std::vector<std::pair<std::uint64_t, int>> fired;
  std::vector<TimerId> ids;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t t = (static_cast<std::uint64_t>(i) * 7919) % 97;
    ids.push_back(env.schedule(SimTime::us(t), [&fired, &env, i] {
      fired.push_back({env.now().as_ns(), i});
    }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 3) env.cancel(ids[i]);
  env.run_until(1_sec);
  ASSERT_EQ(fired.size(), 666u);
  for (std::size_t k = 1; k < fired.size(); ++k) {
    EXPECT_LE(fired[k - 1].first, fired[k].first);
    if (fired[k - 1].first == fired[k].first) {
      EXPECT_LT(fired[k - 1].second, fired[k].second);
    }
  }
  EXPECT_TRUE(env.idle());
}

}  // namespace
}  // namespace btsc::sim
