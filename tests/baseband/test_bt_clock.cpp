#include "baseband/bt_clock.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/environment.hpp"
#include "sim/rng.hpp"
#include "sim/snapshot.hpp"

namespace btsc::baseband {
namespace {

using namespace btsc::sim::literals;
using btsc::sim::Environment;
using btsc::sim::Rng;
using btsc::sim::SimTime;

TEST(NativeClockTest, TickPeriodIsHalfSlot) {
  EXPECT_EQ(kTickPeriod * 2, kSlotDuration);
  EXPECT_EQ(kTickPeriod.as_ns(), 312'500u);
}

TEST(NativeClockTest, CountsTicks) {
  Environment env;
  NativeClock clk(env, "clkn");
  env.run_until(SimTime::ms(10));
  // 10 ms / 312.5 us = 32 ticks.
  EXPECT_EQ(clk.ticks(), 32u);
  EXPECT_EQ(clk.clkn(), 32u);
}

TEST(NativeClockTest, InitialValueRespected) {
  Environment env;
  NativeClock clk(env, "clkn", 100);
  EXPECT_EQ(clk.clkn(), 100u);
  env.run_until(kTickPeriod);
  EXPECT_EQ(clk.clkn(), 101u);
}

TEST(NativeClockTest, WrapsAt28Bits) {
  Environment env;
  NativeClock clk(env, "clkn", kClockMask);  // max value
  env.run_until(kTickPeriod);
  EXPECT_EQ(clk.clkn(), 0u);
}

TEST(NativeClockTest, PhaseOffsetShiftsTickGrid) {
  Environment env;
  NativeClock early(env, "early", 0, SimTime::us(100));
  NativeClock late(env, "late", 0, SimTime::us(200));
  env.run_until(SimTime::us(150));
  EXPECT_EQ(early.clkn(), 1u);
  EXPECT_EQ(late.clkn(), 0u);
}

TEST(NativeClockTest, TickEventFiresAfterIncrement) {
  Environment env;
  NativeClock clk(env, "clkn", 7);
  std::vector<std::uint32_t> seen;
  clk.set_listener([&] { seen.push_back(clk.clkn()); });
  env.run_until(kTickPeriod * 3);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], 8u);
  EXPECT_EQ(seen[2], 10u);
}

// At a tick instant the listener runs inside the clock's wake timer:
// after the timers queued for that instant ahead of the wake, before
// those queued after it, and before the work it schedules itself.
TEST(NativeClockTest, ListenerRunsInsideWakeTimer) {
  Environment env;
  NativeClock clk(env, "clkn");
  const SimTime tick2 = kTickPeriod * 2;  // its wake is queued at tick 1
  std::vector<std::string> order;
  env.schedule(tick2, [&] { order.push_back("earlier"); });
  // Half a tick after tick 1, once the wake is queued.
  env.schedule(SimTime::ns(468'750), [&] {
    env.schedule(tick2 - env.now(), [&] { order.push_back("later"); });
  });
  clk.set_listener([&] {
    if (env.now() != tick2) return;
    order.push_back("listener");
    env.schedule(SimTime::zero(), [&] { order.push_back("scheduled"); });
  });
  env.run_until(tick2);
  EXPECT_EQ(order, (std::vector<std::string>{"earlier", "listener", "later",
                                             "scheduled"}));
}

TEST(NativeClockTest, LastTickTime) {
  Environment env;
  NativeClock clk(env, "clkn", 0, SimTime::us(50));
  env.run_until(SimTime::ms(1));
  // Ticks at 50us, 362.5us, 675us, 987.5us.
  EXPECT_EQ(clk.last_tick_time(), SimTime::ns(987'500));
}

TEST(ClockOffsetTest, OffsetArithmetic) {
  EXPECT_EQ(clock_offset(10, 15), 5u);
  EXPECT_EQ(clock_offset(15, 10), (kClockMask - 4) & kClockMask);
  const std::uint32_t clkn = 0x0FFFFFF0u;
  const std::uint32_t target = 0x00000010u;
  EXPECT_EQ((clkn + clock_offset(clkn, target)) & kClockMask, target);
}

TEST(NativeClockTest, TwoClocksDriftFree) {
  // Same nominal rate: two clocks stay at a constant counter distance.
  Environment env;
  NativeClock a(env, "a", 0, SimTime::us(10));
  NativeClock b(env, "b", 1000, SimTime::us(10));
  env.run_until(SimTime::sec(1));
  EXPECT_EQ(b.clkn() - a.clkn(), 1000u);
}

TEST(NativeClockTest, WakeNotifiesRequestedTicksOnly) {
  Environment env;
  NativeClock clk(env, "clkn", 100);
  std::vector<std::uint32_t> seen;
  clk.set_listener([&] { seen.push_back(clk.clkn()); });
  clk.wake(3, 4);
  env.run_until(kTickPeriod * 12);
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{103, 107, 111}));
  clk.sleep();
  env.run_until(kTickPeriod * 40);
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_EQ(clk.clkn(), 140u);  // the counter runs on while asleep
  // A sleeping clock stays asleep across a phase reset.
  clk.reset_phase(5, SimTime::us(10));
  env.run_until(kTickPeriod * 50);
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_EQ(clk.ticks(), 10u);
}

// ---- analytic clock vs a ticked reference ----------------------------------

/// The counter NativeClock used to keep: incremented by a chain of
/// 312.5 us timers. Each tick schedules its successor before anything
/// else, so a read that a tick callback schedules for a later tick
/// instant fires after that instant's increment -- the analytic clock's
/// "a tick counts from its own instant" convention.
class TickedReference {
 public:
  TickedReference(Environment& env, std::uint32_t initial, SimTime first_delay)
      : env_(env) {
    restart(initial, first_delay);
  }

  void restart(std::uint32_t initial, SimTime first_delay) {
    env_.cancel(timer_);
    value_ = initial & kClockMask;
    ticks_ = 0;
    last_ = SimTime::zero();
    schedule(first_delay);
  }

  std::uint32_t value() const { return value_; }
  std::uint64_t ticks() const { return ticks_; }
  SimTime last() const { return last_; }
  /// Instant of the next, still queued tick.
  SimTime next() const { return next_; }

  /// Runs inside every tick callback, after the increment.
  std::function<void()> on_tick;

 private:
  void schedule(SimTime delay) {
    next_ = env_.now() + delay;
    timer_ = env_.schedule(delay, [this] { tick(); });
  }
  void tick() {
    value_ = (value_ + 1) & kClockMask;
    ++ticks_;
    last_ = env_.now();
    schedule(kTickPeriod);
    if (on_tick) on_tick();
  }

  Environment& env_;
  btsc::sim::TimerId timer_ = btsc::sim::kInvalidTimer;
  std::uint32_t value_ = 0;
  std::uint64_t ticks_ = 0;
  SimTime last_;
  SimTime next_;
};

void expect_same(const NativeClock& clk, const TickedReference& ref) {
  ASSERT_EQ(clk.clkn(), ref.value());
  ASSERT_EQ(clk.ticks(), ref.ticks());
  ASSERT_EQ(clk.last_tick_time(), ref.last());
}

/// A start value within a few ticks of the 28-bit wrap, or anywhere.
std::uint32_t draw_start(Rng& rng) {
  return rng.uniform(0, 1) == 0
             ? kClockMask - static_cast<std::uint32_t>(rng.uniform(0, 64))
             : static_cast<std::uint32_t>(rng.uniform(0, kClockMask));
}

/// A first-tick phase: whole microseconds as randomize_slave_clocks draws
/// them, or any nanosecond up to two tick periods.
SimTime draw_phase(Rng& rng) {
  return rng.uniform(0, 1) == 0 ? SimTime::us(rng.uniform(1, 1249))
                                : SimTime::ns(rng.uniform(1, 625'000));
}

TEST(NativeClockDifferential, MatchesTickedReferenceAcrossWrapAndReset) {
  Rng rng(20261017);
  for (int trial = 0; trial < 100; ++trial) {
    SCOPED_TRACE(trial);
    Environment env;
    const std::uint32_t start = draw_start(rng);
    const SimTime phase = draw_phase(rng);
    NativeClock clk(env, "clkn", start, phase);
    TickedReference ref(env, start, phase);

    // Reads at exact tick instants, from timed callbacks a tick
    // schedules for the next one; a reset retires the pending ones.
    std::uint64_t epoch = 0;
    std::uint64_t exact_reads = 0;
    const auto read_at_next_tick = [&](SimTime delay) {
      env.schedule(delay, [&, e = epoch] {
        if (e != epoch) return;
        expect_same(clk, ref);
        ++exact_reads;
      });
    };
    read_at_next_tick(phase);
    ref.on_tick = [&] { read_at_next_tick(kTickPeriod); };

    // Reads at random instants; one that lands on a tick instant whose
    // reference increment is still queued is skipped.
    std::function<void()> random_read = [&] {
      if (ref.next() != env.now()) expect_same(clk, ref);
      env.schedule(SimTime::ns(rng.uniform(1, 400'000)), random_read);
    };
    env.schedule(SimTime::ns(rng.uniform(0, 400'000)), random_read);

    // The listener (every tick by default) runs at the tick instant,
    // inside the clock's wake timer. That timer is queued ahead of the
    // reference's increment, so clkn() counts a tick the reference has
    // yet to count. One call per reference tick.
    std::uint64_t tick_calls = 0;
    std::uint64_t ref_ticks_before_reset = 0;
    clk.set_listener([&] {
      ASSERT_EQ(ref.next(), env.now());
      ASSERT_EQ(clk.clkn(), (ref.value() + 1) & kClockMask);
      ASSERT_EQ(clk.ticks(), ref.ticks() + 1);
      ASSERT_EQ(clk.last_tick_time(), env.now());
      ++tick_calls;
    });

    // reset_phase mid-run, as randomize_slave_clocks does it.
    const std::uint32_t start2 = draw_start(rng);
    const SimTime phase2 = draw_phase(rng);
    env.schedule(SimTime::ns(rng.uniform(1'000'000, 15'000'000)), [&] {
      ref_ticks_before_reset = ref.ticks();
      clk.reset_phase(start2, phase2);
      ref.restart(start2, phase2);
      ++epoch;
      read_at_next_tick(phase2);
    });

    env.run_until(SimTime::ms(40));
    expect_same(clk, ref);
    EXPECT_GT(exact_reads, 100u);
    EXPECT_EQ(tick_calls, ref_ticks_before_reset + ref.ticks());
  }
}

TEST(NativeClockDifferential, RestoreMidHalfSlotMatchesTickedReference) {
  Rng rng(61);
  for (int trial = 0; trial < 50; ++trial) {
    SCOPED_TRACE(trial);
    const std::uint32_t start = draw_start(rng);
    const SimTime phase = draw_phase(rng);
    // Checkpoint a clock strictly inside a half slot.
    const SimTime at = phase + kTickPeriod * rng.uniform(0, 40) +
                       SimTime::ns(rng.uniform(1, 312'499));
    Environment a;
    NativeClock saved(a, "clkn", start, phase);
    a.run_until(at);
    btsc::sim::SnapshotWriter w;
    saved.save_state(w);
    a.save_state(w);
    const std::vector<std::uint8_t> image = w.take();

    // Restore it into a clock constructed with other arguments.
    Environment b;
    NativeClock clk(b, "clkn", 12345, SimTime::us(77));
    std::uint64_t tick_calls = 0;
    clk.set_listener([&] { ++tick_calls; });
    btsc::sim::SnapshotReader r(image);
    clk.restore_state(r);
    b.restore_state(r);
    ASSERT_TRUE(r.at_end());

    // Against a reference that ran uninterrupted from time zero, at
    // every tick instant and at a random instant inside each half slot.
    Environment c;
    TickedReference ref(c, start, phase);
    c.run_until(at);
    expect_same(clk, ref);
    const std::uint64_t ref_ticks_at_restore = ref.ticks();
    for (int k = 0; k < 80; ++k) {
      SimTime t = ref.next();
      if (k % 2 == 1) t = t - SimTime::ns(rng.uniform(1, 312'499));
      b.run_until(t);
      c.run_until(t);
      expect_same(clk, ref);
    }
    EXPECT_EQ(tick_calls, ref.ticks() - ref_ticks_at_restore);
  }
}

}  // namespace
}  // namespace btsc::baseband
