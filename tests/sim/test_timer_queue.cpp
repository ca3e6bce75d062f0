// Timed-queue semantics: exact (when, seq) dispatch order against a
// std::set reference under seeded schedule/cancel storms, true removal on
// cancel, and the kernel's zero-allocation steady-state contract (counted
// via a global operator new hook).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <set>
#include <utility>
#include <vector>

#include "baseband/bt_clock.hpp"
#include "sim/environment.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

// GCC's -Wmismatched-new-delete heuristic flags the malloc/free pair it
// can see through this replaced allocator; the pairing is the standard
// counting-hook idiom and is correct (new -> malloc, delete -> free).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

#pragma GCC diagnostic pop

namespace btsc::sim {
namespace {

using namespace btsc::sim::literals;

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

// ---- model-based ordering against a std::set reference ----

/// One firing: which timer (by label, its schedule index) and when.
struct Firing {
  std::size_t label;
  std::uint64_t ns;
  bool operator==(const Firing&) const = default;
};

constexpr int kOwners = 3;
constexpr std::size_t kMaxLabels = 4000;

/// Draws the storm's next actions -- `n` schedules, then maybe a cancel
/// and an owner sweep -- after a firing at `now_ns` (or at t = 0 to seed
/// the storm) and applies them to `q`, which is either the real
/// Environment or the reference. Both runs consume the same seeded stream
/// in firing order, so any ordering difference shows up as diverging
/// firing sequences. Delays mix colliding instants (a coarse 1.25 ms
/// grid every timer of the kind lands on), off-grid nanoseconds, far
/// timers (seconds out) and zero delays from inside callbacks; cancels
/// pick any label ever issued, so many are stale (fired or already
/// canceled). Each firing schedules 0..3 more until kMaxLabels have been
/// issued; then the queue drains.
template <typename Q>
void storm_step(Rng& rng, std::uint64_t now_ns, Q& q, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n && q.labels() < kMaxLabels; ++i) {
    std::uint64_t delay = 0;
    switch (rng.uniform(0, 3)) {
      case 0: {  // colliding: next points of a shared 1.25 ms grid
        const std::uint64_t grid = 1'250'000;
        delay = (now_ns / grid + rng.uniform(1, 4)) * grid - now_ns;
        break;
      }
      case 1:  // off-grid
        delay = rng.uniform(1, 5'000);
        break;
      case 2:  // far
        delay = rng.uniform(2, 30) * 1'000'000'000;
        break;
      default:  // same instant, after every live sibling
        delay = 0;
        break;
    }
    const int owner = static_cast<int>(rng.uniform(0, kOwners));
    q.schedule(delay, owner);  // owner == kOwners: untagged
  }
  if (q.labels() != 0 && rng.bernoulli(0.4)) {
    q.cancel(static_cast<std::size_t>(rng.uniform(0, q.labels() - 1)));
  }
  if (rng.bernoulli(0.02)) {
    q.cancel_owned(static_cast<int>(rng.uniform(0, kOwners - 1)));
  }
}

/// Schedules per firing: 0..3, more than cancels remove, so the storm
/// grows until kMaxLabels.
template <typename Q>
void storm_fire(Rng& rng, std::uint64_t now_ns, Q& q) {
  storm_step(rng, now_ns, q, rng.uniform(0, 3));
}

constexpr std::uint64_t kSeedTimers = 32;

/// The reference: an ordered set of (when, seq) keys. seq is the label,
/// since labels are issued in schedule order.
class SetReference {
 public:
  explicit SetReference(std::uint64_t seed) : rng_(seed) {}

  std::size_t labels() const { return owners_.size(); }
  void schedule(std::uint64_t delay, int owner) {
    const Key key{now_ + delay, owners_.size()};
    keys_.insert(key);
    key_of_.push_back(key);
    owners_.push_back(owner);
  }
  void cancel(std::size_t label) { canceled_ += keys_.erase(key_of_[label]); }
  void cancel_owned(int owner) {
    for (auto it = keys_.begin(); it != keys_.end();) {
      if (owners_[it->second] == owner) {
        it = keys_.erase(it);
        ++canceled_;
      } else {
        ++it;
      }
    }
  }

  std::vector<Firing> run() {
    storm_step(rng_, 0, *this, kSeedTimers);
    std::vector<Firing> fired;
    while (!keys_.empty()) {
      const auto [when, label] = *keys_.begin();
      keys_.erase(keys_.begin());
      now_ = when;
      fired.push_back({label, when});
      storm_fire(rng_, now_, *this);
    }
    return fired;
  }

  std::uint64_t canceled() const { return canceled_; }

 private:
  Rng rng_;
  std::uint64_t now_ = 0;
  using Key = std::pair<std::uint64_t, std::size_t>;
  std::set<Key> keys_;
  std::vector<Key> key_of_;
  std::vector<int> owners_;
  std::uint64_t canceled_ = 0;
};

/// The same storm on the kernel's timed queue.
class EnvStorm {
 public:
  explicit EnvStorm(std::uint64_t seed) : rng_(seed) {}

  std::size_t labels() const { return ids_.size(); }
  void schedule(std::uint64_t delay, int owner) {
    const std::size_t label = ids_.size();
    ids_.push_back(env_.schedule(
        SimTime::ns(delay),
        [this, label] {
          fired_.push_back({label, env_.now().as_ns()});
          storm_fire(rng_, env_.now().as_ns(), *this);
        },
        owner < kOwners ? &tags_[owner] : nullptr));
  }
  void cancel(std::size_t label) { env_.cancel(ids_[label]); }
  void cancel_owned(int owner) { env_.cancel_owned(&tags_[owner]); }

  std::vector<Firing> run() {
    storm_step(rng_, 0, *this, kSeedTimers);
    env_.run_until(SimTime::max());
    return fired_;
  }

  const Environment& env() const { return env_; }

 private:
  Rng rng_;
  Environment env_;
  std::vector<TimerId> ids_;
  std::vector<Firing> fired_;
  const char tags_[kOwners] = {};
};

TEST(TimerQueueTest, SeededStormMatchesSetReference) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    SetReference ref(seed);
    EnvStorm storm(seed);
    const std::vector<Firing> want = ref.run();
    const std::vector<Firing> got = storm.run();
    ASSERT_GT(want.size(), kMaxLabels / 2);
    EXPECT_EQ(got, want);
    const auto s = storm.env().scheduler_stats();
    EXPECT_EQ(s.scheduled, storm.labels());
    EXPECT_EQ(s.fired, want.size());
    EXPECT_EQ(s.canceled, ref.canceled());
    EXPECT_EQ(s.scheduled, s.fired + s.canceled);
    EXPECT_TRUE(storm.env().idle());
  }
}

// ---- same-instant order and cancellation ----

TEST(TimerQueueTest, ZeroDelayFromCallbackFiresSameInstantInSeqOrder) {
  Environment env;
  std::vector<int> order;
  env.schedule(baseband::kTickPeriod, [&] {
    order.push_back(1);
    env.schedule(SimTime::zero(), [&] { order.push_back(3); });
  });
  env.schedule(baseband::kTickPeriod, [&] { order.push_back(2); });
  env.run_until(baseband::kTickPeriod);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(env.now(), baseband::kTickPeriod);
}

TEST(TimerQueueTest, CancelIsTrueRemoval) {
  Environment env;
  bool ran = false;
  const TimerId id = env.schedule(baseband::kTickPeriod, [&] { ran = true; });
  EXPECT_TRUE(env.pending(id));
  env.cancel(id);
  EXPECT_FALSE(env.pending(id));
  EXPECT_TRUE(env.idle());  // no dead entry left in the queue
  env.run_until(1_ms);
  EXPECT_FALSE(ran);
  EXPECT_EQ(env.scheduler_stats().fired, 0u);
  EXPECT_EQ(env.scheduler_stats().canceled, 1u);
}

TEST(TimerQueueTest, CancelMiddleOfSameInstantKeepsSiblings) {
  Environment env;
  std::vector<int> order;
  TimerId ids[3];
  for (int i = 0; i < 3; ++i) {
    ids[i] = env.schedule(baseband::kSlotDuration, [&order, i] {
      order.push_back(i);
    });
  }
  env.cancel(ids[1]);
  env.run_until(1_ms);
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
  EXPECT_TRUE(env.idle());
}

TEST(TimerQueueTest, CanceledEntryDestroysCapturedState) {
  Environment env;
  auto alive = std::make_shared<int>(1);
  std::weak_ptr<int> watch = alive;
  const TimerId id =
      env.schedule(baseband::kTickPeriod, [keep = std::move(alive)] {
        (void)*keep;
      });
  EXPECT_FALSE(watch.expired());
  env.cancel(id);
  // True cancellation destroys the capture immediately, not at slot
  // reuse or environment teardown.
  EXPECT_TRUE(watch.expired());
}

// ---- zero-allocation steady state ----

TEST(TimerQueueTest, SteadyStateChurnPerformsZeroAllocations) {
  Environment env;
  std::uint64_t fired = 0;
  // Warm-up: reach peak slab/heap footprint (slab slots, heap array,
  // free list) so the steady-state loop below reuses everything.
  std::vector<TimerId> guards(8, kInvalidTimer);
  auto churn_round = [&] {
    for (TimerId id : guards) env.cancel(id);
    for (int g = 0; g < 8; ++g) {
      guards[static_cast<std::size_t>(g)] =
          env.schedule(baseband::kTickPeriod * (2 + g), [&fired] { ++fired; });
    }
    env.schedule(33_ns, [&fired] { ++fired; });
    env.run(baseband::kTickPeriod);
  };
  for (int i = 0; i < 64; ++i) churn_round();
  // Steady state: schedule/fire/cancel must not touch the global
  // allocator at all.
  const auto before = allocs();
  for (int i = 0; i < 1024; ++i) churn_round();
  EXPECT_EQ(allocs(), before);
  EXPECT_GT(fired, 0u);
}

}  // namespace
}  // namespace btsc::sim
