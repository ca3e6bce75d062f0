// The Bluetooth native clock (CLKN).
//
// A free-running 28-bit counter ticking at 3.2 kHz (every 312.5 us), i.e.
// twice per 625 us time slot: bit 0 distinguishes the two half slots, bit
// 1 the master-to-slave vs slave-to-master slot, and the counter wraps
// roughly once a day. Every device owns an independent CLKN with its own
// start value; the piconet clock CLK of a slave is CLKN plus an offset
// learned during paging.
//
// The counter is a function of time: clkn() is the start value plus the
// ticks elapsed since the first-tick instant, so reading it costs a
// subtraction and a division and no timer fires to keep it current. A
// tick is counted from its own instant on: every read at a tick instant,
// whatever its place among that instant's timed callbacks, sees the
// incremented value.
//
// The clock calls its one listener only on the ticks the listener asks
// for through wake() (by default every tick): one tagged timer per
// requested tick, whose callback queues the next requested tick and then
// calls the listener, at the tick instant. Timers already queued for
// that instant ahead of the wake run before the listener; work the
// listener schedules there runs after it. The link controller is the
// listener and requests exactly the ticks its current state acts on
// (see link_controller.hpp).
#pragma once

#include <cstdint>
#include <string>

#include "sim/module.hpp"
#include "sim/snapshot.hpp"
#include "sim/time.hpp"
#include "sim/timer_queue.hpp"
#include "sim/unique_function.hpp"

namespace btsc::baseband {

inline constexpr std::uint32_t kClockMask = 0x0FFFFFFFu;  // 28 bits
/// Native clock tick period: 312.5 us (half a time slot).
inline constexpr sim::SimTime kTickPeriod = sim::SimTime::ns(312'500);
/// One time slot: 625 us.
inline constexpr sim::SimTime kSlotDuration = sim::SimTime::us(625);

class NativeClock final : public sim::Module,
                          public sim::Snapshotable,
                          public sim::RearmHandler {
 public:
  /// The counter starts at `initial`; the first increment happens
  /// `first_tick_delay` after construction (use a random phase to model
  /// unsynchronised devices). The listener is called on every tick until
  /// wake() or sleep() says otherwise.
  NativeClock(sim::Environment& env, std::string name,
              std::uint32_t initial = 0,
              sim::SimTime first_tick_delay = kTickPeriod);
  ~NativeClock() override;

  /// Number of ticks from the first-tick instant up to and including now.
  std::uint64_t ticks() const {
    const sim::SimTime now = env().now();
    return now < first_tick_ ? 0 : (now - first_tick_) / kTickPeriod + 1;
  }

  /// Current native clock value.
  std::uint32_t clkn() const { return clkn_at_tick(ticks()); }

  /// Clock value once `tick` ticks (ticks() numbering) have elapsed.
  std::uint32_t clkn_at_tick(std::uint64_t tick) const {
    return (start_ + static_cast<std::uint32_t>(tick)) & kClockMask;
  }

  /// Simulation time of the most recent tick (start of current half
  /// slot); zero before the first tick.
  sim::SimTime last_tick_time() const {
    const std::uint64_t n = ticks();
    return n == 0 ? sim::SimTime::zero() : tick_time(n);
  }

  /// Installs the one listener, called on the requested ticks from the
  /// wake timer at the tick instant (clkn() already includes the tick),
  /// after the next requested tick is queued.
  void set_listener(sim::UniqueFunction fn) { listener_ = std::move(fn); }

  /// Calls the listener on tick `first` (ticks() numbering; its instant
  /// must not lie in the past) and on every `stride`-th tick after it,
  /// replacing the previous request. Re-requesting the pending schedule
  /// keeps its timer, so its place among same-instant timers holds.
  void wake(std::uint64_t first, std::uint32_t stride);

  /// Stops calling the listener until the next wake().
  void sleep();

  /// Re-randomisation hook for forked replications: restarts the counter
  /// at `initial` and the phase at `first_tick_delay` from the current
  /// time -- the counter a fresh construction with these arguments would
  /// have. A sleeping clock stays asleep; a waking one is woken on every
  /// tick of the new timeline until its listener re-requests.
  void reset_phase(std::uint32_t initial, sim::SimTime first_tick_delay);

  // Snapshotable
  void save_state(sim::SnapshotWriter& w) const override;
  void restore_state(sim::SnapshotReader& r) override;

  // RearmHandler
  void rearm_timer(std::uint16_t kind, std::uint64_t payload,
                   sim::SimTime when) override;

 private:
  /// The checkpoint layout, shared by save_state and restore_state.
  template <class Self, class Ar>
  static void io(Self& s, Ar& a);

  /// Timer descriptor kinds (see schedule_tagged). The payload of a
  /// kWake timer is the stride; its instant gives the tick.
  enum Kind : std::uint16_t { kWake = 1 };

  /// Simulation time of tick `tick` (ticks() numbering, from 1).
  sim::SimTime tick_time(std::uint64_t tick) const {
    return first_tick_ + kTickPeriod * (tick - 1);
  }
  void schedule_wake(std::uint64_t tick);

  std::uint32_t start_;
  sim::SimTime first_tick_;
  sim::UniqueFunction listener_;
  /// Pending wake-up: its tick and the stride to the one after it.
  sim::TimerId wake_timer_ = sim::kInvalidTimer;
  std::uint64_t next_wake_ = 0;
  std::uint32_t stride_ = 1;
};

/// Signed clock arithmetic helper: offset such that
/// (clkn + offset) & mask == target.
constexpr std::uint32_t clock_offset(std::uint32_t clkn,
                                     std::uint32_t target) {
  return (target - clkn) & kClockMask;
}

}  // namespace btsc::baseband
