#include "baseband/bt_clock.hpp"

#include <cassert>

namespace btsc::baseband {

NativeClock::NativeClock(sim::Environment& env, std::string name,
                         std::uint32_t initial,
                         sim::SimTime first_tick_delay)
    : Module(env, std::move(name)),
      start_(initial & kClockMask),
      first_tick_(env.now() + first_tick_delay) {
  env.register_rearm(this->name(), this, this);
  schedule_wake(1);
}

NativeClock::~NativeClock() { env().unregister_rearm(this); }

void NativeClock::wake(std::uint64_t first, std::uint32_t stride) {
  assert(first >= 1 && stride >= 1 && tick_time(first) >= env().now());
  if (first == next_wake_ && stride == stride_ && env().pending(wake_timer_)) {
    return;
  }
  env().cancel(wake_timer_);
  stride_ = stride;
  schedule_wake(first);
}

void NativeClock::sleep() {
  env().cancel(wake_timer_);
  wake_timer_ = sim::kInvalidTimer;
}

void NativeClock::schedule_wake(std::uint64_t tick) {
  next_wake_ = tick;
  wake_timer_ = env().schedule_tagged(
      tick_time(tick) - env().now(), kWake, stride_,
      [this] {
        // Queue the next wake first: the listener's own wake() request
        // then finds it pending and keeps it.
        schedule_wake(next_wake_ + stride_);
        if (listener_) {
          env().count_tick_dispatch();
          listener_();
        }
      },
      this);
}

void NativeClock::reset_phase(std::uint32_t initial,
                              sim::SimTime first_tick_delay) {
  const bool waking = env().pending(wake_timer_);
  sleep();
  start_ = initial & kClockMask;
  first_tick_ = env().now() + first_tick_delay;
  if (waking) {
    stride_ = 1;
    schedule_wake(1);
  }
}

template <class Self, class Ar>
void NativeClock::io(Self& s, Ar& a) {
  a.section(sim::snapshot_tag("CLKN"), [&] { a.io(s.start_, s.first_tick_); });
}

void NativeClock::save_state(sim::SnapshotWriter& w) const { io(*this, w); }

void NativeClock::restore_state(sim::SnapshotReader& r) { io(*this, r); }

void NativeClock::rearm_timer(std::uint16_t kind, std::uint64_t payload,
                              sim::SimTime when) {
  if (kind != kWake || payload == 0 || payload > kClockMask ||
      when < first_tick_ ||
      (when - first_tick_) % kTickPeriod != sim::SimTime::zero()) {
    throw sim::SnapshotError("NativeClock: bad wake timer");
  }
  stride_ = static_cast<std::uint32_t>(payload);
  schedule_wake((when - first_tick_) / kTickPeriod + 1);
}

}  // namespace btsc::baseband
