// Application-layer traffic sources used by the activity experiments.
//
// Both sources drive themselves with self-rescheduling timers; those are
// owner-tagged descriptor timers so a checkpoint taken while a source is
// armed can be restored (the kernel replays the descriptor through
// rearm_timer()). Construction parameters (period, payload, backlog) are
// not serialized -- restore assumes an identically constructed source.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "baseband/device.hpp"
#include "sim/snapshot.hpp"
#include "sim/time.hpp"

namespace btsc::core {

/// Queues a fixed-size payload to one link every `period_slots` slots
/// (the paper's Fig. 11 uses a 100-slot period; Fig. 10 sweeps the duty
/// cycle, i.e. the inverse period).
class PeriodicTrafficSource : public sim::Snapshotable,
                              public sim::RearmHandler {
 public:
  PeriodicTrafficSource(baseband::Device& device, std::uint8_t lt_addr,
                        std::uint32_t period_slots,
                        std::size_t payload_bytes = 1)
      : device_(device),
        lt_addr_(lt_addr),
        period_(baseband::kSlotDuration * period_slots),
        payload_(payload_bytes, 0xA5) {
    device_.env().register_rearm(
        device_.name() + ".ptraffic." + std::to_string(lt_addr_), this, this);
    schedule_next(period_);
  }

  // The self-rescheduling timer captures `this`: it must not outlive the
  // source (nor leave an unregistered owner in a later snapshot).
  ~PeriodicTrafficSource() override {
    device_.env().cancel_owned(this);
    device_.env().unregister_rearm(this);
  }

  std::uint64_t messages_sent() const { return sent_; }

  // ---- checkpointing ----
  void save_state(sim::SnapshotWriter& w) const override { io(*this, w); }
  void restore_state(sim::SnapshotReader& r) override { io(*this, r); }
  void rearm_timer(std::uint16_t kind, std::uint64_t /*payload*/,
                   sim::SimTime when) override {
    if (kind != kSend) {
      throw sim::SnapshotError("periodic traffic: bad timer kind " +
                               std::to_string(kind));
    }
    schedule_next(when - device_.env().now());
  }

 private:
  template <class Self, class Ar>
  static void io(Self& s, Ar& a) {
    a.section(kTag, [&] { a.io(s.running_, s.sent_); });
  }

  static constexpr std::uint32_t kTag = sim::snapshot_tag("TRFP");
  enum Kind : std::uint16_t { kSend = 1 };

  void schedule_next(sim::SimTime delay) {
    device_.env().schedule_tagged(
        delay, kSend, 0,
        [this] {
          if (!running_) return;
          if (device_.lc().send_acl(lt_addr_, baseband::kLlidStart,
                                    payload_)) {
            ++sent_;
          }
          schedule_next(period_);
        },
        /*owner=*/this);
  }

  baseband::Device& device_;
  std::uint8_t lt_addr_;
  sim::SimTime period_;
  std::vector<std::uint8_t> payload_;
  bool running_ = true;
  std::uint64_t sent_ = 0;
};

/// Keeps the sender's queue non-empty (saturation source) for throughput
/// experiments: refills up to `backlog` messages each slot.
class SaturatingTrafficSource : public sim::Snapshotable,
                                public sim::RearmHandler {
 public:
  SaturatingTrafficSource(baseband::Device& device, std::uint8_t lt_addr,
                          std::size_t payload_bytes, std::size_t backlog = 4)
      : device_(device),
        lt_addr_(lt_addr),
        payload_(payload_bytes, 0x3C),
        backlog_(backlog) {
    device_.env().register_rearm(
        device_.name() + ".straffic." + std::to_string(lt_addr_), this, this);
    refill();
  }

  // The self-rescheduling timer captures `this`: it must not outlive the
  // source (nor leave an unregistered owner in a later snapshot).
  ~SaturatingTrafficSource() override {
    device_.env().cancel_owned(this);
    device_.env().unregister_rearm(this);
  }

  // ---- checkpointing ----
  void save_state(sim::SnapshotWriter& w) const override { io(*this, w); }
  void restore_state(sim::SnapshotReader& r) override { io(*this, r); }
  void rearm_timer(std::uint16_t kind, std::uint64_t /*payload*/,
                   sim::SimTime when) override {
    if (kind != kRefill) {
      throw sim::SnapshotError("saturating traffic: bad timer kind " +
                               std::to_string(kind));
    }
    schedule_refill(when - device_.env().now());
  }

 private:
  template <class Self, class Ar>
  static void io(Self& s, Ar& a) {
    a.section(kTag, [&] { a.io(s.running_, s.sent_); });
  }

  static constexpr std::uint32_t kTag = sim::snapshot_tag("TRFS");
  enum Kind : std::uint16_t { kRefill = 1 };

  void refill() {
    if (!running_) return;
    for (std::size_t i = 0; i < backlog_; ++i) {
      if (!device_.lc().send_acl(lt_addr_, baseband::kLlidStart, payload_)) {
        break;
      }
      ++sent_;
    }
    schedule_refill(baseband::kSlotDuration * 2);
  }

  void schedule_refill(sim::SimTime delay) {
    device_.env().schedule_tagged(delay, kRefill, 0, [this] { refill(); },
                                  /*owner=*/this);
  }

  baseband::Device& device_;
  std::uint8_t lt_addr_;
  std::vector<std::uint8_t> payload_;
  std::size_t backlog_;
  bool running_ = true;
  std::uint64_t sent_ = 0;
};

}  // namespace btsc::core
