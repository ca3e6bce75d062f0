// The simulation environment: scheduler, timed queue and kernel services.
//
// Scheduling follows the SystemC evaluate/update delta-cycle contract:
//
//   1. evaluate : run every runnable process to completion. Processes may
//                 write signals (queueing update requests), notify events
//                 and schedule timed callbacks.
//   2. update   : commit pending signal writes; signals whose value
//                 actually changed notify their value-changed events.
//   3. delta    : processes made runnable by step 2 (or by notify_delta in
//                 step 1) form the next evaluate set at the *same* time.
//   4. advance  : when no delta work remains, claim the earliest timed
//                 instant and repeat.
//
// Timed queue
// -----------
// All timed work (one-shot callbacks and timed event notifications) lives
// in a sim::TimerQueue (sim/timer_queue.hpp): an index-tracked 4-ary
// min-heap over a generation-checked slab. Dispatch follows the exact
// (when, seq) total order -- seq is a global schedule counter, so
// same-time entries fire in FIFO order, the determinism tiebreak every
// model relies on. Cancellation is true removal: a canceled timer leaves
// no dead entry behind, so idle() is exact, run_until() never visits the
// timestamp of a fully-canceled instant, and queue memory is reclaimed
// immediately. TimerId handles encode (slot, generation); a stale handle
// -- cancel after fire -- is recognised and ignored.
//
// Callbacks are sim::UniqueFunction (sim/unique_function.hpp): move-only
// with a 48-byte inline buffer, so steady-state scheduling performs zero
// heap allocations end to end -- no std::function capture allocation, no
// queue-node allocation (slab free list), no control-structure growth.
//
// Timers may carry an owner tag (see schedule()); cancel_owned() removes
// every live timer of one owner in a single call, which is how module
// state machines drop all their pending deferred actions on a state
// change without epoch-counter workarounds.
//
// The environment also owns the tracer (optional VCD output) and the root
// random stream, so a whole simulation is reproducible from one seed.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/event.hpp"
#include "sim/process.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "sim/timer_queue.hpp"
#include "sim/unique_function.hpp"

namespace btsc::sim {

class RearmHandler;
class SignalBase;
class SnapshotReader;
class SnapshotWriter;
class Tracer;

/// Hook fired immediately before any model-level draw from the
/// environment RNG (draw_bernoulli / draw_uniform / notify_rng_draw).
/// A phy::NoisyChannel with a pre-drawn error mask in flight registers
/// one of these: the hook is its chance to rewind the stream to the
/// per-bit draw order before the foreign draw lands (see
/// docs/ARCHITECTURE.md, "Batched error masks").
class RngGuard {
 public:
  virtual void rng_external_draw() = 0;

 protected:
  ~RngGuard() = default;
};

class Environment {
 public:
  explicit Environment(std::uint64_t seed = 1);

  Environment(const Environment&) = delete;
  Environment& operator=(const Environment&) = delete;

  // ---- time ----
  SimTime now() const { return now_; }

  /// Runs until the timed queue is exhausted or `until` is reached
  /// (whichever comes first). Time ends up at min(until, last event).
  void run_until(SimTime until);

  /// Runs for `duration` from the current time.
  void run(SimTime duration) { run_until(now_ + duration); }

  /// Executes delta cycles at the current time until none remain, without
  /// advancing time. Used by tests and by models that need settled signals.
  void settle();

  /// True if nothing remains to execute. Canceled timers are physically
  /// removed from the queue, so they never hold this false.
  bool idle() const;

  // ---- process / event plumbing (used by Event, Signal, Module) ----
  void make_runnable(Process& p);
  void request_update(SignalBase& s);
  void notify_timed(Event& ev, SimTime abs_time) {
    assert(abs_time >= now_);
    queue_.schedule_event(abs_time, ev);
  }

  /// Schedules a one-shot callback at now()+delay (evaluate phase).
  /// Returns a TimerId that can be passed to cancel(). `owner` is an
  /// optional tag for bulk cancellation via cancel_owned(); it is never
  /// dereferenced. The callback becomes a move-only UniqueFunction,
  /// constructed directly in the timer slab: captures up to 48 bytes
  /// are stored inline, so scheduling performs no heap allocation.
  template <typename F>
  TimerId schedule(SimTime delay, F&& fn, const void* owner = nullptr) {
    return queue_.schedule_callback(now_ + delay, std::forward<F>(fn), owner);
  }

  /// Schedules a re-armable one-shot callback at now()+delay. Identical
  /// dispatch semantics to schedule(), but the timer additionally
  /// carries a (kind, payload) descriptor (kind != 0) under an owner
  /// that has a RearmHandler registered (register_rearm): save_state()
  /// serializes the timer as that descriptor instead of its closure,
  /// and restore_state() re-creates it through the handler. Every timer
  /// that can be live at a checkpoint boundary must be scheduled
  /// through this path -- save_state() throws on plain schedule()d
  /// timers.
  template <typename F>
  TimerId schedule_tagged(SimTime delay, std::uint16_t kind,
                          std::uint64_t payload, F&& fn, const void* owner) {
    assert(owner != nullptr);
    assert(kind != 0);
    return queue_.schedule_callback(now_ + delay, std::forward<F>(fn), owner,
                                    kind, payload);
  }

  /// Cancels a previously scheduled callback: removes its queue entry in
  /// O(log n). Safe (and a no-op) after the callback fired or for
  /// kInvalidTimer -- slot generations make stale handles inert even
  /// when the slot has been reused by a later timer.
  void cancel(TimerId id) { queue_.cancel(id); }

  /// Cancels every live timer scheduled with this owner tag. O(n) scan of
  /// the timer slab plus O(log n) per removal; nullptr is a no-op.
  void cancel_owned(const void* owner) { queue_.cancel_owned(owner); }

  /// True while the timer is scheduled and has neither fired nor been
  /// canceled.
  bool pending(TimerId id) const { return queue_.pending(id); }

  /// Registers a process owned by the caller's module; the environment
  /// stores it so sensitivity lists can reference stable addresses. The
  /// behaviour is a move-only UniqueFunction -- process bootstrap never
  /// copies a capture.
  Process& register_process(std::string name, UniqueFunction fn);

  // ---- services ----
  Rng& rng() { return rng_; }

  /// Model-level RNG draws go through these wrappers instead of rng()
  /// directly: they fire the registered RngGuard first, so a channel
  /// holding a pre-drawn error mask can re-order its remaining draws
  /// back into per-bit order before this draw consumes the stream.
  bool draw_bernoulli(double p) {
    notify_rng_draw();
    return rng_.bernoulli(p);
  }
  std::uint64_t draw_uniform(std::uint64_t lo, std::uint64_t hi) {
    notify_rng_draw();
    return rng_.uniform(lo, hi);
  }

  /// Fires the guard without drawing — used by a channel about to bulk-
  /// fill its own mask straight from rng() (its fill is a foreign draw
  /// from every *other* guard's point of view).
  void notify_rng_draw() {
    if (rng_guard_ != nullptr) rng_guard_->rng_external_draw();
  }

  /// Registers the single RNG guard slot (nullptr clears). At most one
  /// guard is live at a time: a second masked run cannot start until the
  /// first one's guard has stood down (the notify_rng_draw() the second
  /// channel fires before filling its mask forces exactly that).
  void set_rng_guard(RngGuard* g) {
    assert(g == nullptr || rng_guard_ == nullptr);
    rng_guard_ = g;
  }
  RngGuard* rng_guard() const { return rng_guard_; }

  /// Attaches a VCD tracer (nullptr detaches). The environment does not
  /// own the tracer; it must outlive the simulation.
  void set_tracer(Tracer* t) { tracer_ = t; }
  Tracer* tracer() const { return tracer_; }

  /// True while the kernel is executing a timed callback or a process
  /// (i.e. inside event dispatch). Model code uses this to decide
  /// whether an instant that equals now() has already been claimed by
  /// the queue: outside dispatch (between run() calls) every entry at
  /// <= now() has fired; inside dispatch, same-instant entries may still
  /// be pending. The burst transport's lazy catch-up boundaries depend
  /// on this distinction.
  bool dispatching() const { return dispatching_; }

  // ---- checkpoint / fork ----

  /// Registers `owner` as a re-armable timer source under a stable
  /// hierarchical name (its module name). The name -- not the pointer --
  /// is what snapshots carry, so a restored twin of the scenario maps
  /// saved descriptors back to its own instances. Throws SnapshotError
  /// on a duplicate name or owner. The handler must stay valid until
  /// unregister_rearm(owner).
  void register_rearm(std::string name, const void* owner,
                      RearmHandler* handler);
  void unregister_rearm(const void* owner);

  /// Serializes the kernel state: now, the RNG stream, and every
  /// pending timer as a re-armable (owner-name, kind, payload, when,
  /// seq) descriptor, in seq order, plus the seq allocator. Must be
  /// called at a settled instant (between run() calls); throws
  /// SnapshotError if delta work is pending, or if any live timer is an
  /// event notification, is untagged (kind 0), or has no registered
  /// owner.
  void save_state(SnapshotWriter& w) const;

  /// Counterpart of save_state() into a freshly constructed twin:
  /// restores now and the RNG, drops every construction-time timer, and
  /// replays the saved descriptors through their owners' RearmHandlers
  /// in saved-seq order, reproducing the exact (when, seq) dispatch
  /// total order of the checkpointed run. Module state must already be
  /// restored when this runs (handlers read it to rebuild callbacks).
  void restore_state(SnapshotReader& r);

  // ---- diagnostics ----
  std::uint64_t delta_count() const { return delta_count_; }
  std::uint64_t process_activations() const { return activations_; }

  /// Timed-queue health counters. With true cancellation the queue holds
  /// live entries only, so `live` is the exact amount of pending timed
  /// work (the old kernel's dead-entry population is structurally zero;
  /// `canceled` counts the entries that would have rotted there).
  struct SchedulerStats {
    /// Timed-queue inserts: one-shot callbacks plus timed event
    /// notifications.
    std::uint64_t scheduled = 0;
    /// Entries popped and dispatched at their instant.
    std::uint64_t fired = 0;
    /// Live entries physically removed by cancel()/cancel_owned().
    std::uint64_t canceled = 0;
    /// cancel() calls that found nothing (already fired / stale handle).
    std::uint64_t cancels_after_fire = 0;
    /// Always 0. The timed queue is one heap; the field stays only
    /// because perfbench still reads it into `sim.wheel_hit_frac`, and
    /// goes with that metric at the next benchmark change.
    std::uint64_t wheel_hits = 0;
    /// Current live timed entries.
    std::uint64_t live = 0;
    /// High-water live-entry count.
    std::uint64_t peak_live = 0;
    /// Levels the 4-ary heap spans at peak_live entries.
    std::uint64_t peak_depth = 0;
  };
  SchedulerStats scheduler_stats() const;

 private:
  void run_delta();
  void commit_updates();
  void trigger(Event& ev);
  static std::uint64_t heap_depth(std::uint64_t n);
  void require_settled(const char* verb) const;

  struct RearmEntry {
    std::string name;
    const void* owner;
    RearmHandler* handler;
  };
  const RearmEntry* find_rearm(const void* owner) const;
  const RearmEntry* find_rearm(const std::string& name) const;

  SimTime now_ = SimTime::zero();
  std::vector<Process*> runnable_;
  std::vector<Process*> next_runnable_;
  std::vector<SignalBase*> update_queue_;
  TimerQueue queue_;
  std::vector<RearmEntry> rearm_entries_;
  std::vector<std::unique_ptr<Process>> processes_;
  Rng rng_;
  RngGuard* rng_guard_ = nullptr;
  Tracer* tracer_ = nullptr;
  bool dispatching_ = false;
  std::uint64_t delta_count_ = 0;
  std::uint64_t activations_ = 0;
};

}  // namespace btsc::sim
