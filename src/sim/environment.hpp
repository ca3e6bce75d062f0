// The simulation environment: scheduler, timed queue and kernel services.
//
// Scheduling keeps SystemC's delta cycles for the one event the model
// waits on, the native clock's tick:
//
//   1. timed : claim the earliest timed instant and run every callback
//              due there, in (when, seq) order. Callbacks may notify
//              events and schedule more timed callbacks.
//   2. delta : processes made runnable by notify_delta() run after every
//              timed callback of the instant, at the *same* time; the
//              processes they wake run in the delta after, until none
//              remain. Then time advances.
//
// Timed queue
// -----------
// All timed work is a one-shot callback in a sim::TimerQueue
// (sim/timer_queue.hpp): an index-tracked 4-ary min-heap over a
// generation-checked slab. Dispatch follows the exact
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
// The environment also owns the tracer (optional VCD output), the root
// random stream and the seed that streams of other roles derive from
// (SeededStreams), so a whole simulation is reproducible from one seed.
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
class SnapshotReader;
class SnapshotWriter;
class Tracer;

/// A module holding random streams derived from the environment seed
/// (a channel's per-port noise streams). Environment::reseed() hands it
/// the new seed, so every stream follows the root stream's reseed.
class SeededStreams {
 public:
  virtual void reseed_streams(std::uint64_t seed) = 0;

 protected:
  ~SeededStreams() = default;
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

  /// True if nothing remains to execute. Canceled timers are physically
  /// removed from the queue, so they never hold this false.
  bool idle() const;

  // ---- process / event plumbing (used by Event, Module) ----
  void make_runnable(Process& p);

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
  Process& register_process(UniqueFunction fn);

  // ---- services ----

  /// The root random stream: receiver collision coins, inquiry backoff
  /// and clock set-up draw from it. Reseed through reseed(), never
  /// through rng() directly, or the derived streams keep the old seed.
  Rng& rng() { return rng_; }

  /// The seed the root stream was last (re)seeded with.
  std::uint64_t seed() const { return seed_; }

  /// Reseeds the root stream and the registered SeededStreams with
  /// `seed` -- the one entry point a measure stage reseeds through.
  void reseed(std::uint64_t seed);

  /// Registers the module whose streams reseed() re-derives (nullptr
  /// clears): the one channel of this environment. Throws
  /// std::logic_error on a second registration.
  void set_seeded_streams(SeededStreams* s);

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
  /// SnapshotError if delta work is pending, or if any live timer is
  /// untagged (kind 0) or has no registered owner.
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
    /// Timed-queue inserts (one-shot callbacks).
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
  /// The checkpoint layout, shared by save_state and restore_state.
  template <class Self, class Ar>
  static void io(Self& s, Ar& a);
  /// The timer-descriptor table stays a hand-written pair: save collects
  /// and orders the live timers, load validates each descriptor and
  /// replays it through its owner's rearm handler.
  void io_timers(SnapshotWriter& w) const;
  void io_timers(SnapshotReader& r);

  /// Runs delta cycles at the current time until no process is runnable.
  void run_deltas();
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
  TimerQueue queue_;
  std::vector<RearmEntry> rearm_entries_;
  std::vector<std::unique_ptr<Process>> processes_;
  Rng rng_;
  std::uint64_t seed_;
  SeededStreams* seeded_ = nullptr;
  Tracer* tracer_ = nullptr;
  bool dispatching_ = false;
  std::uint64_t delta_count_ = 0;
  std::uint64_t activations_ = 0;
};

}  // namespace btsc::sim
