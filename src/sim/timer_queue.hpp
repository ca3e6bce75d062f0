// The timed queue: an index-tracked 4-ary min-heap of (when, seq) keys
// over a generation-checked slab of timer nodes.
//
// Ordering
// --------
// Dispatch follows the exact (when, seq) total order: seq is the global
// schedule counter, so same-time entries fire in FIFO order. Entries
// scheduled *during* the dispatch of instant t carry seqs larger than
// every live one, so popping until the instant is dry extends the same
// total order.
//
// Heap entries carry their ordering key, so sift comparisons stay inside
// the heap array; the slab node records the entry's heap index, which is
// what makes cancel() a true O(log n) removal rather than a deferred
// no-op. Slot generations make stale TimerIds inert. Entries stay in the
// heap until popped, so a callback canceling a same-instant sibling
// removes it before its turn.
//
// Node storage is split structure-of-arrays: the fields heap sifts and
// owner sweeps touch (generation, heap index, owner, descriptor kind)
// live in a dense `Hot` array, while the payload -- the type-erased
// UniqueFunction callback (48-byte SBO), the event pointer and the
// descriptor payload word -- lives in a parallel `Payload` array touched
// only when a timer is created, fired or released.
//
// Checkpointing: timers scheduled through the tagged path carry a
// (kind, payload) descriptor; for_each_live() exposes every live
// entry's (owner, kind, payload, when, seq) so Environment::save_state
// can serialize the queue as re-armable descriptors, and clear() +
// set_next_seq() let restore_state rebuild it replaying the exact seq
// allocation (see docs/ARCHITECTURE.md, "Checkpoint/fork").
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "sim/unique_function.hpp"

namespace btsc::sim {

class Event;

/// Handle for a scheduled one-shot callback, usable to cancel it.
/// Opaque encoding of (slab slot, generation); never 0 for a live timer.
using TimerId = std::uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

/// The timed queue. Owned by Environment; live entries always satisfy
/// when >= the environment's current time.
class TimerQueue {
 public:
  TimerQueue() = default;

  TimerQueue(const TimerQueue&) = delete;
  TimerQueue& operator=(const TimerQueue&) = delete;

  // The schedule/cancel/pop hot path is defined inline below the class
  // so the kernel dispatch loop flattens into its callers.

  /// Schedules a one-shot callback at absolute time `when`. `owner` is
  /// an optional tag for cancel_owned(); it is never dereferenced. The
  /// callable constructs directly into the slab node (templated so no
  /// UniqueFunction temporary is moved through the call). `kind` and
  /// `payload` form the timer's re-arm descriptor: kind 0 marks an
  /// opaque (non-checkpointable) timer, any other kind promises the
  /// owner's RearmHandler can reconstruct the callback from
  /// (kind, payload) alone.
  template <typename F>
  TimerId schedule_callback(SimTime when, F&& fn, const void* owner,
                            std::uint16_t kind = 0,
                            std::uint64_t payload = 0) {
    const std::uint32_t slot = acquire_slot();
    Hot& n = hot_[slot];
    n.owner = owner;
    n.kind = kind;
    Payload& p = payload_[slot];
    p.event = nullptr;
    p.payload = payload;
    p.fn.emplace(std::forward<F>(fn));
    const TimerId id = make_id(slot, n.gen);
    place(slot, when);
    return id;
  }

  /// Schedules a timed notification of `ev` (no TimerId is minted;
  /// event notifications are not individually cancelable).
  inline void schedule_event(SimTime when, Event& ev);

  /// Removes the entry in O(log n). Returns false -- and counts a
  /// cancel-after-fire -- for stale handles.
  inline bool cancel(TimerId id);

  /// Removes every live timer carrying this owner tag (O(slab) scan).
  void cancel_owned(const void* owner);

  /// True while the timer is scheduled and has neither fired nor been
  /// canceled.
  bool pending(TimerId id) const { return find_live(id) != nullptr; }

  bool empty() const { return heap_.empty(); }
  std::uint64_t live() const { return heap_.size(); }

  /// Earliest pending instant. Precondition: !empty().
  SimTime next_time() const {
    assert(!heap_.empty());
    return heap_[0].when;
  }

  /// Removes the minimum-seq entry due exactly at `t` and moves its
  /// payload out (exactly one of `ev`/`fn` is set), releasing its slot
  /// before the caller dispatches -- the callback may reschedule into
  /// the freed slot and its id goes stale while it runs. Returns false
  /// when nothing (remains) due at `t`.
  inline bool pop_due(SimTime t, Event*& ev, UniqueFunction& fn);

  // ---- checkpoint support ----

  /// The seq the next schedule will be stamped with. Saved in
  /// checkpoints; set_next_seq() replays the allocation on restore
  /// (set it to a descriptor's saved seq immediately before re-arming
  /// it, and to the saved counter once every descriptor is back).
  std::uint64_t next_seq() const { return next_seq_; }
  void set_next_seq(std::uint64_t seq) { next_seq_ = seq; }

  /// Visits every live entry as
  ///   f(owner, kind, payload, when, seq, is_event)
  /// in heap order (callers sort by seq for a canonical ordering).
  template <typename F>
  void for_each_live(F&& f) const {
    for (const HeapEntry& e : heap_) {
      const Payload& p = payload_[e.slot];
      f(hot_[e.slot].owner, hot_[e.slot].kind, p.payload, e.when, e.seq,
        p.event != nullptr);
    }
  }

  /// Drops every entry and recycles the slab (outstanding TimerIds go
  /// stale). Does NOT touch next_seq_ or the lifetime counters -- the
  /// restore path overwrites the former and folds the latter into the
  /// usual scheduler stats.
  void clear();

  /// Lifecycle counters (mirrored into Environment::SchedulerStats).
  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t fired = 0;
    std::uint64_t canceled = 0;
    std::uint64_t cancels_after_fire = 0;
    std::uint64_t live = 0;
    std::uint64_t peak_live = 0;
  };
  Stats stats() const;

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  static constexpr std::size_t kHeapArity = 4;

  /// The half of a slab entry that heap sifts and owner sweeps touch,
  /// with no callback storage. Nodes are recycled through a free list
  /// (threaded through `next_free`); `gen` distinguishes reuses so stale
  /// TimerIds cannot alias a new timer.
  struct Hot {
    std::uint32_t gen = 0;
    std::uint32_t pos = 0;  // heap index while live
    std::uint32_t next_free = kNil;
    std::uint16_t kind = 0;  // re-arm descriptor kind (0 = opaque)
    bool live = false;
    const void* owner = nullptr;
  };

  /// Cold half, parallel to `Hot`: the dispatch payload (exactly one of
  /// event/fn is set) and the re-arm descriptor payload word. Touched
  /// only at schedule, fire and release.
  struct Payload {
    Event* event = nullptr;
    UniqueFunction fn;
    std::uint64_t payload = 0;
  };

  struct HeapEntry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool entry_before(const HeapEntry& a, const HeapEntry& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  /// TimerId layout: generation in the high 32 bits, slot+1 in the low
  /// 32 (the +1 keeps every live id distinct from kInvalidTimer).
  static constexpr TimerId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<TimerId>(gen) << 32) |
           (static_cast<TimerId>(slot) + 1);
  }

  inline std::uint32_t acquire_slot();
  inline void release_slot(std::uint32_t slot);
  inline const Hot* find_live(TimerId id) const;
  inline void place(std::uint32_t slot, SimTime when);

  void heap_place(std::size_t pos, const HeapEntry& e);
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  void heap_remove_at(std::size_t pos);

  std::vector<Hot> hot_;          // sift/sweep halves, indexed by slot
  std::vector<Payload> payload_;  // cold halves, parallel to hot_
  std::uint32_t free_head_ = kNil;
  std::vector<HeapEntry> heap_;
  std::vector<std::uint32_t> cancel_scratch_;

  std::uint64_t next_seq_ = 1;
  std::uint64_t scheduled_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t canceled_ = 0;
  std::uint64_t cancels_after_fire_ = 0;
  std::uint64_t peak_live_ = 0;
};

// ---------------------------------------------------------------------------
// Inline hot path: schedule, cancel and pop flatten into the Environment
// dispatch loop and the model call sites.
// ---------------------------------------------------------------------------

inline std::uint32_t TimerQueue::acquire_slot() {
  const std::uint32_t slot = free_head_;
  if (slot != kNil) {
    free_head_ = hot_[slot].next_free;
    return slot;
  }
  hot_.emplace_back();
  payload_.emplace_back();
  return static_cast<std::uint32_t>(hot_.size() - 1);
}

inline void TimerQueue::release_slot(std::uint32_t slot) {
  Hot& n = hot_[slot];
  ++n.gen;  // retire every outstanding TimerId for this slot
  n.live = false;
  Payload& p = payload_[slot];
  p.fn.reset();  // destroy the captured state now, not at slot reuse
  p.event = nullptr;
  // owner/kind/payload are garbage while free -- both schedule paths
  // overwrite every field they rely on.
  n.next_free = free_head_;
  free_head_ = slot;
}

inline const TimerQueue::Hot* TimerQueue::find_live(TimerId id) const {
  const std::uint32_t lo = static_cast<std::uint32_t>(id);
  if (lo == 0) return nullptr;
  const std::uint32_t slot = lo - 1;
  if (slot >= hot_.size()) return nullptr;
  const Hot& n = hot_[slot];
  if (n.gen != static_cast<std::uint32_t>(id >> 32)) return nullptr;
  assert(n.live);  // live generation => in the heap
  assert(payload_[slot].event == nullptr);  // ids only minted for callbacks
  return &n;
}

inline void TimerQueue::place(std::uint32_t slot, SimTime when) {
  ++scheduled_;
  hot_[slot].live = true;
  heap_.push_back({when, next_seq_++, slot});
  if (heap_.size() > peak_live_) peak_live_ = heap_.size();
  sift_up(heap_.size() - 1);
}

inline void TimerQueue::schedule_event(SimTime when, Event& ev) {
  const std::uint32_t slot = acquire_slot();
  hot_[slot].owner = nullptr;
  hot_[slot].kind = 0;
  payload_[slot].event = &ev;
  payload_[slot].payload = 0;
  place(slot, when);
}

inline bool TimerQueue::cancel(TimerId id) {
  if (id == kInvalidTimer) return false;
  const Hot* found = find_live(id);
  if (found == nullptr) {
    ++cancels_after_fire_;
    return false;
  }
  const auto slot = static_cast<std::uint32_t>(id) - 1;
  heap_remove_at(found->pos);
  release_slot(slot);
  ++canceled_;
  return true;
}

inline bool TimerQueue::pop_due(SimTime t, Event*& ev, UniqueFunction& fn) {
  if (heap_.empty() || heap_[0].when != t) return false;
  const std::uint32_t slot = heap_[0].slot;
  heap_remove_at(0);
  ev = payload_[slot].event;
  if (ev == nullptr) fn = std::move(payload_[slot].fn);
  release_slot(slot);
  ++fired_;
  return true;
}

}  // namespace btsc::sim
