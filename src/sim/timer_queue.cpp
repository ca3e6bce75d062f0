// Cold paths of the timed queue: the 4-ary heap's sift machinery, bulk
// owner cancellation and the stats snapshot. The per-event hot path is
// inline in timer_queue.hpp.
#include "sim/timer_queue.hpp"

#include <algorithm>

namespace btsc::sim {

// ---------------------------------------------------------------------------
// 4-ary heap
// ---------------------------------------------------------------------------

void TimerQueue::heap_place(std::size_t pos, const HeapEntry& e) {
  heap_[pos] = e;
  hot_[e.slot].pos = static_cast<std::uint32_t>(pos);
}

void TimerQueue::sift_up(std::size_t pos) {
  const HeapEntry moving = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kHeapArity;
    if (!entry_before(moving, heap_[parent])) break;
    heap_place(pos, heap_[parent]);
    pos = parent;
  }
  heap_place(pos, moving);
}

void TimerQueue::sift_down(std::size_t pos) {
  const HeapEntry moving = heap_[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = kHeapArity * pos + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + kHeapArity, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (entry_before(heap_[c], heap_[best])) best = c;
    }
    if (!entry_before(heap_[best], moving)) break;
    heap_place(pos, heap_[best]);
    pos = best;
  }
  heap_place(pos, moving);
}

void TimerQueue::heap_remove_at(std::size_t pos) {
  assert(pos < heap_.size());
  const std::size_t last = heap_.size() - 1;
  if (pos == last) {
    heap_.pop_back();
    return;
  }
  heap_[pos] = heap_[last];
  heap_.pop_back();
  // The displaced entry may belong above or below `pos`; both sifts end
  // by re-placing it (fixing its slab pos) even when it does not move.
  if (pos > 0 && entry_before(heap_[pos], heap_[(pos - 1) / kHeapArity])) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

// ---------------------------------------------------------------------------
// Bulk cancellation & diagnostics
// ---------------------------------------------------------------------------

void TimerQueue::cancel_owned(const void* owner) {
  if (owner == nullptr) return;
  cancel_scratch_.clear();
  for (std::uint32_t s = 0; s < hot_.size(); ++s) {
    const Hot& n = hot_[s];
    if (n.live && n.owner == owner) cancel_scratch_.push_back(s);
  }
  for (const std::uint32_t s : cancel_scratch_) {
    heap_remove_at(hot_[s].pos);
    release_slot(s);
    ++canceled_;
  }
}

void TimerQueue::clear() {
  heap_.clear();
  hot_.clear();
  payload_.clear();
  free_head_ = kNil;
}

TimerQueue::Stats TimerQueue::stats() const {
  Stats s;
  s.scheduled = scheduled_;
  s.fired = fired_;
  s.canceled = canceled_;
  s.cancels_after_fire = cancels_after_fire_;
  s.live = heap_.size();
  s.peak_live = peak_live_;
  return s;
}

}  // namespace btsc::sim
