#include "sim/environment.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "sim/snapshot.hpp"

namespace btsc::sim {

Environment::Environment(std::uint64_t seed) : rng_(seed), seed_(seed) {}

void Environment::reseed(std::uint64_t seed) {
  seed_ = seed;
  rng_.reseed(seed);
  if (seeded_ != nullptr) seeded_->reseed_streams(seed);
}

void Environment::set_seeded_streams(SeededStreams* s) {
  if (s != nullptr && seeded_ != nullptr) {
    throw std::logic_error("Environment: second SeededStreams registration");
  }
  seeded_ = s;
}

void Environment::make_runnable(Process& p) {
  if (p.queued_) return;
  p.queued_ = true;
  next_runnable_.push_back(&p);
}

// ---------------------------------------------------------------------------
// Processes, events, delta cycles (the timed queue itself is
// sim::TimerQueue; its hot path is inline in the headers)
// ---------------------------------------------------------------------------

Process& Environment::register_process(UniqueFunction fn) {
  processes_.push_back(std::make_unique<Process>(std::move(fn)));
  return *processes_.back();
}

void Event::notify_delta() {
  for (Process* p : waiters_) env_->make_runnable(*p);
}

void Environment::run_deltas() {
  while (!next_runnable_.empty()) {
    ++delta_count_;
    runnable_.swap(next_runnable_);
    next_runnable_.clear();
    dispatching_ = true;
    for (Process* p : runnable_) {
      p->queued_ = false;
      ++activations_;
      p->run();
    }
    dispatching_ = false;
    runnable_.clear();
  }
}

bool Environment::idle() const {
  return next_runnable_.empty() && queue_.empty();
}

void Environment::run_until(SimTime until) {
  run_deltas();
  while (!queue_.empty()) {
    const SimTime t = queue_.next_time();
    if (t > until) break;
    now_ = t;
    // Pop-and-dispatch every entry due at this instant in (when, seq)
    // order. Callbacks may schedule more work at the same instant (their
    // seqs are larger than every live one, so they pop last) and may
    // cancel same-instant siblings (a canceled entry leaves the heap
    // before its turn). pop_due moves the payload out and releases the
    // slot before dispatch: the callback may schedule more timers, and
    // its slot must be reusable (and its id stale) while it runs.
    UniqueFunction fn;
    while (queue_.pop_due(t, fn)) {
      dispatching_ = true;
      fn();
      dispatching_ = false;
      fn.reset();
    }
    // Processes woken by the timed callbacks above run after all of
    // them, in the delta cycles of this instant.
    run_deltas();
  }
  if (now_ < until) now_ = until;
}

// ---------------------------------------------------------------------------
// Checkpoint / fork
// ---------------------------------------------------------------------------

void Environment::require_settled(const char* verb) const {
  if (dispatching_ || !next_runnable_.empty()) {
    throw SnapshotError(std::string("environment: cannot ") + verb +
                        " at an unsettled instant (delta work pending)");
  }
}

const Environment::RearmEntry* Environment::find_rearm(
    const void* owner) const {
  for (const RearmEntry& e : rearm_entries_) {
    if (e.owner == owner) return &e;
  }
  return nullptr;
}

const Environment::RearmEntry* Environment::find_rearm(
    const std::string& name) const {
  for (const RearmEntry& e : rearm_entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

void Environment::register_rearm(std::string name, const void* owner,
                                 RearmHandler* handler) {
  assert(owner != nullptr && handler != nullptr);
  if (find_rearm(owner) != nullptr || find_rearm(name) != nullptr) {
    throw SnapshotError("environment: duplicate rearm registration: " + name);
  }
  rearm_entries_.push_back({std::move(name), owner, handler});
}

void Environment::unregister_rearm(const void* owner) {
  std::erase_if(rearm_entries_,
                [owner](const RearmEntry& e) { return e.owner == owner; });
}

template <class Self, class Ar>
void Environment::io(Self& s, Ar& a) {
  a.section(snapshot_tag("ENV "), [&] {
    a.io(s.now_, prop(s.rng_, &Rng::state, &Rng::set_state));
    s.io_timers(a);
    a.io(prop(s.queue_, &TimerQueue::next_seq, &TimerQueue::set_next_seq));
  });
}

void Environment::save_state(SnapshotWriter& w) const {
  require_settled("checkpoint");
  io(*this, w);
}

void Environment::restore_state(SnapshotReader& r) {
  require_settled("restore");
  io(*this, r);
}

void Environment::io_timers(SnapshotWriter& w) const {
  struct Desc {
    const std::string* name;
    std::uint16_t kind;
    std::uint64_t payload;
    SimTime when;
    std::uint64_t seq;
  };
  std::vector<Desc> descs;
  descs.reserve(queue_.live());
  queue_.for_each_live([&](const void* owner, std::uint16_t kind,
                           std::uint64_t payload, SimTime when,
                           std::uint64_t seq) {
    if (kind == 0) {
      throw SnapshotError(
          "environment: opaque (untagged) timer live at checkpoint");
    }
    const RearmEntry* e = find_rearm(owner);
    if (e == nullptr) {
      throw SnapshotError(
          "environment: live timer owner has no rearm registration");
    }
    descs.push_back({&e->name, kind, payload, when, seq});
  });
  std::sort(descs.begin(), descs.end(),
            [](const Desc& a, const Desc& b) { return a.seq < b.seq; });
  w.u32(static_cast<std::uint32_t>(descs.size()));
  for (const Desc& d : descs) {
    w.str(*d.name);
    w.u16(d.kind);
    w.u64(d.payload);
    w.time(d.when);
    w.u64(d.seq);
  }
}

void Environment::io_timers(SnapshotReader& r) {
  // Construction-time timers of the fresh scaffold are superseded by the
  // saved descriptors; replaying each at its saved seq reproduces the
  // checkpointed (when, seq) dispatch total order exactly.
  queue_.clear();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::string name = r.str();
    const std::uint16_t kind = r.u16();
    const std::uint64_t payload = r.u64();
    const SimTime when = r.time();
    const std::uint64_t seq = r.u64();
    if (when < now_) throw SnapshotError("environment: timer in the past");
    const RearmEntry* e = find_rearm(name);
    if (e == nullptr) {
      throw SnapshotError("environment: no rearm registration for \"" + name +
                          "\" in the restored scenario");
    }
    queue_.set_next_seq(seq);
    e->handler->rearm_timer(kind, payload, when);
    if (queue_.next_seq() != seq + 1) {
      throw SnapshotError(
          "environment: rearm handler for \"" + name +
          "\" did not schedule exactly one timer (kind " +
          std::to_string(kind) + ")");
    }
  }
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

std::uint64_t Environment::heap_depth(std::uint64_t n) {
  std::uint64_t depth = 0, capacity = 0, level = 1;
  while (capacity < n) {
    capacity += level;
    level *= 4;  // the heap's arity
    ++depth;
  }
  return depth;
}

Environment::SchedulerStats Environment::scheduler_stats() const {
  const TimerQueue::Stats w = queue_.stats();
  SchedulerStats s;
  s.scheduled = w.scheduled;
  s.fired = w.fired;
  s.canceled = w.canceled;
  s.cancels_after_fire = w.cancels_after_fire;
  s.live = w.live;
  s.peak_live = w.peak_live;
  s.peak_depth = heap_depth(w.peak_live);
  return s;
}

}  // namespace btsc::sim
