#include "sim/environment.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "sim/signal.hpp"
#include "sim/snapshot.hpp"

namespace btsc::sim {

namespace {

/// Process-wide scheduler counters, folded in by ~Environment. The sweep
/// engine destroys every replication's environment on a worker thread,
/// hence atomics; sums and maxima of per-environment values are
/// independent of the thread interleaving, so the aggregate stays
/// deterministic at any thread count.
struct GlobalStats {
  std::atomic<std::uint64_t> scheduled{0};
  std::atomic<std::uint64_t> fired{0};
  std::atomic<std::uint64_t> canceled{0};
  std::atomic<std::uint64_t> cancels_after_fire{0};
  std::atomic<std::uint64_t> wheel_hits{0};
  std::atomic<std::uint64_t> heap_overflow{0};
  std::atomic<std::uint64_t> live_at_exit{0};
  std::atomic<std::uint64_t> peak_live{0};
};

GlobalStats& global_stats() {
  static GlobalStats g;
  return g;
}

void atomic_max(std::atomic<std::uint64_t>& a, std::uint64_t v) {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

Environment::Environment(std::uint64_t seed) : rng_(seed) {}

Environment::~Environment() {
  const TimerWheel::Stats w = wheel_.stats();
  GlobalStats& g = global_stats();
  g.scheduled.fetch_add(w.scheduled, std::memory_order_relaxed);
  g.fired.fetch_add(w.fired, std::memory_order_relaxed);
  g.canceled.fetch_add(w.canceled, std::memory_order_relaxed);
  g.cancels_after_fire.fetch_add(w.cancels_after_fire,
                                 std::memory_order_relaxed);
  g.wheel_hits.fetch_add(w.wheel_hits, std::memory_order_relaxed);
  g.heap_overflow.fetch_add(w.heap_overflow, std::memory_order_relaxed);
  g.live_at_exit.fetch_add(w.live, std::memory_order_relaxed);
  atomic_max(g.peak_live, w.peak_live);
}

void Environment::make_runnable(Process& p) {
  if (p.queued_) return;
  p.queued_ = true;
  next_runnable_.push_back(&p);
}

void Environment::request_update(SignalBase& s) { update_queue_.push_back(&s); }

// ---------------------------------------------------------------------------
// Processes, events, delta cycles (the timed queue itself is
// sim::TimerWheel; its hot path is inline in the headers)
// ---------------------------------------------------------------------------

Process& Environment::register_process(std::string name, UniqueFunction fn) {
  processes_.push_back(
      std::make_unique<Process>(std::move(name), std::move(fn)));
  return *processes_.back();
}

void Environment::trigger(Event& ev) {
  for (Process* p : ev.waiters_) make_runnable(*p);
}

void Event::notify_delta() {
  for (Process* p : waiters_) env_->make_runnable(*p);
}

void Event::notify(SimTime delay) {
  env_->notify_timed(*this, env_->now() + delay);
}

void Environment::run_delta() {
  ++delta_count_;
  runnable_.swap(next_runnable_);
  next_runnable_.clear();
  // Evaluate phase.
  dispatching_ = true;
  for (Process* p : runnable_) {
    p->queued_ = false;
    ++activations_;
    p->run();
  }
  dispatching_ = false;
  runnable_.clear();
  // Update phase. commit() notifies value-changed events, which enqueue
  // into next_runnable_ for the following delta.
  for (SignalBase* s : update_queue_) s->commit();
  update_queue_.clear();
}

void Environment::commit_updates() {
  for (SignalBase* s : update_queue_) s->commit();
  update_queue_.clear();
}

void Environment::settle() {
  while (!next_runnable_.empty() || !update_queue_.empty()) run_delta();
}

bool Environment::idle() const {
  return next_runnable_.empty() && update_queue_.empty() && wheel_.empty();
}

void Environment::run_until(SimTime until) {
  settle();
  while (!wheel_.empty()) {
    const SimTime t = wheel_.next_time(now_);
    if (t > until) break;
    now_ = t;
    // Pop-and-dispatch every entry due at this instant in (when, seq)
    // order. Callbacks may schedule more work at the same instant (their
    // seqs are larger than every live one, so they pop last) and may
    // cancel same-instant siblings (a canceled entry leaves its
    // container before its turn). pop_due moves the payload out and
    // releases the slot before dispatch: the callback may schedule more
    // timers, and its slot must be reusable (and its id stale) while it
    // runs.
    Event* ev = nullptr;
    UniqueFunction fn;
    while (wheel_.pop_due(t, ev, fn)) {
      if (ev != nullptr) {
        trigger(*ev);
      } else {
        dispatching_ = true;
        fn();
        dispatching_ = false;
        fn.reset();
      }
    }
    // The timed callbacks above form the evaluate phase of the first delta
    // at this instant; commit their signal writes before any process woken
    // by notify_delta() runs, per the evaluate/update contract.
    commit_updates();
    settle();
  }
  if (now_ < until) now_ = until;
}

// ---------------------------------------------------------------------------
// Checkpoint / fork
// ---------------------------------------------------------------------------

void Environment::require_settled(const char* verb) const {
  if (dispatching_ || !next_runnable_.empty() || !update_queue_.empty()) {
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

void Environment::save_state(SnapshotWriter& w) const {
  require_settled("checkpoint");
  struct Desc {
    const std::string* name;
    std::uint16_t kind;
    std::uint64_t payload;
    SimTime when;
    std::uint64_t seq;
  };
  std::vector<Desc> descs;
  descs.reserve(wheel_.live());
  wheel_.for_each_live([&](const void* owner, std::uint16_t kind,
                           std::uint64_t payload, SimTime when,
                           std::uint64_t seq, bool is_event) {
    if (is_event) {
      throw SnapshotError(
          "environment: timed event notification live at checkpoint");
    }
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
  w.begin_section(snapshot_tag("ENV "));
  w.time(now_);
  for (const std::uint64_t word : rng_.state()) w.u64(word);
  w.u32(static_cast<std::uint32_t>(descs.size()));
  for (const Desc& d : descs) {
    w.str(*d.name);
    w.u16(d.kind);
    w.u64(d.payload);
    w.time(d.when);
    w.u64(d.seq);
  }
  w.u64(wheel_.next_seq());
  w.end_section();
}

void Environment::restore_state(SnapshotReader& r) {
  require_settled("restore");
  r.enter_section(snapshot_tag("ENV "));
  now_ = r.time();
  std::array<std::uint64_t, 4> s;
  for (std::uint64_t& word : s) word = r.u64();
  rng_.set_state(s);
  // Construction-time timers of the fresh scaffold are superseded by the
  // saved descriptors; replaying each at its saved seq reproduces the
  // checkpointed (when, seq) dispatch total order exactly.
  wheel_.clear();
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
    wheel_.set_next_seq(seq);
    e->handler->rearm_timer(kind, payload, when);
    if (wheel_.next_seq() != seq + 1) {
      throw SnapshotError(
          "environment: rearm handler for \"" + name +
          "\" did not schedule exactly one timer (kind " +
          std::to_string(kind) + ")");
    }
  }
  wheel_.set_next_seq(r.u64());
  r.leave_section();
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

std::uint64_t Environment::heap_depth(std::uint64_t n) {
  std::uint64_t depth = 0, capacity = 0, level = 1;
  while (capacity < n) {
    capacity += level;
    level *= 4;  // the overflow heap's arity
    ++depth;
  }
  return depth;
}

Environment::SchedulerStats Environment::scheduler_stats() const {
  const TimerWheel::Stats w = wheel_.stats();
  SchedulerStats s;
  s.scheduled = w.scheduled;
  s.fired = w.fired;
  s.canceled = w.canceled;
  s.cancels_after_fire = w.cancels_after_fire;
  s.wheel_hits = w.wheel_hits;
  s.heap_overflow = w.heap_overflow;
  s.live = w.live;
  s.peak_live = w.peak_live;
  s.peak_depth = heap_depth(w.peak_live);
  return s;
}

Environment::SchedulerStats Environment::global_scheduler_stats() {
  const GlobalStats& g = global_stats();
  SchedulerStats s;
  s.scheduled = g.scheduled.load(std::memory_order_relaxed);
  s.fired = g.fired.load(std::memory_order_relaxed);
  s.canceled = g.canceled.load(std::memory_order_relaxed);
  s.cancels_after_fire = g.cancels_after_fire.load(std::memory_order_relaxed);
  s.wheel_hits = g.wheel_hits.load(std::memory_order_relaxed);
  s.heap_overflow = g.heap_overflow.load(std::memory_order_relaxed);
  s.live = g.live_at_exit.load(std::memory_order_relaxed);
  s.peak_live = g.peak_live.load(std::memory_order_relaxed);
  s.peak_depth = heap_depth(s.peak_live);
  return s;
}

}  // namespace btsc::sim
