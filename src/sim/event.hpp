// Events: the kernel's synchronisation primitive.
//
// Processes are statically sensitive to events; notifying an event makes
// all sensitive processes runnable in the *next* delta cycle (delta
// notification). Timed work is a scheduled callback instead
// (Environment::schedule). Immediate notification is intentionally not
// supported: it makes results depend on process execution order and is
// discouraged even in SystemC.
#pragma once

#include <vector>

#include "sim/time.hpp"

namespace btsc::sim {

class Environment;
class Process;

class Event {
 public:
  explicit Event(Environment& env) : env_(&env) {}

  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  /// Statically subscribes a process; it becomes runnable on every notify.
  void add_sensitive(Process& p) { waiters_.push_back(&p); }

  /// Makes all sensitive processes runnable in the next delta cycle.
  void notify_delta();

 private:
  Environment* env_;
  std::vector<Process*> waiters_;
};

}  // namespace btsc::sim
