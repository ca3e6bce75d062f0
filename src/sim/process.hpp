// Method processes: the unit of executable behaviour in the kernel.
//
// A Process wraps a callback that is run (to completion, never suspended)
// whenever one of the events it is sensitive to fires -- the semantics of
// a SystemC SC_METHOD. Modules register processes through Module::method().
#pragma once

#include <utility>

#include "sim/unique_function.hpp"

namespace btsc::sim {

class Environment;

/// A run-to-completion callback triggered by event notifications. The
/// behaviour is a move-only UniqueFunction: registering a process never
/// copies its capture (and the capture may hold move-only state).
class Process {
 public:
  explicit Process(UniqueFunction fn) : fn_(std::move(fn)) {}

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  /// Invoked by the scheduler during the evaluate phase.
  void run() { fn_(); }

 private:
  friend class Environment;
  UniqueFunction fn_;
  // True while the process sits in a runnable queue; prevents the same
  // process from being queued twice in one delta when several of its
  // sensitivity events fire together.
  bool queued_ = false;
};

}  // namespace btsc::sim
