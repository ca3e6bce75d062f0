// RAII installer of a disk-fault plan for tests.
#pragma once

#include <utility>
#include <vector>

#include "io/fault.hpp"

namespace btsc::io {

/// Installs a plan of `rules` on construction and restores the previous
/// plan on destruction.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(std::vector<FaultRule> rules)
      : plan_(std::move(rules)), previous_(fault_plan()) {
    set_fault_plan(&plan_);
  }
  ~ScopedFaultPlan() { set_fault_plan(previous_); }

  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;

  FaultPlan& plan() { return plan_; }

 private:
  FaultPlan plan_;
  FaultPlan* previous_;
};

}  // namespace btsc::io
