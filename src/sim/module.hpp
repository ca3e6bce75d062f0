// Module: named container of processes, mirroring sc_module.
//
// Modules exist to give child modules and trace lines hierarchical names
// (visible in traces) and a uniform way to register method processes
// with static sensitivity.
#pragma once

#include <initializer_list>
#include <string>
#include <utility>

#include "sim/environment.hpp"
#include "sim/event.hpp"
#include "sim/process.hpp"
#include "sim/unique_function.hpp"

namespace btsc::sim {

class Module {
 public:
  Module(Environment& env, std::string name)
      : env_(env), name_(std::move(name)) {}
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  const std::string& name() const { return name_; }
  Environment& env() { return env_; }
  const Environment& env() const { return env_; }

 protected:
  /// Builds "<module>.<leaf>" names for child modules and trace lines.
  std::string child_name(const std::string& leaf) const {
    return name_ + "." + leaf;
  }

  /// Registers a run-to-completion method process, statically sensitive to
  /// the given events. Additional sensitivity can be added later via
  /// Event::add_sensitive().
  Process& method(UniqueFunction fn,
                  std::initializer_list<Event*> sensitivity = {}) {
    Process& p = env_.register_process(std::move(fn));
    for (Event* ev : sensitivity) ev->add_sensitive(p);
    return p;
  }

 private:
  Environment& env_;
  std::string name_;
};

}  // namespace btsc::sim
