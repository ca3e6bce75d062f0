// In-memory tracer for tests: records (time, name, value) tuples, the
// declared initial value first.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/environment.hpp"
#include "sim/tracer.hpp"

namespace btsc::sim {

class RecordingTracer final : public Tracer {
 public:
  struct Record {
    std::uint64_t time_ns;
    std::string name;
    char value;
  };

  explicit RecordingTracer(Environment& env) : env_(env) {}

  TraceId declare(const std::string& name, char initial) override {
    names_.push_back(name);
    records_.push_back({env_.now().as_ns(), name, initial});
    return static_cast<TraceId>(names_.size() - 1);
  }

  void change(TraceId id, char value) override {
    records_.push_back({env_.now().as_ns(), names_.at(id), value});
  }

  const std::vector<Record>& records() const { return records_; }

 private:
  Environment& env_;
  std::vector<std::string> names_;
  std::vector<Record> records_;
};

}  // namespace btsc::sim
