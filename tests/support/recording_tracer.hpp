// In-memory tracer for tests: records (time, name, value) tuples.
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
    std::string value;
  };

  explicit RecordingTracer(Environment& env) : env_(env) {}

  TraceId declare(const std::string& name, unsigned,
                  const std::string& initial = std::string()) override {
    names_.push_back(name);
    const auto id = static_cast<TraceId>(names_.size() - 1);
    if (!initial.empty()) {
      records_.push_back({env_.now().as_ns(), name, initial});
    }
    return id;
  }

  void change(TraceId id, const std::string& value) override {
    records_.push_back({env_.now().as_ns(), names_.at(id), value});
  }

  const std::vector<Record>& records() const { return records_; }

 private:
  Environment& env_;
  std::vector<std::string> names_;
  std::vector<Record> records_;
};

}  // namespace btsc::sim
