#include "sim/tracer.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "sim/environment.hpp"

namespace btsc::sim {

TraceLine::TraceLine(Environment& env, const std::string& name, char initial)
    : value_(initial) {
  if (Tracer* t = env.tracer()) {
    env_ = &env;
    id_ = t->declare(name, initial);
  }
}

void TraceLine::record() {
  if (Tracer* t = env_->tracer()) {
    t->change(id_, value_);
  } else {
    env_ = nullptr;  // the trace was closed
  }
}

VcdTracer::VcdTracer(Environment& env, const std::string& path)
    : env_(env), out_(path) {
  if (!out_) throw std::runtime_error("VcdTracer: cannot open " + path);
}

VcdTracer::~VcdTracer() { close(); }

void VcdTracer::close() {
  if (out_.is_open()) {
    flush_instant();
    if (!header_written_) write_header();
    out_.flush();
    out_.close();
  }
}

std::string VcdTracer::vcd_id(TraceId id) {
  // Printable-ASCII base-94 identifier, as customary in VCD files.
  std::string s;
  do {
    s.push_back(static_cast<char>('!' + id % 94));
    id /= 94;
  } while (id != 0);
  return s;
}

TraceId VcdTracer::declare(const std::string& name, char initial) {
  if (started_) {
    throw std::logic_error(
        "VcdTracer: declare() after tracing started (construct all modules "
        "before running)");
  }
  vars_.push_back({name, initial});
  return static_cast<TraceId>(vars_.size() - 1);
}

void VcdTracer::write_header() {
  out_ << "$date btsc simulation $end\n"
       << "$version btsc bluetooth system-level model $end\n"
       << "$timescale 1ns $end\n"
       << "$scope module top $end\n";
  for (TraceId i = 0; i < vars_.size(); ++i) {
    // Flatten hierarchical names: GTKWave accepts '.' inside identifiers.
    out_ << "$var wire 1 " << vcd_id(i) << ' ' << vars_[i].name << " $end\n";
  }
  out_ << "$upscope $end\n$enddefinitions $end\n";
  // Time-zero values: each variable's declared initial value.
  out_ << "$dumpvars\n";
  for (TraceId i = 0; i < vars_.size(); ++i) {
    out_ << vars_[i].emitted << vcd_id(i) << '\n';
  }
  out_ << "$end\n";
  header_written_ = true;
}

void VcdTracer::flush_instant() {
  if (changed_.empty()) return;
  if (!header_written_) write_header();
  std::sort(changed_.begin(), changed_.end());
  bool stamped = false;
  for (const TraceId id : changed_) {
    Var& var = vars_[id];
    const char v = var.pending;
    var.pending = 0;
    if (v == var.emitted) continue;
    var.emitted = v;
    if (!stamped) {
      out_ << '#' << instant_ns_ << '\n';
      stamped = true;
    }
    out_ << v << vcd_id(id) << '\n';
  }
  changed_.clear();
}

void VcdTracer::change(TraceId id, char value) {
  assert(id < vars_.size() && "VcdTracer: change on undeclared id");
  started_ = true;
  const std::uint64_t now = env_.now().as_ns();
  // An earlier instant is final once time has moved past it.
  if (now != instant_ns_) flush_instant();
  instant_ns_ = now;
  Var& var = vars_[id];
  if (var.pending == 0) changed_.push_back(id);
  var.pending = value;
}

}  // namespace btsc::sim
