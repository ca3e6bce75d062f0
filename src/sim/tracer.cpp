#include "sim/tracer.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "sim/environment.hpp"

namespace btsc::sim {

VcdTracer::VcdTracer(Environment& env, const std::string& path)
    : env_(env), out_(path) {
  if (!out_) throw std::runtime_error("VcdTracer: cannot open " + path);
}

VcdTracer::~VcdTracer() { close(); }

void VcdTracer::close() {
  if (out_.is_open()) {
    flush_before(~0ull);
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

TraceId VcdTracer::declare(const std::string& name, unsigned width,
                           const std::string& initial) {
  if (started_) {
    throw std::logic_error(
        "VcdTracer: declare() after tracing started (construct all modules "
        "before running)");
  }
  vars_.push_back({name, width, initial});
  return static_cast<TraceId>(vars_.size() - 1);
}

void VcdTracer::write_header() {
  out_ << "$date btsc simulation $end\n"
       << "$version btsc bluetooth system-level model $end\n"
       << "$timescale 1ns $end\n"
       << "$scope module top $end\n";
  for (TraceId i = 0; i < vars_.size(); ++i) {
    // Flatten hierarchical names: GTKWave accepts '.' inside identifiers.
    out_ << "$var wire " << vars_[i].width << ' ' << vcd_id(i) << ' '
         << vars_[i].name << " $end\n";
  }
  out_ << "$upscope $end\n$enddefinitions $end\n";
  // Time-zero values for all signals that provided one.
  out_ << "$dumpvars\n";
  for (TraceId i = 0; i < vars_.size(); ++i) {
    if (vars_[i].last.empty()) continue;
    if (vars_[i].width == 1) {
      out_ << vars_[i].last << vcd_id(i) << '\n';
    } else {
      out_ << 'b' << vars_[i].last << ' ' << vcd_id(i) << '\n';
    }
  }
  out_ << "$end\n";
  header_written_ = true;
}

void VcdTracer::flush_before(std::uint64_t limit_ns) {
  if (pending_.empty()) return;
  // Canonical emission order: (time, id), insertion-stable within a
  // pair, so the file does not depend on the order in which the
  // same-instant changes were committed. The explicit seq tie-break
  // makes the order total so plain sort suffices; stable_sort's
  // temporary buffer pairs operator new with free under some allocator
  // interpositions, which ASan rejects.
  std::sort(pending_.begin(), pending_.end(),
            [](const Pending& a, const Pending& b) {
              if (a.time_ns != b.time_ns) return a.time_ns < b.time_ns;
              if (a.id != b.id) return a.id < b.id;
              return a.seq < b.seq;
            });
  std::size_t n = 0;
  while (n < pending_.size() && pending_[n].time_ns < limit_ns) ++n;
  if (n == 0) return;
  if (!header_written_) write_header();
  for (std::size_t i = 0; i < n; ++i) {
    const Pending& p = pending_[i];
    Var& var = vars_.at(p.id);
    // Duplicate suppression in canonical order, so it does not depend
    // on the submission order either.
    if (var.last == p.value) continue;
    var.last = p.value;
    if (p.time_ns != last_ts_) {
      out_ << '#' << p.time_ns << '\n';
      last_ts_ = p.time_ns;
    }
    if (var.width == 1) {
      out_ << p.value << vcd_id(p.id) << '\n';
    } else {
      out_ << 'b' << p.value << ' ' << vcd_id(p.id) << '\n';
    }
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(n));
}

void VcdTracer::change(TraceId id, const std::string& value) {
  assert(id < vars_.size() && "VcdTracer: change on undeclared id");
  started_ = true;
  pending_.push_back({env_.now().as_ns(), id, value, pending_seq_++});
  // Entries strictly before the current instant are final.
  flush_before(env_.now().as_ns());
}

}  // namespace btsc::sim
