// Waveform tracing (VCD).
//
// Signals register themselves with the tracer; every committed value
// change is recorded with the current simulation time. The output is a
// standard IEEE 1364 VCD file loadable in GTKWave -- this is how the
// repository reproduces the waveform figures (Fig. 5 and Fig. 9) of the
// paper. A traced system runs the per-bit reference transport
// (phy::NoisyChannel refuses burst runs while a tracer is attached), so
// every change arrives at its own instant.
//
// VcdTracer buffers the changes of the current instant and emits them
// in a canonical order -- sorted by (time, id), stable within a pair --
// once simulation time has moved past them. Per-var duplicate
// suppression happens at flush time, in that order, so the file does
// not depend on the order in which same-instant changes were committed.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace btsc::sim {

class Environment;

/// Identifier assigned to each traced signal.
using TraceId = std::uint32_t;

/// Abstract trace sink. SignalBase calls declare() once and change() on
/// every committed value change. Owners hold the concrete tracer, so it
/// is never destroyed through this interface.
class Tracer {
 public:
  /// Declares a signal. `width` is the bit width (1 => VCD scalar);
  /// `initial` (may be empty) is dumped as the time-zero value.
  /// Hierarchical names use '.' separators (e.g. "master.enable_rx_RF").
  virtual TraceId declare(const std::string& name, unsigned width,
                          const std::string& initial = std::string()) = 0;

  /// Records a value change. `value` is the bit string, MSB first; for
  /// scalars it is a single character from {0,1,x,z}.
  virtual void change(TraceId id, const std::string& value) = 0;

 protected:
  ~Tracer() = default;
};

/// VCD file writer. Declarations must all happen before the first change
/// (i.e. construct all modules before running the simulation), which is
/// the natural elaboration-then-simulate order.
///
/// Changes are buffered and flushed in canonical (time, id) order once
/// simulation time has moved past them.
class VcdTracer final : public Tracer {
 public:
  /// `env` provides timestamps; `path` is the output file. Throws
  /// std::runtime_error if the file cannot be opened.
  VcdTracer(Environment& env, const std::string& path);
  ~VcdTracer();

  TraceId declare(const std::string& name, unsigned width,
                  const std::string& initial = std::string()) override;
  void change(TraceId id, const std::string& value) override;

  /// Flushes every buffered change and closes the file (also done by
  /// the destructor).
  void close();

 private:
  struct Pending {
    std::uint64_t time_ns;
    TraceId id;
    std::string value;
    std::uint64_t seq;  // insertion order; makes the flush order total
  };

  void write_header();
  /// Sorts the buffer and emits every entry with time < `limit_ns`.
  void flush_before(std::uint64_t limit_ns);
  static std::string vcd_id(TraceId id);

  struct Var {
    std::string name;
    unsigned width;
    std::string last;  // last emitted value, to suppress no-op changes
  };

  Environment& env_;
  std::ofstream out_;
  std::vector<Var> vars_;
  std::vector<Pending> pending_;
  std::uint64_t pending_seq_ = 0;
  bool started_ = false;  // a change has been recorded; declare() closed
  bool header_written_ = false;
  std::uint64_t last_ts_ = ~0ull;
};

}  // namespace btsc::sim
