// Waveform tracing (VCD).
//
// A TraceLine is one traced wire of the model: a VCD scalar (0/1/x/z)
// that reports every change of its value to the environment's tracer,
// stamped with the current simulation time. The model traces each
// radio's enable_tx_RF and enable_rx_RF and, in a traced system, the
// channel's bus. The output is a standard IEEE 1364 VCD file loadable
// in GTKWave -- this is how the repository reproduces the waveform
// figures (Fig. 5 and Fig. 9) of the paper. A traced system runs the
// per-bit reference transport (phy::NoisyChannel refuses burst runs
// while a tracer is attached), so every change arrives at its own
// instant.
//
// VcdTracer holds the changes of the current instant and emits them
// once simulation time has moved past it: for each variable only the
// last value of the instant, and only if it differs from the value last
// emitted, in id order. The file therefore shows the value each line
// settles to at an instant, not the order in which the model set it.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace btsc::sim {

class Environment;

/// Identifier assigned to each traced variable.
using TraceId = std::uint32_t;

/// Abstract trace sink. A TraceLine calls declare() once and change() on
/// every change of its value. Owners hold the concrete tracer, so it is
/// never destroyed through this interface.
class Tracer {
 public:
  /// Declares a scalar variable with its time-zero value (one of
  /// 0/1/x/z). Hierarchical names use '.' separators (e.g.
  /// "master.enable_rx_RF").
  virtual TraceId declare(const std::string& name, char initial) = 0;

  /// Records the variable's new value at the current simulation time.
  virtual void change(TraceId id, char value) = 0;

 protected:
  ~Tracer() = default;
};

/// One traced scalar. It declares itself only if a tracer is attached
/// to the environment when it is built, and stops tracing once that
/// tracer is detached (the environment's tracer reset to null).
class TraceLine {
 public:
  TraceLine(Environment& env, const std::string& name, char initial);

  char value() const { return value_; }

  /// Sets the value; a change is recorded while the line is traced.
  void set(char v) {
    if (v == value_) return;
    value_ = v;
    if (env_ != nullptr) record();
  }

  /// Checkpoint restore: overwrites the value without recording it.
  void restore(char v) { value_ = v; }

 private:
  void record();

  Environment* env_ = nullptr;  // null while untraced
  TraceId id_ = 0;
  char value_;
};

/// VCD file writer. Declarations must all happen before the first change
/// (i.e. construct all modules before running the simulation), which is
/// the natural elaboration-then-simulate order.
class VcdTracer final : public Tracer {
 public:
  /// `env` provides timestamps; `path` is the output file. Throws
  /// std::runtime_error if the file cannot be opened.
  VcdTracer(Environment& env, const std::string& path);
  ~VcdTracer();

  TraceId declare(const std::string& name, char initial) override;
  void change(TraceId id, char value) override;

  /// Emits the last instant's changes and closes the file (also done by
  /// the destructor).
  void close();

 private:
  struct Var {
    std::string name;
    char emitted;      // last value written to the file
    char pending = 0;  // value at instant_ns_, or 0 if unchanged there
  };

  void write_header();
  /// Emits the changes held for instant_ns_.
  void flush_instant();
  static std::string vcd_id(TraceId id);

  Environment& env_;
  std::ofstream out_;
  std::vector<Var> vars_;
  std::vector<TraceId> changed_;  // variables with a pending value
  std::uint64_t instant_ns_ = 0;
  bool started_ = false;  // a change has been recorded; declare() closed
  bool header_written_ = false;
};

}  // namespace btsc::sim
