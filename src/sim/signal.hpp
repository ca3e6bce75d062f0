// Signals: delta-cycle-accurate communication channels between processes.
//
// A Signal<T> holds a current and a next value. write() stores the next
// value and queues an update request; the kernel commits it in the update
// phase of the current delta cycle. Readers therefore never observe a
// value written in the same evaluate phase -- the SystemC sc_signal
// contract, which removes all ordering races between processes.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>

#include "sim/environment.hpp"
#include "sim/event.hpp"
#include "sim/tracer.hpp"

namespace btsc::sim {

/// How a value type is rendered into VCD bit strings. Specialise for
/// model-specific types (see phy::Logic4). width() == 0 disables tracing.
template <typename T>
struct TraceEncoder {
  static constexpr unsigned width() {
    if constexpr (std::is_same_v<T, bool>) {
      return 1;
    } else if constexpr (std::is_enum_v<T>) {
      return 8 * sizeof(std::underlying_type_t<T>);
    } else if constexpr (std::is_integral_v<T>) {
      return 8 * sizeof(T) > 64 ? 64 : 8 * sizeof(T);
    } else {
      return 0;  // not traceable by default
    }
  }

  static std::string encode(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      return v ? "1" : "0";
    } else if constexpr (std::is_enum_v<T>) {
      using U = std::make_unsigned_t<std::underlying_type_t<T>>;
      return to_bits(static_cast<std::uint64_t>(
          static_cast<U>(static_cast<std::underlying_type_t<T>>(v))));
    } else if constexpr (std::is_integral_v<T>) {
      using U = std::make_unsigned_t<T>;
      return to_bits(static_cast<std::uint64_t>(static_cast<U>(v)));
    } else {
      return {};
    }
  }

 private:
  static std::string to_bits(std::uint64_t u) {
    std::string s(width(), '0');
    for (unsigned i = 0; i < width(); ++i) {
      if ((u >> i) & 1u) s[width() - 1 - i] = '1';
    }
    return s;
  }
};

class SignalBase {
 public:
  SignalBase(Environment& env, std::string name)
      : env_(&env), name_(std::move(name)), changed_(env) {}
  virtual ~SignalBase() = default;

  SignalBase(const SignalBase&) = delete;
  SignalBase& operator=(const SignalBase&) = delete;

  /// Event notified (next delta) whenever the committed value changes.
  Event& value_changed_event() { return changed_; }

  /// Kernel hook: commits the pending write (update phase).
  virtual void commit() = 0;

 protected:
  Environment* env_;
  std::string name_;
  Event changed_;
  bool update_pending_ = false;
};

template <typename T>
class Signal : public SignalBase {
 public:
  Signal(Environment& env, std::string name, T init = T{})
      : SignalBase(env, std::move(name)), cur_(init), next_(init) {
    if (Tracer* t = env.tracer();
        t != nullptr && TraceEncoder<T>::width() > 0) {
      trace_id_ = t->declare(name_, TraceEncoder<T>::width(),
                             TraceEncoder<T>::encode(cur_));
      traced_ = true;
    }
  }

  const T& read() const { return cur_; }

  /// Checkpoint restore: overwrites the committed and pending value in
  /// place, with no delta cycle, change notification, or trace record.
  /// Only valid at a settled instant (no update pending), which the
  /// snapshot layer guarantees.
  void restore_value(const T& v) {
    cur_ = v;
    next_ = v;
    update_pending_ = false;
  }

  void write(const T& v) {
    next_ = v;
    if (!update_pending_) {
      update_pending_ = true;
      env_->request_update(*this);
    }
  }

  void commit() final {
    update_pending_ = false;
    if (next_ == cur_) return;
    cur_ = next_;
    if (traced_) {
      // A signal built while a tracer was attached stops tracing once the
      // trace is closed (the environment's tracer reset to null).
      if (Tracer* tracer = env_->tracer()) {
        tracer->change(trace_id_, TraceEncoder<T>::encode(cur_));
      } else {
        traced_ = false;
      }
    }
    changed_.notify_delta();
  }

 private:
  T cur_;
  T next_;
  TraceId trace_id_ = 0;
  bool traced_ = false;
};

}  // namespace btsc::sim
