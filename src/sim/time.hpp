// Simulation time type for the btsc discrete-event kernel.
//
// Time is an absolute count of nanoseconds held in a 64-bit unsigned
// integer, which covers ~584 years of simulated time -- far beyond any
// Bluetooth scenario. All kernel and model code uses SimTime instead of
// raw integers so that unit mistakes are caught at compile time.
#pragma once

#if (defined(_MSVC_LANG) ? _MSVC_LANG : __cplusplus) < 202002L
#error "btsc requires C++20 (defaulted operator<=>/operator==); build with -std=c++20 or let CMake set it"
#endif

#include <compare>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>

namespace btsc::sim {

/// Absolute simulation time (or a duration) in nanoseconds.
///
/// SimTime is a regular value type: totally ordered, cheap to copy and
/// supports the arithmetic that is meaningful for time points/durations.
class SimTime {
 public:
  constexpr SimTime() = default;

  /// Named constructors -- the only way to build a SimTime from a number,
  /// so the unit is always spelled out at the call site.
  static constexpr SimTime ns(std::uint64_t v) { return SimTime{v}; }
  static constexpr SimTime us(std::uint64_t v) { return SimTime{v * 1000u}; }
  static constexpr SimTime ms(std::uint64_t v) {
    return SimTime{v * 1'000'000u};
  }
  static constexpr SimTime sec(std::uint64_t v) {
    return SimTime{v * 1'000'000'000u};
  }
  /// Largest representable time; used as the "never" sentinel.
  static constexpr SimTime max() {
    return SimTime{std::numeric_limits<std::uint64_t>::max()};
  }
  static constexpr SimTime zero() { return SimTime{0}; }

  constexpr std::uint64_t as_ns() const { return ns_; }
  constexpr double as_sec() const { return static_cast<double>(ns_) / 1e9; }

  friend constexpr auto operator<=>(SimTime, SimTime) = default;

  constexpr SimTime operator+(SimTime o) const { return SimTime{ns_ + o.ns_}; }
  constexpr SimTime operator-(SimTime o) const { return SimTime{ns_ - o.ns_}; }
  constexpr SimTime& operator+=(SimTime o) {
    ns_ += o.ns_;
    return *this;
  }
  constexpr SimTime operator*(std::uint64_t k) const {
    return SimTime{ns_ * k};
  }
  /// Integer division of durations, e.g. number of slots in an interval.
  constexpr std::uint64_t operator/(SimTime o) const { return ns_ / o.ns_; }
  constexpr SimTime operator%(SimTime o) const { return SimTime{ns_ % o.ns_}; }

  /// Human-readable rendering with an auto-selected unit ("12.5 us").
  std::string to_string() const;

 private:
  explicit constexpr SimTime(std::uint64_t v) : ns_(v) {}
  std::uint64_t ns_ = 0;
};

std::ostream& operator<<(std::ostream& os, SimTime t);

namespace literals {
constexpr SimTime operator""_ns(unsigned long long v) {
  return SimTime::ns(v);
}
constexpr SimTime operator""_us(unsigned long long v) {
  return SimTime::us(v);
}
constexpr SimTime operator""_ms(unsigned long long v) {
  return SimTime::ms(v);
}
constexpr SimTime operator""_sec(unsigned long long v) {
  return SimTime::sec(v);
}
}  // namespace literals

}  // namespace btsc::sim
