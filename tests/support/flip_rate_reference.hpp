// The one-phase gap search of phy::FlipRate: set a gap's bits from the
// top against the survival table, multiplying at every level. FlipRate
// finds the top set bit by counting first and multiplies only below it;
// test_noise_stream.cpp compares the two gap for gap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "phy/noise.hpp"

namespace btsc::test {

inline std::uint64_t gap_reference(const phy::FlipRate& rate, double u) {
  const std::span<const double> q = rate.survival_table();
  double survival = 1.0;  // q^g for the bits of g set so far
  std::uint64_t g = 0;
  for (std::size_t j = q.size(); j-- > 0;) {
    const double t = survival * q[j];
    const bool set = u <= t;
    survival = set ? t : survival;
    g |= static_cast<std::uint64_t>(set) << j;
  }
  return g;
}

}  // namespace btsc::test
