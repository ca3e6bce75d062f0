// The bit-serial PERM5 of the hop kernel: fourteen conditional
// transpositions on a 5-bit word, controlled by P13..P0 and applied one
// by one. hop.cpp reads the same permutation from two 7-stage tables;
// the exhaustive test in test_hop.cpp compares the two.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace btsc::test {

inline int perm5_reference(int z, std::uint32_t control14) {
  // Exchange pairs of P13..P0, in application order.
  static constexpr std::array<std::array<int, 2>, 14> kButterflies = {{
      {1, 2}, {0, 3}, {1, 4}, {2, 3}, {0, 4}, {1, 3}, {0, 2},
      {3, 4}, {1, 2}, {0, 3}, {2, 4}, {0, 1}, {3, 4}, {0, 2},
  }};
  for (int k = 13; k >= 0; --k) {
    if ((control14 >> k) & 1u) {
      const auto [i, j] = kButterflies[static_cast<std::size_t>(13 - k)];
      const int bi = (z >> i) & 1;
      const int bj = (z >> j) & 1;
      if (bi != bj) z ^= (1 << i) | (1 << j);
    }
  }
  return z;
}

}  // namespace btsc::test
