#include "baseband/hop.hpp"

#include <array>

namespace btsc::baseband {
namespace {

constexpr std::uint32_t bits(std::uint32_t v, int hi, int lo) {
  return (v >> lo) & ((1u << (hi - lo + 1)) - 1u);
}

/// CLK bits {4,3,2,0} as the 4-bit fast-sweep counter of the page and
/// inquiry X formulas (bit 0 gives the 3200 hop/s double rate).
constexpr std::uint32_t clk_4_2_0(std::uint32_t clk) {
  return (bits(clk, 4, 2) << 1) | (clk & 1u);
}

/// Page/inquiry phase: X = [CLK16:12 + koffset +
/// (CLK{4-2,0} - CLK16:12) mod 16] mod 32.
int train_phase(std::uint32_t clk, int koffset) {
  const int hi = static_cast<int>(bits(clk, 16, 12));
  const int fast = static_cast<int>(clk_4_2_0(clk));
  const int sweep = ((fast - hi) % 16 + 16) % 16;
  return ((hi + koffset + sweep) % 32 + 32) % 32;
}

/// Address bits {8,6,4,2,0} -> 5-bit value (input C).
constexpr std::uint32_t even_low_bits(std::uint32_t a) {
  return ((a >> 0) & 1u) | (((a >> 2) & 1u) << 1) | (((a >> 4) & 1u) << 2) |
         (((a >> 6) & 1u) << 3) | (((a >> 8) & 1u) << 4);
}

/// Address bits {13,11,9,7,5,3,1} -> 7-bit value (input E).
constexpr std::uint32_t odd_low_bits(std::uint32_t a) {
  std::uint32_t v = 0;
  for (int i = 0; i < 7; ++i) v |= ((a >> (2 * i + 1)) & 1u) << i;
  return v;
}

/// PERM5's fourteen conditional transpositions on a 5-bit word, in the
/// order P13..P0 applies them (see header note on pair assignment).
constexpr std::array<std::array<int, 2>, 14> kButterflies = {{
    {1, 2},  // P13
    {0, 3},  // P12
    {1, 4},  // P11
    {2, 3},  // P10
    {0, 4},  // P9
    {1, 3},  // P8
    {0, 2},  // P7
    {3, 4},  // P6
    {1, 2},  // P5
    {0, 3},  // P4
    {2, 4},  // P3
    {0, 1},  // P2
    {3, 4},  // P1
    {0, 2},  // P0
}};

/// One 7-stage half of PERM5 as a table: entry [c][z] is `z` after the
/// butterflies `first`..`first + 6` of kButterflies, stage `first + s`
/// swapping when bit 6 - s of the 7 control bits `c` is set.
using Perm5Half = std::array<std::array<std::uint8_t, 32>, 128>;
constexpr Perm5Half make_perm5_half(std::size_t first) {
  Perm5Half t{};
  for (unsigned c = 0; c < 128; ++c) {
    for (unsigned z0 = 0; z0 < 32; ++z0) {
      unsigned z = z0;
      for (std::size_t s = 0; s < 7; ++s) {
        if (((c >> (6 - s)) & 1u) == 0) continue;
        const auto [i, j] = kButterflies[first + s];
        if (((z >> i) & 1u) != ((z >> j) & 1u)) z ^= (1u << i) | (1u << j);
      }
      t[c][z0] = static_cast<std::uint8_t>(z);
    }
  }
  return t;
}

constexpr Perm5Half kPerm5High = make_perm5_half(0);  // P13..P7
constexpr Perm5Half kPerm5Low = make_perm5_half(7);   // P6..P0

struct KernelInputs {
  int x = 0;
  int y1 = 0;
  int y2 = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
  std::uint32_t d = 0;
  std::uint32_t e = 0;
  int f = 0;
};

KernelInputs build_inputs(const HopInput& in) {
  KernelInputs k;
  const std::uint32_t addr = in.address & 0x0FFFFFFFu;
  const std::uint32_t clk = in.clock & 0x0FFFFFFFu;

  // Address contributions (clock-free form; connection adds clock terms).
  k.a = bits(addr, 27, 23);
  k.b = bits(addr, 22, 19);
  k.c = even_low_bits(addr);
  k.d = bits(addr, 18, 10);
  k.e = odd_low_bits(addr);
  k.f = 0;

  switch (in.mode) {
    case HopMode::kConnection: {
      k.x = static_cast<int>(bits(clk, 6, 2));
      k.y1 = static_cast<int>((clk >> 1) & 1u);
      k.a ^= bits(clk, 25, 21);
      k.c ^= bits(clk, 20, 16);
      k.d ^= bits(clk, 15, 7);
      k.f = static_cast<int>((16ull * bits(clk, 27, 7)) % kNumRfChannels);
      break;
    }
    case HopMode::kPage:
    case HopMode::kInquiry:
      k.x = train_phase(clk, in.koffset);
      k.y1 = static_cast<int>((clk >> 1) & 1u);
      break;
    case HopMode::kPageScan:
    case HopMode::kInquiryScan:
      k.x = static_cast<int>(bits(clk, 16, 12));
      k.y1 = 0;
      break;
    case HopMode::kMasterPageResponse:
    case HopMode::kSlavePageResponse:
    case HopMode::kInquiryResponse: {
      const std::uint32_t fclk = in.frozen_clock & 0x0FFFFFFFu;
      k.x = static_cast<int>((bits(fclk, 16, 12) +
                              static_cast<std::uint32_t>(in.response_n)) %
                             32u);
      k.y1 = static_cast<int>((clk >> 1) & 1u);
      break;
    }
  }
  k.x = (k.x + in.x_offset % 32 + 32) % 32;
  k.y2 = 32 * k.y1;
  return k;
}

}  // namespace

int perm5(int z, std::uint32_t control14) {
  const auto hi = static_cast<std::size_t>((control14 >> 7) & 0x7Fu);
  const auto lo = static_cast<std::size_t>(control14 & 0x7Fu);
  return kPerm5Low[lo][kPerm5High[hi][static_cast<std::size_t>(z & 0x1F)]];
}

int hop_phase_x(const HopInput& in) { return build_inputs(in).x; }

int hop_frequency(const HopInput& in) {
  const KernelInputs k = build_inputs(in);
  // First addition and XOR stage.
  const int z1 = (k.x + static_cast<int>(k.a)) % 32;
  int z2 = z1 ^ static_cast<int>(k.b);
  // Y1 is XORed onto every line entering the permutation.
  if (k.y1) z2 ^= 0x1F;
  // Butterfly permutation controlled by {D,C}.
  const std::uint32_t control = (k.d << 5) | k.c;
  const int z3 = perm5(z2 & 0x1F, control & 0x3FFF);
  // Second addition modulo 79.
  const int idx =
      (z3 + static_cast<int>(k.e) + k.f + k.y2) % kNumRfChannels;
  // Register bank: even channels in ascending order, then odd channels.
  return idx < 40 ? 2 * idx : 2 * (idx - 40) + 1;
}

}  // namespace btsc::baseband
