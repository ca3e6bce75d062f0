// Frequency hop selection kernel (79-channel system).
//
// Implements the spec's hop selection box: inputs X/Y1/Y2 derived from the
// relevant clock and phase, address inputs A-F derived from the 28-bit hop
// address (LAP + 4 UAP bits), a first addition, XOR, a 14-control-bit
// butterfly permutation (PERM5), a second addition modulo 79, and the
// even-first register bank mapping onto the 79 RF channels.
//
// Modes:
//   kConnection        : pseudo-random sequence over all 79 channels,
//                        driven by the master clock CLK and master address.
//   kPage / kInquiry   : short 32-hop sequence around a clock estimate;
//                        koffset (24 = train A, 8 = train B) selects the
//                        half of the sequence being swept.
//   kPageScan/kInquiryScan : single frequency changing every 1.28 s
//                        (CLKN bits 16:12).
//   k*Response         : frozen-clock sequences stepped by a response
//                        counter N.
//
// Faithfulness note: the 14 butterfly exchange pairs below follow the
// structure of the spec's PERM5 (seven stages of two conditional
// transpositions) but the exact pair assignment is this model's own.
// Both transmitter and receiver use the same kernel, so all system-level
// behaviour (train structure, coverage, pseudo-randomness) is preserved;
// only over-the-air interoperability with real silicon would need the
// verbatim table.
#pragma once

#include <cstdint>

#include "phy/channel.hpp"

namespace btsc::baseband {

inline constexpr int kNumRfChannels = phy::kNumRfChannels;

enum class HopMode : std::uint8_t {
  kConnection,
  kPage,
  kPageScan,
  kMasterPageResponse,
  kSlavePageResponse,
  kInquiry,
  kInquiryScan,
  kInquiryResponse,
};

/// Train selector offsets for page/inquiry hopping.
inline constexpr int kTrainA = 24;
inline constexpr int kTrainB = 8;

struct HopInput {
  /// 28-bit hop address of the sequence owner (master for connection,
  /// paged device for page, GIAC for inquiry). See BdAddr::hop_address().
  std::uint32_t address = 0;
  /// 28-bit clock appropriate for the mode (CLK, CLKN or CLKE).
  std::uint32_t clock = 0;
  HopMode mode = HopMode::kConnection;
  /// Train offset for kPage/kInquiry.
  int koffset = kTrainA;
  /// Response counter N for the *Response modes.
  int response_n = 0;
  /// Clock value frozen when the response exchange started (CLK*).
  std::uint32_t frozen_clock = 0;
  /// Added to the phase X modulo 32. Used by the interlaced scan to open
  /// a second window on the complementary train half (X + 16).
  int x_offset = 0;
};

/// Selected RF channel in [0, 79).
int hop_frequency(const HopInput& in);

/// PERM5: the fourteen conditional transpositions on the 5-bit word `z`,
/// controlled by P13..P0 = bits 13..0 of `control14`, read from two
/// 7-stage tables.
int perm5(int z, std::uint32_t control14);

/// The 5-bit phase input X for the given mode (exposed for tests: the
/// page/inquiry train structure lives here).
int hop_phase_x(const HopInput& in);

}  // namespace btsc::baseband
