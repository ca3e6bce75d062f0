// Forward error correction schemes of the baseband.
//
// FEC 1/3: each bit repeated three times; the decoder takes a bit-wise
// majority vote. Protects packet headers and HV1 voice.
//
// FEC 2/3: (15,10) shortened Hamming code with generator polynomial
// g(D) = (D + 1)(D^4 + D + 1) = D^5 + D^4 + D^2 + 1. Each block carries
// 10 information bits plus 5 parity bits; all single-bit errors per block
// are correctable. Protects DM1/DM3/DM5 payloads and the FHS packet.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/bitvector.hpp"

namespace btsc::baseband {

// ---- FEC 1/3 (repetition) ----

/// Encodes by transmitting every bit three times in a row.
sim::BitVector fec13_encode(const sim::BitVector& data);

/// Majority-decodes; requires size() % 3 == 0.
sim::BitVector fec13_decode(const sim::BitVector& coded);

// ---- FEC 2/3 ((15,10) shortened Hamming) ----

/// Information bits per coded block.
inline constexpr std::size_t kFec23DataBits = 10;
/// Total bits per coded block.
inline constexpr std::size_t kFec23BlockBits = 15;

/// Encodes data into 15-bit blocks (10 data + 5 parity each). The last
/// block is zero-padded; callers must know the true payload length (it is
/// carried in the payload header).
sim::BitVector fec23_encode(const sim::BitVector& data);

struct Fec23Result {
  sim::BitVector data;
  /// Number of blocks in which a single-bit error was corrected.
  std::size_t corrected_blocks = 0;
  /// True if any block had an uncorrectable (multi-bit) error pattern.
  bool failed = false;
};

/// Decodes coded blocks (size() % 15 == 0), correcting one error per
/// block via syndrome lookup.
Fec23Result fec23_decode(const sim::BitVector& coded);

/// One 15-bit block in air order (10 data bits LSB first, then 5 parity
/// bits MSB first), decoded via the popcount-parity syndrome. The
/// receiver's streaming word path consumes blocks with this instead of
/// slicing per-block BitVectors.
struct Fec23Block {
  std::uint16_t data10 = 0;
  bool corrected = false;
  bool failed = false;
};
Fec23Block fec23_decode_block15(std::uint16_t air15);

/// Encodes exactly one 10-bit block into 15 bits (exposed for tests).
std::uint16_t fec23_encode_block(std::uint16_t data10);

/// One 10-bit block encoded in air order, the layout
/// fec23_decode_block15() reads.
std::uint16_t fec23_encode_block15(std::uint16_t data10);

}  // namespace btsc::baseband
