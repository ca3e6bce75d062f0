// Payload CRC.
//
// CRC-16/CCITT, g(D) = D^16 + D^12 + D^5 + 1, initialised with the UAP in
// the most significant byte of the register (spec: UAP appended with 8
// zero bits). Appended to every payload-bearing packet (DM*, DH*, FHS).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/bitvector.hpp"

namespace btsc::baseband {

/// CRC over a bit sequence in transmission order.
std::uint16_t crc16_compute(const sim::BitVector& bits, std::uint8_t uap);

/// CRC over bytes (each byte transmitted LSB first).
std::uint16_t crc16_compute(const std::vector<std::uint8_t>& bytes,
                            std::uint8_t uap);

bool crc16_check(const std::vector<std::uint8_t>& bytes, std::uint8_t uap,
                 std::uint16_t crc);

/// Longest tail crc16_single_bit() takes: more than any payload body.
inline constexpr std::size_t kCrc16MaxTailBits = 4096;

/// The CRC, from a zero register, of a message whose only set bit is
/// followed by `bits_after` (< kCrc16MaxTailBits) bits: x^(16 +
/// bits_after) mod g. The CRC is linear, so an error pattern d changes a
/// message's CRC by the XOR of this over d's set bits.
std::uint16_t crc16_single_bit(std::size_t bits_after);

}  // namespace btsc::baseband
