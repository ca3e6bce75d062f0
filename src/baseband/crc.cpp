#include "baseband/crc.hpp"

#include <array>
#include <cassert>

#include "baseband/bit_reverse.hpp"

namespace btsc::baseband {
namespace {

constexpr std::uint16_t kCrcPolyLow = 0x1021;  // D^12 + D^5 + 1 below D^16

/// Single-bit reference step (kept as the oracle for the byte table and
/// for sub-byte tails): feeds one air bit into the MSB-first register.
constexpr std::uint16_t feed(std::uint16_t reg, bool bit) {
  const bool feedback = ((reg >> 15) & 1u) != static_cast<std::uint16_t>(bit);
  reg = static_cast<std::uint16_t>(reg << 1);
  if (feedback) reg ^= kCrcPolyLow;
  return reg;
}

/// Byte-at-a-time update: reg' = (reg << 8) ^ T[(reg >> 8) ^ rev8(byte)]
/// with T[j] = the register after running 8 zero-input steps from
/// j << 8 (the standard MSB-first table identity). Bluetooth transmits
/// each byte LSB first, so the data byte is bit-reversed into the index.
constexpr std::array<std::uint16_t, 256> make_table() {
  std::array<std::uint16_t, 256> t{};
  for (unsigned b = 0; b < 256; ++b) {
    std::uint16_t reg = static_cast<std::uint16_t>(b << 8);
    for (unsigned i = 0; i < 8; ++i) reg = feed(reg, false);
    t[b] = reg;
  }
  return t;
}

constexpr std::array<std::uint16_t, 256> kTable = make_table();

/// crc16_single_bit() for every tail length: the register after a 1 bit
/// and then `k` zero bits.
constexpr std::array<std::uint16_t, kCrc16MaxTailBits> make_single_bit() {
  std::array<std::uint16_t, kCrc16MaxTailBits> t{};
  std::uint16_t reg = feed(0, true);
  for (std::size_t k = 0; k < t.size(); ++k) {
    t[k] = reg;
    reg = feed(reg, false);
  }
  return t;
}

constexpr std::array<std::uint16_t, kCrc16MaxTailBits> kSingleBit =
    make_single_bit();

/// Feeds one data byte (transmitted LSB first) in a single table step.
inline std::uint16_t feed_byte(std::uint16_t reg, std::uint8_t byte) {
  const std::uint8_t idx =
      static_cast<std::uint8_t>((reg >> 8) ^ kRev8[byte]);
  return static_cast<std::uint16_t>((reg << 8) ^ kTable[idx]);
}

}  // namespace

std::uint16_t crc16_compute(const sim::BitVector& bits, std::uint8_t uap) {
  auto reg = static_cast<std::uint16_t>(uap << 8);
  const std::size_t n = bits.size();
  std::size_t pos = 0;
  for (; pos + 8 <= n; pos += 8) {
    reg = feed_byte(reg,
                    static_cast<std::uint8_t>(bits.extract_word(pos, 8)));
  }
  for (; pos < n; ++pos) reg = feed(reg, bits[pos]);
  return reg;
}

std::uint16_t crc16_compute(const std::vector<std::uint8_t>& bytes,
                            std::uint8_t uap) {
  auto reg = static_cast<std::uint16_t>(uap << 8);
  for (std::uint8_t byte : bytes) reg = feed_byte(reg, byte);
  return reg;
}

bool crc16_check(const std::vector<std::uint8_t>& bytes, std::uint8_t uap,
                 std::uint16_t crc) {
  return crc16_compute(bytes, uap) == crc;
}

std::uint16_t crc16_single_bit(std::size_t bits_after) {
  assert(bits_after < kCrc16MaxTailBits);
  return kSingleBit[bits_after];
}

}  // namespace btsc::baseband
