// Data whitening (scrambling).
//
// Before transmission, header and payload are XORed with the output of a
// 7-bit LFSR with polynomial g(D) = D^7 + D^4 + 1, initialised from the
// master clock bits CLK[6:1] with the register MSB forced to 1. The same
// operation descrambles, so whitening is an involution for a given clock.
//
// The word path precomputes, for every 7-bit register state, the next 64
// output bits and the register state 64 steps later (a 2 KiB table built
// once from the LFSR definition itself). apply() then XORs whole 64-bit
// keystream words onto the packed BitVector instead of stepping the
// register once per bit.
#pragma once

#include <array>
#include <cstdint>

#include "baseband/bit_reverse.hpp"
#include "sim/bitvector.hpp"

namespace btsc::baseband {

class Whitener {
 public:
  /// `init7` is the 7-bit register seed. Use from_clock() for the
  /// spec-defined initialisation.
  explicit Whitener(std::uint8_t init7) : reg_(init7 & 0x7Fu) {}

  /// Spec initialisation: register = 1 (MSB) concatenated with CLK[6:1].
  static Whitener from_clock(std::uint32_t clk) {
    return Whitener(
        static_cast<std::uint8_t>(0x40u | ((clk >> 1) & 0x3Fu)));
  }

  /// Next scrambling bit.
  bool next() {
    const bool out = (reg_ >> 6) & 1u;
    const bool fb = out != static_cast<bool>((reg_ >> 3) & 1u);
    reg_ = static_cast<std::uint8_t>(((reg_ << 1) & 0x7Fu) | fb);
    return out;
  }

  /// Returns the next `nbits` (<= 64) of the keystream, LSB-first (bit i
  /// of the result whitens the i-th upcoming air bit), advancing the
  /// register by `nbits` steps. O(1): the register after n steps is
  /// read back from output bits n..n+6 of the 64-step table entry.
  std::uint64_t keystream(unsigned nbits) {
    const Step& s = steps()[reg_];
    if (nbits == 64) {
      reg_ = s.next;
      return s.stream;
    }
    if (nbits <= kMaxReadBack) {
      reg_ = register_at(s.stream, nbits);
    } else {
      const std::uint8_t mid = register_at(s.stream, kMaxReadBack);
      reg_ = register_at(steps()[mid].stream, nbits - kMaxReadBack);
    }
    return s.stream & ((1ull << nbits) - 1);
  }

  /// XORs the stream onto `bits` in place, starting from the current
  /// register state, one 64-bit keystream word at a time.
  void apply(sim::BitVector& bits) {
    std::size_t pos = 0;
    const std::size_t n = bits.size();
    while (pos < n) {
      const unsigned chunk =
          static_cast<unsigned>(n - pos < 64 ? n - pos : 64);
      bits.xor_word(pos, keystream(chunk), chunk);
      pos += chunk;
    }
  }

  std::uint8_t state() const { return reg_; }

  friend bool operator==(const Whitener&, const Whitener&) = default;

 private:
  struct Step {
    std::uint64_t stream = 0;  // 64 output bits, LSB first
    std::uint8_t next = 0;     // register state 64 steps later
  };

  /// The register's bit 6 is the next output bit and each step shifts
  /// it up by one, so after n steps it holds output bits n..n+6 in
  /// reverse order -- readable from a 64-bit stream for n <= 57.
  static constexpr unsigned kMaxReadBack = 64 - 7;
  static std::uint8_t register_at(std::uint64_t stream, unsigned n) {
    return static_cast<std::uint8_t>(
        kRev8[static_cast<std::uint8_t>((stream >> n) & 0x7Fu)] >> 1);
  }

  /// state -> (64 keystream bits, state after 64 steps); built once from
  /// the single-step definition above.
  static const std::array<Step, 128>& steps() {
    static const std::array<Step, 128> table = [] {
      std::array<Step, 128> t{};
      for (unsigned s = 0; s < 128; ++s) {
        Whitener w(static_cast<std::uint8_t>(s));
        for (unsigned i = 0; i < 64; ++i) {
          t[s].stream |= static_cast<std::uint64_t>(w.next()) << i;
        }
        t[s].next = w.state();
      }
      return t;
    }();
    return table;
  }

  std::uint8_t reg_;
};

}  // namespace btsc::baseband
