// Four-valued digital logic for the channel model.
//
// The paper's channel (its Fig. 2) abstracts the RF medium as a digital
// wire carrying {0, 1, Z, X}: Z when nobody transmits, X when a collision
// occurs. The resolution rules here implement exactly that channel
// resolver.
#pragma once

#include <cstdint>

namespace btsc::phy {

enum class Logic4 : std::uint8_t {
  kZero = 0,
  kOne = 1,
  kZ = 2,  // high impedance: no transmitter on the medium
  kX = 3,  // conflict: two or more simultaneous transmitters
};

constexpr bool is_defined(Logic4 v) {
  return v == Logic4::kZero || v == Logic4::kOne;
}

constexpr Logic4 from_bit(bool b) { return b ? Logic4::kOne : Logic4::kZero; }

/// Wired resolution of two drivers: Z yields to anything; two equal
/// defined values agree; any other combination is a conflict (X).
constexpr Logic4 resolve(Logic4 a, Logic4 b) {
  if (a == Logic4::kZ) return b;
  if (b == Logic4::kZ) return a;
  if (a == b && a != Logic4::kX) return a;
  return Logic4::kX;
}

constexpr char to_char(Logic4 v) {
  switch (v) {
    case Logic4::kZero:
      return '0';
    case Logic4::kOne:
      return '1';
    case Logic4::kZ:
      return 'z';
    default:
      return 'x';
  }
}

/// Inverts a defined level; Z and X are unchanged (noise cannot flip the
/// absence of a signal or make a collision more defined).
constexpr Logic4 invert(Logic4 v) {
  if (v == Logic4::kZero) return Logic4::kOne;
  if (v == Logic4::kOne) return Logic4::kZero;
  return v;
}

}  // namespace btsc::phy
