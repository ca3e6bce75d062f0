// BitVector helpers for tests: a '0'/'1' string form and range-checked
// single-bit and field access. The simulator only appends, XORs and
// reads words; these spell test vectors and corrupt them bit by bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "sim/bitvector.hpp"

namespace btsc::test {

/// Builds from a string of '0'/'1' characters (index 0 = first on air).
inline sim::BitVector bits(const std::string& s) {
  sim::BitVector v;
  v.reserve(s.size());
  for (char c : s) {
    if (c != '0' && c != '1') {
      throw std::invalid_argument("bits: bad character in bit string");
    }
    v.push_back(c == '1');
  }
  return v;
}

/// The '0'/'1' string of `v`, first bit on air first.
inline std::string to_string(const sim::BitVector& v) {
  std::string s;
  s.reserve(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) s.push_back(v[i] ? '1' : '0');
  return s;
}

/// Reads `nbits` (<= 64) starting at `pos`, first bit = LSB.
inline std::uint64_t extract_uint(const sim::BitVector& v, std::size_t pos,
                                  unsigned nbits) {
  if (nbits > 64 || pos > v.size() || nbits > v.size() - pos) {
    throw std::out_of_range("extract_uint");
  }
  return v.extract_word(pos, nbits);
}

/// Copies `len` bits starting at `pos` into a new vector.
inline sim::BitVector slice(const sim::BitVector& v, std::size_t pos,
                            std::size_t len) {
  if (pos > v.size() || len > v.size() - pos) {
    throw std::out_of_range("slice");
  }
  sim::BitVector out;
  out.reserve(len);
  out.append_range(v, pos, len);
  return out;
}

inline void flip_bit(sim::BitVector& v, std::size_t i) {
  if (i >= v.size()) throw std::out_of_range("flip_bit");
  v.xor_word(i, 1, 1);
}

inline void set_bit(sim::BitVector& v, std::size_t i, bool b) {
  if (i >= v.size()) throw std::out_of_range("set_bit");
  if (v[i] != b) v.xor_word(i, 1, 1);
}

}  // namespace btsc::test
