#include "baseband/access_code.hpp"

#include <bit>

namespace btsc::baseband {
namespace {

// 64-bit PN (pseudo-random noise) sequence XORed over the BCH codeword
// (spec part B, access code construction). Bit 0 = first on air.
constexpr std::uint64_t kPnSequence = 0x83848D96BBCC54FCull;

// Generator polynomial of the (64,30) expurgated BCH code, degree 34
// (octal 260534236651 in the specification).
constexpr std::uint64_t kBchGenerator = 0260534236651ull;

/// Barker extension appended to the LAP to form the 30 information bits:
/// 001101b when LAP bit 23 is 0, 110010b otherwise (guarantees good
/// autocorrelation at the sync word edges).
constexpr std::uint32_t barker_for(std::uint32_t lap) {
  return ((lap >> 23) & 1u) ? 0b110010u : 0b001101u;
}

}  // namespace

std::uint64_t sync_bits(std::uint32_t lap) {
  lap &= 0xFFFFFFu;
  // 30 information bits: LAP (bits 0..23) then Barker extension (24..29).
  const std::uint64_t info =
      static_cast<std::uint64_t>(lap) |
      (static_cast<std::uint64_t>(barker_for(lap)) << 24);
  // Scramble the information with the upper 30 PN bits before encoding.
  const std::uint64_t info_tilde = info ^ (kPnSequence >> 34);
  // Systematic BCH: codeword = info * D^34 + (info * D^34 mod g).
  std::uint64_t reg = info_tilde << 34;
  for (int bit = 63; bit >= 34; --bit) {
    if ((reg >> bit) & 1u) {
      reg ^= kBchGenerator << (bit - 34);
    }
  }
  const std::uint64_t parity = reg;  // degree < 34
  const std::uint64_t codeword = (info_tilde << 34) | parity;
  // Unscramble the whole word with the PN sequence.
  return codeword ^ kPnSequence;
}

AccessCode AccessCode::of(std::uint32_t lap) {
  AccessCode c;
  c.lap = lap & 0xFFFFFFu;
  c.sync = sync_bits(c.lap);
  // Preamble 0101/1010 (air order, first bit in the LSB): alternating
  // pattern ending opposite to the first sync bit, so the edge keeps
  // alternating into the sync word.
  const std::uint64_t preamble = (c.sync & 1u) ? 0b0101u : 0b1010u;
  // Trailer extends the alternation after the last sync bit.
  const std::uint64_t trailer = (c.sync >> 63) ? 0b1010u : 0b0101u;
  c.lo = preamble | (c.sync << 4);
  c.hi = (c.sync >> 60) | (trailer << 4);
  return c;
}

bool Correlator::push(bool bit) {
  // window_ bit 63 holds the newest bit; air bit i of the candidate sync
  // word sits at position i after the shift history aligns.
  window_ = (window_ >> 1) | (static_cast<std::uint64_t>(bit) << 63);
  ++bits_seen_;
  return bits_seen_ >= kSyncWordBits && matches(window_);
}

std::size_t Correlator::silent_prefix(std::size_t count) const {
  // Shifting zeros in never raises the window's weight, and a window of
  // weight w differs from the sync word in at least popcount(sync) - w
  // positions. Past the tolerated 64 - threshold errors, no window of
  // this silence can fire.
  if (std::popcount(expected_) - std::popcount(window_) >
      64 - kSyncCorrelationThreshold) {
    return count;
  }
  // Otherwise dry-run a copy: after 64 zero shifts the window is stable,
  // so either a fire happens within the first 65 pushes or never (a
  // degenerate sync word of weight <= 10 does correlate with silence).
  Correlator c = *this;
  const std::size_t limit = count < 65 ? count : 65;
  for (std::size_t i = 0; i < limit; ++i) {
    if (c.push(false)) return i;
  }
  return count;
}

void Correlator::reset() {
  window_ = 0;
  bits_seen_ = 0;
}

}  // namespace btsc::baseband
