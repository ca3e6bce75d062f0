// Access code construction and sync-word correlation.
//
// Every packet starts with an access code derived from a LAP: the channel
// access code (CAC, master's LAP) in connection state, the device access
// code (DAC, paged slave's LAP) during paging, and the inquiry access
// codes (GIAC/DIAC) during inquiry.
//
// The 64-bit sync word embeds the 24-bit LAP in a (64,30) expurgated BCH
// block code XORed with a fixed 64-bit PN sequence, giving large Hamming
// distance between sync words of different LAPs and strong resistance to
// false triggers on noise. A 4-bit preamble precedes the sync word and a
// 4-bit trailer follows it whenever a header comes next:
//
//   ID packet          : preamble(4) + sync(64)              = 68 bits
//   packet with header : preamble(4) + sync(64) + trailer(4) = 72 bits
//
// The receiver correlates the incoming bit stream against the expected
// sync word and triggers when at least `kSyncCorrelationThreshold` of the
// 64 positions match (spec-like sliding correlator).
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>

#include "sim/bitvector.hpp"

namespace btsc::baseband {

/// Correlator acceptance threshold: a window matches when at least this
/// many of the 64 sync bits agree (54 allows up to 10 bit errors, the
/// customary choice for Bluetooth correlators).
inline constexpr int kSyncCorrelationThreshold = 54;

inline constexpr std::size_t kSyncWordBits = 64;
inline constexpr std::size_t kIdPacketBits = 68;     // preamble + sync
inline constexpr std::size_t kAccessCodeBits = 72;   // + trailer

/// 64-bit sync word for a LAP ((64,30) BCH codeword XOR PN sequence).
/// Bit i of the result is air bit i (bit 0 is the first bit on air).
std::uint64_t sync_bits(std::uint32_t lap);

/// One LAP's access code, BCH-encoded once: the sync word and the 72
/// air bits preamble + sync + trailer, packed LSB-first (bit i = air bit
/// i) in two words.
struct AccessCode {
  std::uint32_t lap = 0;
  std::uint64_t sync = 0;
  std::uint64_t lo = 0;  // air bits 0..63
  std::uint64_t hi = 0;  // air bits 64..71

  static AccessCode of(std::uint32_t lap);

  /// Air bits [first, first + n), LSB first; n in 1..64, first + n <= 72.
  std::uint64_t bits(std::size_t first, unsigned n) const {
    assert(n >= 1 && n <= 64 && first + n <= kAccessCodeBits);
    std::uint64_t v;
    if (first >= 64) {
      v = hi >> (first - 64);
    } else if (first == 0) {
      v = lo;
    } else {
      v = (lo >> first) | (hi << (64 - first));
    }
    return n == 64 ? v : v & ((1ull << n) - 1);
  }

  /// Appends the first `n` (68 or 72) air bits to `out`.
  void append_to(sim::BitVector& out, std::size_t n) const {
    out.append_uint(lo, 64);
    out.append_uint(hi, static_cast<unsigned>(n - 64));
  }
};

/// The access codes of the few LAPs one device uses (its own, its
/// master's, the inquiry access code, a page target), each computed on
/// first use; a LAP beyond the capacity evicts the oldest entry.
class AccessCodeCache {
 public:
  const AccessCode& get(std::uint32_t lap) {
    lap &= 0xFFFFFFu;
    for (std::size_t i = 0; i < used_; ++i) {
      if (entries_[i].lap == lap) return entries_[i];
    }
    const std::size_t slot = used_ < entries_.size() ? used_++ : evict_++;
    evict_ %= entries_.size();
    entries_[slot] = AccessCode::of(lap);
    return entries_[slot];
  }

 private:
  std::array<AccessCode, 4> entries_{};
  std::size_t used_ = 0;
  std::size_t evict_ = 0;
};

/// Sliding sync-word correlator. The 64-bit shift register holds the
/// last 64 received bits (bit i = air bit i of the candidate window), so
/// one XOR + popcount gives the Hamming match per position, and a whole
/// word of known-quiet bits can be shifted in at once.
class Correlator {
 public:
  Correlator() = default;
  /// Correlates against `sync` (a sync_bits() word).
  explicit Correlator(std::uint64_t sync) : expected_(sync) {}

  /// Shifts one received bit in; returns true when the window correlates
  /// above threshold (sync detected at this bit position).
  bool push(bool bit);

  /// Number of zero bits, of at most `count`, that shift in before the
  /// first that fires, or `count` when none does: the probe of a silent
  /// medium (all 'Z', sliced as zeros).
  std::size_t silent_prefix(std::size_t count) const;

  /// Shifts `n` (1..64) bits in at once, LSB of `bits` first, WITHOUT
  /// fire checks: the caller must know (e.g. from a prior probe on a
  /// copy) that no position in the span correlates above threshold.
  void advance(std::uint64_t bits, unsigned n) {
    assert(n >= 1 && n <= 64);
    window_ = n == 64 ? bits : (window_ >> n) | (bits << (64 - n));
    bits_seen_ += n;
  }

  /// The sync word this correlator searches for.
  std::uint64_t expected() const { return expected_; }

  void reset();

  friend bool operator==(const Correlator&, const Correlator&) = default;

  /// Checkpoint layout of the raw registers (see sim/snapshot.hpp).
  template <class Self, class Ar>
  static void io(Self& c, Ar& a) {
    a.io(c.expected_, c.window_, c.bits_seen_);
  }

 private:
  bool matches(std::uint64_t w) const {
    return 64 - std::popcount(w ^ expected_) >= kSyncCorrelationThreshold;
  }

  std::uint64_t expected_ = 0;  // sync bits packed, bit i = air bit i
  std::uint64_t window_ = 0;
  std::uint64_t bits_seen_ = 0;
};

}  // namespace btsc::baseband
