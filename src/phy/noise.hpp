// Channel noise as one random stream per transmitting port.
//
// The paper's channel inverts each defined bit independently with
// probability BER. A port does not draw that coin per bit: its stream
// holds the gap to its next flipped bit, a Geometric(BER) count, and
// draws a new gap only when a flip happens -- at BER 1/5000 that is one
// draw per ~5000 bits. A per-bit drive consumes the gap one bit at a
// time (flip()), a burst run consumes a whole packet at once (advance()),
// and both walk the same gaps in the port's own bit order, so the two
// transports flip the same bits whatever the event order.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/rng.hpp"
#include "sim/snapshot.hpp"

namespace btsc::phy {

/// A bit-error rate with the table its Geometric(BER) gaps are drawn
/// from.
///
/// A gap G is drawn by inversion: for u uniform in (0, 1], G is the
/// largest k with u <= q^k, q = 1 - BER, so P(G >= k) = q^k. The search
/// sets G's bits from the top against the survival probabilities
/// q^(2^j), precomputed by repeated squaring -- IEEE multiplies and
/// compares only, no libm call, so every platform draws the same gaps.
class FlipRate {
 public:
  /// Gap of a rate that never flips (BER <= 0).
  static constexpr std::uint64_t kNever = ~0ull;

  explicit FlipRate(double ber = 0.0) : ber_(ber) {
    if (ber <= 0.0 || ber >= 1.0) return;
    // q^(2^j) = 1 - r_j with r_{j+1} = r_j (2 - r_j). While q^(2^j) > 1/2
    // it comes from r_j, which keeps the BER's relative precision (1 - BER
    // alone would round most of a tiny BER away); below 1/2, squaring
    // stays within a few ulps. Bit j of a gap can be set only while
    // q^(2^j) >= 2^-53, the smallest u.
    double r = ber;
    double q = 1.0 - ber;
    while (levels_ < 64) {
      if (r < 0.5) q = 1.0 - r;
      if (q < 0x1.0p-53) break;
      q_pow2_[static_cast<std::size_t>(levels_++)] = q;
      r *= 2.0 - r;
      q *= q;
    }
    // gap_at() needs the table decreasing in j; it is strictly so below
    // 1.0 (a BER so small that 1 - BER rounds to 1 repeats 1.0).
    for (int j = 1; j < levels_; ++j) {
      assert(q_pow2_[static_cast<std::size_t>(j)] <
                 q_pow2_[static_cast<std::size_t>(j - 1)] ||
             q_pow2_[static_cast<std::size_t>(j)] == 1.0);
    }
  }

  /// Unflipped bits before the next flip (saturating at kNever), one
  /// draw. BER <= 0 never flips and BER >= 1 flips every bit; neither
  /// draws.
  std::uint64_t draw_gap(sim::Rng& rng) const {
    if (ber_ >= 1.0) return 0;
    if (levels_ == 0) return kNever;
    return gap_at(static_cast<double>((rng.next() >> 11) + 1) * 0x1.0p-53);
  }

  /// The gap a draw of `u` in (0, 1] inverts to. Until the first set
  /// bit the survival q^g is exactly 1.0, so bit j is set there iff
  /// u <= q^(2^j); the table decreases in j, so the top set bit is the
  /// number of levels with u <= q^(2^j), minus one. Only the bits below
  /// it need the multiply chain.
  std::uint64_t gap_at(double u) const {
    int top = 0;
    for (int j = 0; j < levels_; ++j) {
      top += u <= q_pow2_[static_cast<std::size_t>(j)];
    }
    if (top-- == 0) return 0;
    double survival = q_pow2_[static_cast<std::size_t>(top)];
    std::uint64_t g = 1ull << top;
    for (int j = top - 1; j >= 0; --j) {
      const double t = survival * q_pow2_[static_cast<std::size_t>(j)];
      const bool set = u <= t;
      survival = set ? t : survival;
      g |= static_cast<std::uint64_t>(set) << j;
    }
    return g;
  }

  /// The survival table q^(2^j), j < its size.
  std::span<const double> survival_table() const {
    return {q_pow2_.data(), static_cast<std::size_t>(levels_)};
  }

 private:
  double ber_;
  int levels_ = 0;
  std::array<double, 64> q_pow2_{};  // q^(2^j), j < levels_
};

/// One port's noise: its stream and the gap to its next flipped bit.
class NoiseStream {
 public:
  /// Restarts the stream from `seed` and draws the first gap.
  void reseed(std::uint64_t seed, const FlipRate& rate) {
    rng_.reseed(seed);
    gap_ = rate.draw_gap(rng_);
  }

  /// Draws a fresh gap under a new rate (flips are memoryless).
  void redraw(const FlipRate& rate) { gap_ = rate.draw_gap(rng_); }

  /// Consumes one defined bit; true when it flips.
  bool flip(const FlipRate& rate) {
    if (gap_ == 0) {
      gap_ = rate.draw_gap(rng_);
      return true;
    }
    --gap_;
    return false;
  }

  /// True when the next `n` defined bits hold no flip: the stream's
  /// gap exceeds them.
  bool quiet_for(std::size_t n) const { return gap_ >= n; }

  /// Consumes `n` defined bits at once -- exactly n flip() calls -- and
  /// returns how many flip. Each flipped bit's index in 0..n-1 is
  /// appended, ascending, to `flips` unless it is null.
  std::uint64_t advance(std::size_t n, std::vector<std::uint32_t>* flips,
                        const FlipRate& rate) {
    std::uint64_t left = n;
    std::uint64_t pos = 0;
    std::uint64_t count = 0;
    while (gap_ < left) {
      pos += gap_;
      if (flips != nullptr) flips->push_back(static_cast<std::uint32_t>(pos));
      ++pos;
      ++count;
      left -= gap_ + 1;
      gap_ = rate.draw_gap(rng_);
    }
    gap_ -= left;
    return count;
  }

  bool operator==(const NoiseStream& o) const {
    return gap_ == o.gap_ && rng_.state() == o.rng_.state();
  }

  void save_state(sim::SnapshotWriter& w) const { io(*this, w); }
  void restore_state(sim::SnapshotReader& r) { io(*this, r); }

 private:
  template <class Self, class Ar>
  static void io(Self& s, Ar& a) {
    a.io(sim::prop(s.rng_, &sim::Rng::state, &sim::Rng::set_state), s.gap_);
  }

  sim::Rng rng_;
  std::uint64_t gap_ = FlipRate::kNever;
};

}  // namespace btsc::phy
