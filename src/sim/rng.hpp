// Deterministic pseudo-random number generation for simulations.
//
// The kernel deliberately does not use std::mt19937 or std::random_device:
// every experiment must be exactly reproducible from a single integer seed
// across platforms and standard-library versions. xoshiro256** (Blackman &
// Vigna) is small, fast and has well-understood statistical quality.
#pragma once

#include <array>
#include <cstdint>

namespace btsc::sim {

/// xoshiro256** pseudo-random generator with convenience distributions.
///
/// A default-constructed generator is seeded with a fixed constant; pass a
/// seed to get independent deterministic streams.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  /// Re-initialises the state from a 64-bit seed via splitmix64, which
  /// guarantees a non-zero, well-mixed state for any seed value.
  void reseed(std::uint64_t seed);

  /// Raw 64 random bits.
  std::uint64_t next();

  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ull; }
  std::uint64_t operator()() { return next(); }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// True with probability p (clamped to [0, 1]).
  bool bernoulli(double p);

  /// Fills `words` with an error mask of `nbits` bits: bit i is set with
  /// probability p, drawn in exactly the order nbits successive
  /// bernoulli(p) calls would draw it (bit 0 first). The generator
  /// therefore ends in the same state either way, which is what lets a
  /// burst run pre-draw a whole packet's noise flips and still be
  /// byte-identical to the per-bit reference (see phy::NoisyChannel).
  /// Unused high bits of the last word are cleared; words beyond the
  /// mask are not touched. `words` must hold ceil(nbits/64) entries.
  void fill_error_mask(std::uint64_t* words, std::size_t nbits, double p);

  /// Draws a bernoulli(p) sequence consumes per bit: 1 for 0 < p < 1
  /// (one uniform01 each), 0 otherwise (the p<=0 / p>=1 shortcuts).
  static unsigned bernoulli_draws_per_bit(double p) {
    return (p > 0.0 && p < 1.0) ? 1u : 0u;
  }

  /// Advances the stream by `n` raw draws, discarding the values. Used
  /// to replay a known draw count after set_state() when re-synchronising
  /// a pre-drawn error mask with the per-bit draw order.
  void discard(std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) next();
  }

  /// Derives the seed of an independent stream addressed by a
  /// (stream, index) pair under `base` — e.g. (point index, replication
  /// index) in a Monte-Carlo sweep. Pure function of its arguments: the
  /// result never depends on how many other streams exist or on the order
  /// they are derived in, which is what makes sweeps bitwise reproducible
  /// at any thread count.
  static std::uint64_t derive_stream_seed(std::uint64_t base,
                                          std::uint64_t stream,
                                          std::uint64_t index);

  /// Raw xoshiro256** state, for checkpointing. set_state() resumes the
  /// stream exactly where state() captured it (an all-zero state is
  /// invalid and rejected by re-seeding with the fixed default).
  const std::array<std::uint64_t, 4>& state() const { return s_; }
  void set_state(const std::array<std::uint64_t, 4>& s);

 private:
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace btsc::sim
