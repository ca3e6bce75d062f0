// Deterministic pseudo-random number generation for simulations.
//
// The kernel deliberately does not use std::mt19937 or std::random_device:
// every experiment must be exactly reproducible from a single integer seed
// across platforms and standard-library versions. xoshiro256** (Blackman &
// Vigna) is small, fast and has well-understood statistical quality.
//
// Independent consumers draw from independent streams, each seeded by
// derive_stream_seed(seed, role, index) from the environment seed: a
// stream's draws then never depend on how the event order interleaves
// them with another consumer's. Channel noise runs one stream per
// transmitting port (phy::NoiseStream, role phy::kNoiseStreamRole) and
// draws the gap to its next flipped bit (phy::FlipRate); the receiver's
// collision coin, the inquiry backoff and clock set-up share the
// environment's root stream.
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
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  /// Re-initialises the state from a 64-bit seed via splitmix64, which
  /// guarantees a non-zero, well-mixed state for any seed value.
  void reseed(std::uint64_t seed);

  /// Raw 64 random bits.
  std::uint64_t next();

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// True with probability p (clamped to [0, 1]).
  bool bernoulli(double p);

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
