// Two co-located piconets on one channel.
//
// The paper's channel resolver exists for exactly this case: "the
// collision between packets ... is possible when the piconet is not
// already created or when two or more piconets coexist". Each piconet
// hops pseudo-randomly over the 79 RF channels under its own master
// address and clock, so two piconets collide on ~1/79 of their slots;
// collided symbols resolve to 'X' and are garbled at the receivers.
// This scenario quantifies the resulting goodput loss (the subject of
// the paper's references [3]-[5]).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "baseband/device.hpp"
#include "lm/link_manager.hpp"
#include "phy/channel.hpp"
#include "sim/environment.hpp"

namespace btsc::core {

/// Two master+slave pairs sharing one noiseless NoisyChannel, sending
/// DM1 packets. Piconet 0 and 1 are created sequentially (the second
/// forms while the first is live, so its creation already experiences
/// interference).
class TwoPiconets {
 public:
  /// `seed` is the root seed of the two-piconet system.
  explicit TwoPiconets(std::uint64_t seed);
  ~TwoPiconets();

  sim::Environment& env() { return env_; }
  phy::NoisyChannel& channel() { return channel_; }
  baseband::Device& master(int piconet);
  baseband::Device& slave(int piconet);
  lm::LinkManager& master_lm(int piconet);
  lm::LinkManager& slave_lm(int piconet);

  /// Creates piconet `p` (inquiry + page with generous timeouts).
  /// Retries until success or `max_attempts` is exhausted.
  bool create(int piconet, int max_attempts = 4);

  void run(sim::SimTime duration) { env_.run(duration); }

  // ---- checkpoint / fork ----

  /// Serializes all mutable state (channel, devices, link managers,
  /// kernel last) at a settled instant; see BluetoothSystem.
  std::vector<std::uint8_t> save_snapshot();

  /// Restores into an identically constructed twin (same seed).
  void restore_snapshot(const std::vector<std::uint8_t>& bytes);

 private:
  /// The snapshot layout, shared by save_snapshot and restore_snapshot.
  template <class Self, class Ar>
  static void io(Self& s, Ar& a);

  sim::Environment env_;
  phy::NoisyChannel channel_;
  std::vector<std::unique_ptr<baseband::Device>> devices_;  // m0 s0 m1 s1
  std::vector<std::unique_ptr<lm::LinkManager>> lms_;
};

}  // namespace btsc::core
