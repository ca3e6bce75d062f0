// A recording burst sink for the PHY and receiver suites.
#pragma once

#include <cstddef>
#include <vector>

#include "phy/radio.hpp"

namespace btsc::test {

/// Burst sink that accepts every span as quiet (never forces a barrier)
/// and records the sample stream, bulk runs expanded. On a channel
/// without the burst transport the radio feeds it one on_sample() per
/// bit: the per-bit reference stream.
struct QuietSink final : phy::BurstRxSink {
  std::vector<phy::Logic4> seen;
  std::size_t quiet_prefix(const phy::AirPacket*, std::size_t,
                           std::size_t count) override {
    return count;
  }
  void consume_quiet(const phy::AirPacket* run, std::size_t first,
                     std::size_t count) override {
    for (std::size_t i = 0; i < count; ++i) {
      seen.push_back(run == nullptr ? phy::Logic4::kZ
                                    : phy::from_bit(run->bits()[first + i]));
    }
  }
  void on_sample(phy::Logic4 v) override { seen.push_back(v); }
};

}  // namespace btsc::test
