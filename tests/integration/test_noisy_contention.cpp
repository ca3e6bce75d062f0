// Noisy contention, system level: two piconets on one medium at BER
// 1/100, over a fixed range of seeds. Each port draws its flips from its
// own noise stream, so noisy piconets keep one burst run per frequency
// and the burst transport must still reproduce the per-bit reference --
// rows, channel counters and root-stream position -- while fork == cold
// must hold byte for byte, snapshot images included, under both
// transports.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/coexistence.hpp"
#include "core/experiments.hpp"
#include "phy/channel.hpp"

namespace btsc::core {
namespace {

constexpr double kBer = 1.0 / 100;
constexpr std::uint32_t kNeighbourPeriodSlots = 2;  // heaviest load
constexpr std::uint32_t kMeasureSlots = 1200;

/// Sets the process-wide burst default for channels built in its scope.
class BurstDefaultGuard {
 public:
  explicit BurstDefaultGuard(bool enabled)
      : saved_(phy::NoisyChannel::burst_transport_default()) {
    phy::NoisyChannel::set_burst_transport_default(enabled);
  }
  ~BurstDefaultGuard() {
    phy::NoisyChannel::set_burst_transport_default(saved_);
  }
  BurstDefaultGuard(const BurstDefaultGuard&) = delete;
  BurstDefaultGuard& operator=(const BurstDefaultGuard&) = delete;

 private:
  bool saved_;
};

/// What one measured replication leaves behind.
struct Outcome {
  CoexistenceRow row;
  std::uint64_t bits_driven = 0;
  std::uint64_t bits_flipped = 0;
  std::uint64_t collision_samples = 0;
  std::array<std::uint64_t, 4> root_stream{};
  std::vector<std::uint8_t> image;  // snapshot after the measure stage
  std::uint64_t bits_burst = 0;     // transport telemetry, not compared
};

/// The measure stage on a warmed system: the channel turns noisy, then
/// run_coexistence_from reseeds (root and noise streams) and measures.
Outcome measure(TwoPiconets& net, std::uint64_t rep_seed) {
  const std::uint64_t driven0 = net.channel().bits_driven();
  const std::uint64_t burst0 = net.channel().bits_burst();
  net.channel().set_ber(kBer);
  CoexistenceRunConfig cfg;
  cfg.seed = rep_seed;
  cfg.measure_slots = kMeasureSlots;
  Outcome out;
  out.row = run_coexistence_from(net, kNeighbourPeriodSlots, cfg);
  out.bits_driven = net.channel().bits_driven() - driven0;
  out.bits_flipped = net.channel().bits_flipped();
  out.collision_samples = net.channel().collision_samples();
  out.root_stream = net.env().rng().state();
  out.image = net.save_snapshot();
  out.bits_burst = net.channel().bits_burst() - burst0;
  return out;
}

bool same_row(const CoexistenceRow& a, const CoexistenceRow& b) {
  return a.neighbour_period_slots == b.neighbour_period_slots &&
         a.goodput_kbps == b.goodput_kbps &&
         a.retransmissions == b.retransmissions &&
         a.collision_samples == b.collision_samples;
}

TEST(NoisyContention, BurstMatchesPerBitAndForkMatchesCold) {
  std::uint64_t flips = 0;
  std::uint64_t collisions = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::uint64_t rep_seed = seed + 100;
    Outcome cold[2];  // [burst, per-bit]
    for (int mode = 0; mode < 2; ++mode) {
      BurstDefaultGuard g(mode == 0);
      // Cold: warm up and measure in one piece. Fork: restore the
      // warm-up image into a scaffold and measure there.
      auto net = coexistence_warmup(seed);
      const std::vector<std::uint8_t> warm = net->save_snapshot();
      cold[mode] = measure(*net, rep_seed);
      auto twin = coexistence_scaffold(seed);
      twin->restore_snapshot(warm);
      const Outcome fork = measure(*twin, rep_seed);
      const char* transport = mode == 0 ? "burst" : "per-bit";
      EXPECT_TRUE(same_row(fork.row, cold[mode].row))
          << "seed " << seed << ": fork != cold rows under " << transport;
      EXPECT_TRUE(fork.image == cold[mode].image)
          << "seed " << seed << ": fork != cold images under " << transport;
    }
    const Outcome& burst = cold[0];
    const Outcome& ref = cold[1];
    EXPECT_TRUE(same_row(burst.row, ref.row))
        << "seed " << seed << ": burst row goodput "
        << burst.row.goodput_kbps << " retx " << burst.row.retransmissions
        << " collisions " << burst.row.collision_samples
        << " vs per-bit goodput " << ref.row.goodput_kbps << " retx "
        << ref.row.retransmissions << " collisions "
        << ref.row.collision_samples;
    EXPECT_EQ(burst.bits_driven, ref.bits_driven) << "seed " << seed;
    EXPECT_EQ(burst.bits_flipped, ref.bits_flipped) << "seed " << seed;
    EXPECT_EQ(burst.collision_samples, ref.collision_samples)
        << "seed " << seed;
    EXPECT_EQ(burst.root_stream, ref.root_stream) << "seed " << seed;
    // Noise does not refuse runs: the two noisy piconets keep batching
    // their packets.
    ASSERT_GT(burst.bits_driven, 0u) << "seed " << seed;
    EXPECT_GT(static_cast<double>(burst.bits_burst) /
                  static_cast<double>(burst.bits_driven),
              0.9)
        << "seed " << seed << ": " << burst.bits_burst << " of "
        << burst.bits_driven << " bits batched";
    flips += ref.bits_flipped;
    collisions += ref.row.collision_samples;
  }
  // The range really exercised noise and collisions.
  EXPECT_GT(flips, 0u);
  EXPECT_GT(collisions, 0u);
}

}  // namespace
}  // namespace btsc::core
