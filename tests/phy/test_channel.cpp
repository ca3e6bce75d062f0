#include "phy/channel.hpp"

#include <gtest/gtest.h>

#include "sim/environment.hpp"

namespace btsc::phy {
namespace {

using namespace btsc::sim::literals;
using btsc::sim::Environment;
using btsc::sim::SimTime;

TEST(ChannelTest, IdleChannelIsZ) {
  Environment env;
  NoisyChannel ch(env, "ch");
  ch.attach("a");
  EXPECT_EQ(ch.sense(0), Logic4::kZ);
  EXPECT_FALSE(ch.busy());
}

TEST(ChannelTest, SingleTransmitterVisibleOnItsFrequency) {
  Environment env;
  NoisyChannel ch(env, "ch");
  const PortId a = ch.attach("a");
  ch.drive(a, 17, Logic4::kOne);
  EXPECT_EQ(ch.sense(17), Logic4::kOne);
  EXPECT_EQ(ch.sense(18), Logic4::kZ);  // other RF channels unaffected
  EXPECT_TRUE(ch.busy());
}

TEST(ChannelTest, ReleaseReturnsToZ) {
  Environment env;
  NoisyChannel ch(env, "ch");
  const PortId a = ch.attach("a");
  ch.drive(a, 5, Logic4::kZero);
  ch.drive(a, 5, Logic4::kZ);
  EXPECT_EQ(ch.sense(5), Logic4::kZ);
  EXPECT_FALSE(ch.busy());
}

TEST(ChannelTest, SameFrequencyCollisionIsX) {
  Environment env;
  NoisyChannel ch(env, "ch");
  const PortId a = ch.attach("a");
  const PortId b = ch.attach("b");
  ch.drive(a, 10, Logic4::kOne);
  ch.drive(b, 10, Logic4::kZero);
  EXPECT_EQ(ch.sense(10), Logic4::kX);
  EXPECT_GE(ch.collision_samples(), 1u);
}

TEST(ChannelTest, AgreeingTransmittersStillCollisionFree) {
  // Two devices driving the same value resolve to that value (wired-OR
  // style resolution), matching the Logic4 table.
  Environment env;
  NoisyChannel ch(env, "ch");
  const PortId a = ch.attach("a");
  const PortId b = ch.attach("b");
  ch.drive(a, 10, Logic4::kOne);
  ch.drive(b, 10, Logic4::kOne);
  EXPECT_EQ(ch.sense(10), Logic4::kOne);
}

TEST(ChannelTest, DifferentFrequenciesDoNotCollide) {
  Environment env;
  NoisyChannel ch(env, "ch");
  const PortId a = ch.attach("a");
  const PortId b = ch.attach("b");
  ch.drive(a, 10, Logic4::kOne);
  ch.drive(b, 20, Logic4::kZero);
  EXPECT_EQ(ch.sense(10), Logic4::kOne);
  EXPECT_EQ(ch.sense(20), Logic4::kZero);
}

TEST(ChannelTest, ZeroBerNeverFlips) {
  Environment env;
  NoisyChannel ch(env, "ch");
  const PortId a = ch.attach("a");
  for (int i = 0; i < 1000; ++i) {
    ch.drive(a, 3, Logic4::kOne);
    ASSERT_EQ(ch.sense(3), Logic4::kOne);
  }
  EXPECT_EQ(ch.bits_flipped(), 0u);
  EXPECT_EQ(ch.bits_driven(), 1000u);
}

TEST(ChannelTest, BerFlipsApproximatelyBerFraction) {
  Environment env(1234);
  ChannelConfig cfg;
  cfg.ber = 1.0 / 30.0;  // worst BER studied in the paper
  NoisyChannel ch(env, "ch", cfg);
  const PortId a = ch.attach("a");
  const int n = 60000;
  int ones_seen = 0;
  for (int i = 0; i < n; ++i) {
    ch.drive(a, 0, Logic4::kOne);
    ones_seen += ch.sense(0) == Logic4::kOne;
  }
  const double flip_rate = static_cast<double>(ch.bits_flipped()) / n;
  EXPECT_NEAR(flip_rate, cfg.ber, 0.004);
  EXPECT_EQ(ones_seen, n - static_cast<int>(ch.bits_flipped()));
}

TEST(ChannelTest, NoiseNeverAffectsZ) {
  Environment env;
  ChannelConfig cfg;
  cfg.ber = 1.0;  // every defined bit flips
  NoisyChannel ch(env, "ch", cfg);
  const PortId a = ch.attach("a");
  ch.drive(a, 0, Logic4::kZ);
  EXPECT_EQ(ch.sense(0), Logic4::kZ);
  ch.drive(a, 0, Logic4::kOne);  // will be inverted by noise
  EXPECT_EQ(ch.sense(0), Logic4::kZero);
}

TEST(ChannelTest, BadArgumentsThrow) {
  Environment env;
  NoisyChannel ch(env, "ch");
  const PortId a = ch.attach("a");
  EXPECT_THROW(ch.drive(a + 1, 0, Logic4::kOne), std::out_of_range);
  EXPECT_THROW(ch.drive(a, 79, Logic4::kOne), std::out_of_range);
  EXPECT_THROW(ch.drive(a, -1, Logic4::kOne), std::out_of_range);
  // Releasing with an out-of-band frequency is allowed (freq is ignored).
  EXPECT_NO_THROW(ch.drive(a, -1, Logic4::kZ));
}

TEST(ChannelTest, InvalidConfigThrows) {
  Environment env;
  ChannelConfig bad_ber;
  bad_ber.ber = 1.5;
  EXPECT_THROW(NoisyChannel(env, "ch", bad_ber), std::invalid_argument);
}

TEST(ChannelTest, ThreeWayCollision) {
  Environment env;
  NoisyChannel ch(env, "ch");
  const PortId a = ch.attach("a");
  const PortId b = ch.attach("b");
  const PortId c = ch.attach("c");
  ch.drive(a, 0, Logic4::kOne);
  ch.drive(b, 0, Logic4::kOne);
  ch.drive(c, 0, Logic4::kZero);
  EXPECT_EQ(ch.sense(0), Logic4::kX);
  // One device releasing does not clear the conflict between the others.
  ch.drive(b, 0, Logic4::kZ);
  EXPECT_EQ(ch.sense(0), Logic4::kX);
  ch.drive(c, 0, Logic4::kZ);
  EXPECT_EQ(ch.sense(0), Logic4::kOne);
}

}  // namespace
}  // namespace btsc::phy
