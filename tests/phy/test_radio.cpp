#include "phy/radio.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "phy/channel.hpp"
#include "sim/environment.hpp"
#include "support/bits.hpp"
#include "support/quiet_sink.hpp"

namespace btsc::phy {
namespace {

using namespace btsc::sim::literals;
using btsc::sim::BitVector;
using btsc::sim::Environment;
using btsc::sim::SimTime;
using btsc::test::QuietSink;

/// A per-bit channel: its receivers get one on_sample() per bit.
ChannelConfig per_bit() {
  ChannelConfig cfg;
  cfg.burst_transport = false;
  return cfg;
}

struct Rig {
  Rig() = default;
  explicit Rig(const ChannelConfig& cfg) : ch(env, "ch", cfg) {}
  Environment env;
  NoisyChannel ch{env, "ch"};
  Radio tx{env, "tx", ch};
  Radio rx{env, "rx", ch};
};

TEST(RadioTest, TransmitDrivesBitsAtOneMicrosecondEach) {
  Rig rig{per_bit()};
  QuietSink sink;
  rig.rx.set_burst_rx_sink(&sink);
  const std::vector<Logic4>& seen = sink.seen;
  rig.rx.enable_rx(7);
  rig.tx.transmit(7, test::bits("1011"));
  rig.env.run(10_us);
  // Samples at 0.5, 1.5, 2.5, 3.5 us hit the four bits; later samples Z.
  ASSERT_GE(seen.size(), 5u);
  EXPECT_EQ(seen[0], Logic4::kOne);
  EXPECT_EQ(seen[1], Logic4::kZero);
  EXPECT_EQ(seen[2], Logic4::kOne);
  EXPECT_EQ(seen[3], Logic4::kOne);
  EXPECT_EQ(seen[4], Logic4::kZ);
}

TEST(RadioTest, DoneCallbackAfterLastBit) {
  Rig rig;
  SimTime done_at = SimTime::max();
  rig.tx.transmit(0, BitVector(68), [&] { done_at = rig.env.now(); });
  rig.env.run(100_us);
  EXPECT_EQ(done_at, 68_us);  // ID packet: 68 bits -> 68 us
  EXPECT_FALSE(rig.tx.tx_busy());
}

TEST(RadioTest, TransmitWhileBusyThrows) {
  Rig rig;
  rig.tx.transmit(0, BitVector(10));
  EXPECT_TRUE(rig.tx.tx_busy());
  EXPECT_THROW(rig.tx.transmit(0, BitVector(10)), std::logic_error);
}

TEST(RadioTest, EmptyTransmitCompletesImmediately) {
  Rig rig;
  bool done = false;
  rig.tx.transmit(0, BitVector(), [&] { done = true; });
  EXPECT_TRUE(done);
  EXPECT_FALSE(rig.tx.tx_busy());
}

TEST(RadioTest, AbortReleasesMedium) {
  Rig rig;
  rig.tx.transmit(3, BitVector(100, true));
  rig.env.run(5_us);
  EXPECT_TRUE(rig.tx.tx_busy());
  rig.tx.abort_tx();
  EXPECT_FALSE(rig.tx.tx_busy());
  rig.env.settle();
  EXPECT_EQ(rig.ch.sense(3), Logic4::kZ);
  // No further bits are driven.
  const auto sent = rig.tx.bits_sent();
  rig.env.run(10_us);
  EXPECT_EQ(rig.tx.bits_sent(), sent);
}

TEST(RadioTest, RxOnlySeesTunedFrequency) {
  Rig rig{per_bit()};
  QuietSink sink;
  rig.rx.set_burst_rx_sink(&sink);
  const std::vector<Logic4>& seen = sink.seen;
  rig.rx.enable_rx(10);
  rig.tx.transmit(40, BitVector(4, true));  // different RF channel
  rig.env.run(6_us);
  for (Logic4 v : seen) EXPECT_EQ(v, Logic4::kZ);
}

TEST(RadioTest, RetuneSwitchesFrequency) {
  Rig rig{per_bit()};
  QuietSink sink;
  rig.rx.set_burst_rx_sink(&sink);
  const std::vector<Logic4>& seen = sink.seen;
  rig.rx.enable_rx(10);
  rig.tx.transmit(40, BitVector(20, true));
  rig.env.run(5_us);
  rig.rx.retune_rx(40);
  rig.env.run(5_us);
  EXPECT_EQ(seen.front(), Logic4::kZ);
  EXPECT_EQ(seen.back(), Logic4::kOne);
}

TEST(RadioTest, EnableLinesFollowTxRx) {
  Rig rig;
  rig.env.run(1_us);
  rig.tx.transmit(0, BitVector(10));
  rig.rx.enable_rx(0);
  rig.env.settle();
  EXPECT_TRUE(rig.tx.enable_tx_rf().read());
  EXPECT_TRUE(rig.rx.enable_rx_rf().read());
  rig.env.run(15_us);
  EXPECT_FALSE(rig.tx.enable_tx_rf().read());
  rig.rx.disable_rx();
  rig.env.settle();
  EXPECT_FALSE(rig.rx.enable_rx_rf().read());
}

TEST(RadioTest, ActivityAccountingMatchesEnabledTime) {
  Rig rig;
  rig.tx.transmit(0, BitVector(100));  // 100 us of TX
  rig.env.run(200_us);
  EXPECT_EQ(rig.tx.tx_on_time(), 100_us);
  EXPECT_EQ(rig.tx.rx_on_time(), SimTime::zero());

  rig.rx.enable_rx(0);
  rig.env.run(50_us);
  rig.rx.disable_rx();
  rig.env.run(50_us);
  EXPECT_EQ(rig.rx.rx_on_time(), 50_us);
}

TEST(RadioTest, ActivityIncludesOngoingInterval) {
  Rig rig;
  rig.rx.enable_rx(0);
  rig.env.run(30_us);
  EXPECT_EQ(rig.rx.rx_on_time(), 30_us);  // still enabled
}

TEST(RadioTest, ResetActivityStartsFreshWindow) {
  Rig rig;
  rig.rx.enable_rx(0);
  rig.env.run(40_us);
  rig.rx.reset_activity();
  rig.env.run(10_us);
  EXPECT_EQ(rig.rx.rx_on_time(), 10_us);
  rig.rx.disable_rx();
  EXPECT_EQ(rig.rx.rx_on_time(), 10_us);
}

TEST(RadioTest, CollisionVisibleAsX) {
  Environment env;
  NoisyChannel ch(env, "ch", per_bit());
  Radio t1(env, "t1", ch), t2(env, "t2", ch), rx(env, "rx", ch);
  QuietSink sink;
  rx.set_burst_rx_sink(&sink);
  const std::vector<Logic4>& seen = sink.seen;
  rx.enable_rx(0);
  t1.transmit(0, BitVector(10, true));
  t2.transmit(0, BitVector(10, false));
  env.run(5_us);
  ASSERT_FALSE(seen.empty());
  for (Logic4 v : seen) EXPECT_EQ(v, Logic4::kX);
}

TEST(RadioTest, BitsSampledCountsWhileEnabled) {
  Rig rig;
  rig.rx.enable_rx(0);
  rig.env.run(10_us);
  rig.rx.disable_rx();
  rig.env.run(10_us);
  EXPECT_EQ(rig.rx.bits_sampled(), 10u);
}

TEST(RadioTest, BackToBackTransmissionsFromDoneCallback) {
  Rig rig;
  int sent_packets = 0;
  std::function<void()> send_next = [&] {
    ++sent_packets;
    if (sent_packets < 3) {
      rig.tx.transmit(0, BitVector(10, true), send_next);
    }
  };
  rig.tx.transmit(0, BitVector(10, true), send_next);
  rig.env.run(100_us);
  EXPECT_EQ(sent_packets, 3);
  EXPECT_EQ(rig.tx.bits_sent(), 30u);
}

}  // namespace
}  // namespace btsc::phy
