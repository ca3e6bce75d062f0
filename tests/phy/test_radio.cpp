#include "phy/radio.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "phy/channel.hpp"
#include "sim/environment.hpp"
#include "sim/snapshot.hpp"
#include "support/bits.hpp"
#include "support/quiet_sink.hpp"
#include "support/recording_tracer.hpp"

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
  // The transmission is done, tx_busy() low, exactly when its last bit
  // ends.
  Rig rig;
  rig.tx.transmit(0, BitVector(68));
  rig.env.run_until(68_us - 1_ns);
  EXPECT_TRUE(rig.tx.tx_busy());
  rig.env.run_until(100_us);
  EXPECT_FALSE(rig.tx.tx_busy());
  EXPECT_EQ(rig.tx.tx_on_time(), 68_us);  // ID packet: 68 bits -> 68 us
}

TEST(RadioTest, TransmitWhileBusyThrows) {
  Rig rig;
  rig.tx.transmit(0, BitVector(10));
  EXPECT_TRUE(rig.tx.tx_busy());
  EXPECT_THROW(rig.tx.transmit(0, BitVector(10)), std::logic_error);
}

TEST(RadioTest, EmptyTransmitCompletesImmediately) {
  Rig rig;
  rig.tx.transmit(0, BitVector());
  EXPECT_FALSE(rig.tx.tx_busy());
  EXPECT_TRUE(rig.env.idle());
  EXPECT_EQ(rig.tx.tx_on_time(), SimTime::zero());
}

TEST(RadioTest, AbortReleasesMedium) {
  Rig rig;
  rig.tx.transmit(3, BitVector(100, true));
  rig.env.run(5_us);
  EXPECT_TRUE(rig.tx.tx_busy());
  rig.tx.abort_tx();
  EXPECT_FALSE(rig.tx.tx_busy());
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
  Environment env;
  sim::RecordingTracer tracer(env);
  env.set_tracer(&tracer);
  NoisyChannel ch(env, "ch");
  Radio tx(env, "tx", ch);
  Radio rx(env, "rx", ch);
  // The (time, value) records of one traced line, its declaration first.
  const auto line = [&](const std::string& name) {
    std::vector<std::pair<SimTime, char>> out;
    for (const auto& r : tracer.records()) {
      if (r.name == name) out.emplace_back(SimTime::ns(r.time_ns), r.value);
    }
    return out;
  };
  const auto follows = [&] {
    EXPECT_EQ(line("tx.enable_tx_RF").back().second,
              tx.tx_busy() ? '1' : '0');
    EXPECT_EQ(line("rx.enable_rx_RF").back().second,
              rx.rx_enabled() ? '1' : '0');
  };
  env.run(1_us);
  follows();
  tx.transmit(0, BitVector(10));
  rx.enable_rx(0);
  follows();
  env.run(15_us);
  follows();
  rx.disable_rx();
  follows();
  using Records = std::vector<std::pair<SimTime, char>>;
  EXPECT_EQ(line("tx.enable_tx_RF"),
            (Records{{0_us, '0'}, {1_us, '1'}, {11_us, '0'}}));
  EXPECT_EQ(line("rx.enable_rx_RF"),
            (Records{{0_us, '0'}, {1_us, '1'}, {16_us, '0'}}));
}

TEST(RadioTest, RestoreRefusesEnableLineThatDisagreesWithState) {
  Rig rig;
  rig.rx.enable_rx(3);
  sim::SnapshotWriter w;
  rig.rx.save_state(w);
  std::vector<std::uint8_t> image = w.take();
  // The RADI body follows the stream header (magic, version) and the
  // section tag and length. Its fields, in bytes: tx_busy 1, tx_burst 1,
  // tx_freq 4, the last packet (a u64 bit count of 0) 8, tx_pos 8,
  // tx_start 8, rx_on 1, rx_freq 4, rx_mode 1, rx_anchor 8, rx_consumed
  // 8, rx_barrier_index 8, then the TX and the RX enable line.
  constexpr std::size_t kBody = 16;
  ASSERT_EQ(image[kBody + 30], 1);  // rx_on
  ASSERT_EQ(image[kBody + 61], 1);  // enable_rx_RF
  image[kBody + 61] = 0;
  const std::size_t sealed = image.size() - 8;
  const std::uint64_t sum = sim::snapshot_checksum(image.data(), sealed);
  std::memcpy(image.data() + sealed, &sum, sizeof sum);
  Rig twin;
  sim::SnapshotReader r(image);
  EXPECT_THROW(twin.rx.restore_state(r), sim::SnapshotError);
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
  // The next transmission starts from a timer at the done instant. Each
  // transmission's end-of-packet timer is scheduled before that
  // same-instant timer, so the transmitter is free again when it fires.
  Rig rig;
  std::vector<SimTime> starts;
  std::function<void()> send_next = [&] {
    starts.push_back(rig.env.now());
    rig.tx.transmit(0, BitVector(10, true));
    if (starts.size() < 3) rig.env.schedule(10_us, send_next);
  };
  send_next();
  rig.env.run(100_us);
  EXPECT_EQ(starts, (std::vector<SimTime>{0_us, 10_us, 20_us}));
  EXPECT_EQ(rig.tx.bits_sent(), 30u);
  EXPECT_EQ(rig.tx.tx_on_time(), 30_us);
}

}  // namespace
}  // namespace btsc::phy
