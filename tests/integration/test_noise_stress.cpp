// Noise and failure-injection stress on a live link: the ARQ invariants
// (no loss, no duplication, no reordering) must hold at any BER where
// packets still occasionally get through, and links must survive abrupt
// channel-quality swings.
#include <gtest/gtest.h>

#include <memory>

#include "core/system.hpp"
#include "core/traffic.hpp"

namespace btsc::core {
namespace {

using namespace btsc::sim::literals;

std::unique_ptr<BluetoothSystem> connected(std::uint64_t seed) {
  SystemConfig sc;
  sc.num_slaves = 1;
  sc.seed = seed;
  sc.lc.inquiry_timeout_slots = 32768;
  sc.lc.page_timeout_slots = 16384;
  auto sys = std::make_unique<BluetoothSystem>(sc);
  return sys->create_piconet() ? std::move(sys) : nullptr;
}

// ARQ end-to-end invariants across a BER sweep.
class ArqUnderNoise : public ::testing::TestWithParam<double> {};

TEST_P(ArqUnderNoise, LosslessOrderedExactlyOnce) {
  const double ber = GetParam();
  auto sys = connected(60 + static_cast<std::uint64_t>(1e5 * ber));
  ASSERT_NE(sys, nullptr);
  sys->channel().set_ber(ber);

  std::vector<int> received;
  lm::LinkManager::Events ev;
  ev.user_data = [&](std::uint8_t, std::vector<std::uint8_t> d) {
    received.push_back(d.at(0) | (d.at(1) << 8));
  };
  sys->slave_lm(0).set_events(std::move(ev));

  constexpr int kMessages = 60;
  for (int i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(sys->master().lc().send_acl(
        1, baseband::kLlidStart,
        {static_cast<std::uint8_t>(i & 0xFF),
         static_cast<std::uint8_t>(i >> 8)}));
    sys->run(50_ms);  // pace the sends to stay under queue capacity
  }
  sys->run(20_sec);

  ASSERT_EQ(received.size(), static_cast<std::size_t>(kMessages))
      << "ARQ lost or duplicated messages at BER " << ber;
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(received[static_cast<std::size_t>(i)], i) << "reordering";
  }
}

INSTANTIATE_TEST_SUITE_P(Bers, ArqUnderNoise,
                         ::testing::Values(0.0, 1e-4, 1e-3, 1.0 / 300.0));

TEST(NoiseStress, LinkSurvivesBerBursts) {
  auto sys = connected(71);
  ASSERT_NE(sys, nullptr);
  int delivered = 0;
  lm::LinkManager::Events ev;
  ev.user_data = [&](std::uint8_t, std::vector<std::uint8_t>) {
    ++delivered;
  };
  sys->slave_lm(0).set_events(std::move(ev));
  PeriodicTrafficSource source(sys->master(), 1, 50, 4);

  // Alternate clean and brutal channel conditions.
  for (int burst = 0; burst < 6; ++burst) {
    sys->channel().set_ber(burst % 2 == 0 ? 0.0 : 1.0 / 25.0);
    sys->run(2_sec);
  }
  sys->channel().set_ber(0.0);
  const int before = delivered;
  sys->run(5_sec);
  // After the last burst the link must still deliver fresh traffic.
  EXPECT_GT(delivered, before + 100);
  EXPECT_TRUE(sys->master().lc().is_master());
  EXPECT_EQ(sys->slave(0).lc().state(), baseband::LcState::kConnectionSlave);
}

TEST(NoiseStress, SniffedLinkKeepsArqGuarantees) {
  auto sys = connected(101);
  ASSERT_NE(sys, nullptr);
  sys->channel().set_ber(1e-3);
  sys->master().lc().master_set_sniff(1, 40, 0, 1);
  sys->slave(0).lc().slave_set_sniff(40, 0, 1);
  std::vector<int> received;
  lm::LinkManager::Events ev;
  ev.user_data = [&](std::uint8_t, std::vector<std::uint8_t> d) {
    received.push_back(d.at(0));
  };
  sys->slave_lm(0).set_events(std::move(ev));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(sys->master().lc().send_acl(
        1, baseband::kLlidStart, {static_cast<std::uint8_t>(i)}));
    sys->run(100_ms);
  }
  sys->run(10_sec);
  ASSERT_EQ(received.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(received[static_cast<std::size_t>(i)], i);
}

TEST(NoiseStress, QueueBackpressureIsVisible) {
  auto sys = connected(111);
  ASSERT_NE(sys, nullptr);
  sys->channel().set_ber(1.0 / 25.0);  // nothing gets through
  int accepted = 0;
  for (int i = 0; i < 200; ++i) {
    accepted += sys->master().lc().send_acl(1, baseband::kLlidStart, {1});
  }
  EXPECT_LT(accepted, 200) << "queue must eventually refuse";
  EXPECT_GE(accepted, 60) << "capacity should be ~64 messages";
}

}  // namespace
}  // namespace btsc::core
