// Two piconets sharing the 79-channel medium: both must form and carry
// traffic; interference shows up as collisions and retransmissions, not
// deadlock.
#include "core/coexistence.hpp"

#include <gtest/gtest.h>

#include "core/experiments.hpp"
#include "core/metrics.hpp"
#include "core/traffic.hpp"

namespace btsc::core {
namespace {

using namespace btsc::sim::literals;

TEST(CoexistenceTest, BothPiconetsForm) {
  TwoPiconets net(3);
  ASSERT_TRUE(net.create(0));
  ASSERT_TRUE(net.create(1));  // forms while piconet 0 is live
  EXPECT_TRUE(net.master(0).lc().is_master());
  EXPECT_TRUE(net.master(1).lc().is_master());
  EXPECT_EQ(net.slave(0).lc().state(), baseband::LcState::kConnectionSlave);
  EXPECT_EQ(net.slave(1).lc().state(), baseband::LcState::kConnectionSlave);
}

TEST(CoexistenceTest, SecondPageAfterCreateCompletes) {
  // create() must not leave its handlers installed: a page started by
  // hand afterwards completes without reaching create()'s frame.
  TwoPiconets net(3);
  ASSERT_TRUE(net.create(0));
  const baseband::DiscoveredDevice found =
      net.master(0).lc().discovered().front();
  net.slave(0).lc().enable_page_scan();
  net.master(0).lc().enable_page(found.addr, found.clkn_offset);
  for (int ms = 0; ms < 12000 && net.slave(0).lc().state() !=
                                    baseband::LcState::kConnectionSlave;
       ++ms) {
    net.run(1_ms);
  }
  net.run(100_ms);  // the slave answers the first POLL: page complete
  EXPECT_TRUE(net.master(0).lc().is_master());
  EXPECT_EQ(net.slave(0).lc().state(), baseband::LcState::kConnectionSlave);
}

TEST(CoexistenceTest, TrafficAfterRunCoexistenceFromLeavesNoHandler) {
  // run_coexistence_from() resets the victim slave's handler before it
  // returns: traffic started afterwards must not reach its frame.
  auto net = coexistence_warmup(2030);
  CoexistenceRunConfig cfg;
  cfg.measure_slots = 200;
  run_coexistence_from(*net, 4, cfg);
  const std::uint64_t sent = net->master(0).lc().stats().data_tx;
  SaturatingTrafficSource more(net->master(0), 1, cfg.payload_bytes);
  net->run(200_ms);
  EXPECT_GT(net->master(0).lc().stats().data_tx, sent);
}

TEST(CoexistenceTest, BothLinksCarryDataSimultaneously) {
  TwoPiconets net(5);
  ASSERT_TRUE(net.create(0));
  ASSERT_TRUE(net.create(1));
  int got0 = 0, got1 = 0;
  lm::LinkManager::Events e0, e1;
  e0.user_data = [&](std::uint8_t, std::vector<std::uint8_t>) { ++got0; };
  e1.user_data = [&](std::uint8_t, std::vector<std::uint8_t>) { ++got1; };
  net.slave_lm(0).set_events(std::move(e0));
  net.slave_lm(1).set_events(std::move(e1));
  PeriodicTrafficSource t0(net.master(0), 1, 20, 5);
  PeriodicTrafficSource t1(net.master(1), 1, 20, 5);
  net.run(5_sec);
  // 5 s / 20 slots = 400 messages each; ARQ absorbs the collisions.
  EXPECT_GT(got0, 350);
  EXPECT_GT(got1, 350);
}

TEST(CoexistenceTest, CollisionsObservedOnSharedMedium) {
  TwoPiconets net(7);
  ASSERT_TRUE(net.create(0));
  ASSERT_TRUE(net.create(1));
  PeriodicTrafficSource t0(net.master(0), 1, 4, 17);  // heavy traffic
  PeriodicTrafficSource t1(net.master(1), 1, 4, 17);
  const auto before = net.channel().collision_samples();
  net.run(10_sec);
  // Independent hop sequences overlap on ~1/79 of slots: with both links
  // near-saturated for 10 s there must be visible collision samples.
  EXPECT_GT(net.channel().collision_samples(), before);
}

TEST(CoexistenceTest, InterferenceCostsRetransmissions) {
  // Identical traffic on link 0, with and without a live neighbour.
  auto run_case = [](bool with_neighbour) {
    TwoPiconets net(11);
    if (!net.create(0)) return std::uint64_t{0};
    if (with_neighbour && !net.create(1)) return std::uint64_t{0};
    PeriodicTrafficSource t0(net.master(0), 1, 4, 17);
    std::unique_ptr<PeriodicTrafficSource> t1;
    if (with_neighbour) {
      t1 = std::make_unique<PeriodicTrafficSource>(net.master(1), 1, 4, 17);
    }
    const auto before = net.master(0).lc().stats().retransmissions;
    net.run(10_sec);
    return net.master(0).lc().stats().retransmissions - before;
  };
  const auto alone = run_case(false);
  const auto crowded = run_case(true);
  EXPECT_GE(crowded, alone);
  EXPECT_GT(crowded, 0u) << "1/79 slot overlap must cause some loss";
}

}  // namespace
}  // namespace btsc::core
