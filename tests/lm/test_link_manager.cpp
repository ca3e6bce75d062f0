// LinkManager end-to-end: negotiated sniff/hold/park over a real link.
#include "lm/link_manager.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "baseband/device.hpp"
#include "phy/channel.hpp"
#include "sim/environment.hpp"

namespace btsc::lm {
namespace {

using namespace btsc::sim::literals;
using baseband::BdAddr;
using baseband::Device;
using baseband::DeviceConfig;
using baseband::kClockMask;
using baseband::LcState;
using baseband::LinkMode;
using btsc::phy::NoisyChannel;
using btsc::sim::Environment;
using btsc::sim::SimTime;

struct LmBed {
  explicit LmBed(std::uint64_t seed = 4)
      : env(seed), ch(env, "ch") {
    DeviceConfig mc;
    mc.addr = BdAddr(0x5A3C71, 0x4E, 1);
    mc.clkn_phase = SimTime::us(1000);
    mc.lc.inquiry_timeout_slots = 16384;
    mc.lc.page_timeout_slots = 8192;
    master_dev = std::make_unique<Device>(env, "master", mc, ch);
    DeviceConfig sc;
    sc.addr = BdAddr(0x1B9D24, 0x83, 2);
    sc.clkn_init = static_cast<std::uint32_t>(env.rng().uniform(0, kClockMask));
    sc.clkn_phase = SimTime::us(env.rng().uniform(1, 1249));
    slave_dev = std::make_unique<Device>(env, "slave", sc, ch);
    master_lm = std::make_unique<LinkManager>(*master_dev);
    slave_lm = std::make_unique<LinkManager>(*slave_dev);
  }

  bool connect() {
    std::optional<bool> inq, page;
    Events mev;
    mev.inquiry_complete = [&](bool ok) { inq = ok; };
    mev.page_complete = [&](bool ok) { page = ok; };
    master_lm->set_events(std::move(mev));
    slave_dev->lc().enable_inquiry_scan();
    master_dev->lc().enable_inquiry();
    while (!inq && env.now() < 15_sec) env.run(10_ms);
    if (!inq.value_or(false)) return false;
    const auto d = master_dev->lc().discovered()[0];
    slave_dev->lc().enable_page_scan();
    master_dev->lc().enable_page(d.addr, d.clkn_offset);
    const SimTime deadline = env.now() + 6_sec;
    while (!page && env.now() < deadline) env.run(10_ms);
    return page.value_or(false);
  }

  using Events = LinkManager::Events;

  Environment env;
  NoisyChannel ch;
  std::unique_ptr<Device> master_dev;
  std::unique_ptr<Device> slave_dev;
  std::unique_ptr<LinkManager> master_lm;
  std::unique_ptr<LinkManager> slave_lm;
};

TEST(LinkManagerTest, SetupCompleteHandshake) {
  LmBed tb;
  ASSERT_TRUE(tb.connect());
  std::optional<std::uint8_t> master_done, slave_done;
  LinkManager::Events mev;
  mev.setup_complete = [&](std::uint8_t lt) { master_done = lt; };
  tb.master_lm->set_events(std::move(mev));
  LinkManager::Events sev;
  sev.setup_complete = [&](std::uint8_t lt) { slave_done = lt; };
  tb.slave_lm->set_events(std::move(sev));
  tb.master_lm->begin_setup(1);
  tb.env.run(500_ms);
  EXPECT_EQ(slave_done, std::make_optional<std::uint8_t>(1));
  EXPECT_EQ(master_done, std::make_optional<std::uint8_t>(1));
}

TEST(LinkManagerTest, NegotiatedSniffAppliesBothEnds) {
  LmBed tb;
  ASSERT_TRUE(tb.connect());
  std::optional<bool> result;
  LinkManager::Events mev;
  mev.procedure_complete = [&](LmpOpcode op, std::uint8_t, bool ok) {
    if (op == LmpOpcode::kSniffReq) result = ok;
  };
  tb.master_lm->set_events(std::move(mev));
  tb.master_lm->request_sniff(1, 100, 0, 1);
  tb.env.run(1_sec);
  ASSERT_TRUE(result.value_or(false));
  EXPECT_EQ(tb.slave_dev->lc().slave_mode(), LinkMode::kSniff);
  const auto* link = tb.master_dev->lc().piconet().find(std::uint8_t{1});
  ASSERT_NE(link, nullptr);
  EXPECT_EQ(link->mode, LinkMode::kSniff);
  EXPECT_EQ(link->sniff_interval_slots, 100u);
}

TEST(LinkManagerTest, SlaveInitiatedSniffAlsoWorks) {
  LmBed tb;
  ASSERT_TRUE(tb.connect());
  std::optional<bool> result;
  LinkManager::Events sev;
  sev.procedure_complete = [&](LmpOpcode op, std::uint8_t, bool ok) {
    if (op == LmpOpcode::kSniffReq) result = ok;
  };
  tb.slave_lm->set_events(std::move(sev));
  tb.slave_lm->request_sniff(tb.slave_dev->lc().own_lt_addr(), 60, 0, 1);
  tb.env.run(1_sec);
  ASSERT_TRUE(result.value_or(false));
  EXPECT_EQ(tb.slave_dev->lc().slave_mode(), LinkMode::kSniff);
  const auto* link = tb.master_dev->lc().piconet().find(std::uint8_t{1});
  ASSERT_NE(link, nullptr);
  EXPECT_EQ(link->mode, LinkMode::kSniff);
}

TEST(LinkManagerTest, UnsniffRestoresActive) {
  LmBed tb;
  ASSERT_TRUE(tb.connect());
  tb.master_lm->request_sniff(1, 40, 0, 1);
  tb.env.run(1_sec);
  ASSERT_EQ(tb.slave_dev->lc().slave_mode(), LinkMode::kSniff);
  tb.master_lm->request_unsniff(1);
  tb.env.run(1_sec);
  EXPECT_EQ(tb.slave_dev->lc().slave_mode(), LinkMode::kActive);
}

TEST(LinkManagerTest, NegotiatedHoldStartsAtInstantOnBothEnds) {
  LmBed tb;
  ASSERT_TRUE(tb.connect());
  tb.env.run(100_ms);
  tb.master_lm->request_hold(1, 600);
  // Before the instant (80 slots = 50 ms) the link is still active.
  tb.env.run(20_ms);
  EXPECT_EQ(tb.slave_dev->lc().slave_mode(), LinkMode::kActive);
  // After the instant both ends are in hold.
  tb.env.run(60_ms);
  EXPECT_EQ(tb.slave_dev->lc().slave_mode(), LinkMode::kHold);
  const auto* link = tb.master_dev->lc().piconet().find(std::uint8_t{1});
  ASSERT_NE(link, nullptr);
  EXPECT_EQ(link->mode, LinkMode::kHold);
  // Hold 600 slots = 375 ms; afterwards the slave resynchronises.
  tb.env.run(500_ms);
  EXPECT_EQ(tb.slave_dev->lc().slave_mode(), LinkMode::kActive);
  EXPECT_EQ(link->mode, LinkMode::kActive);
}

TEST(LinkManagerTest, ParkAndBeaconUnpark) {
  LmBed tb;
  ASSERT_TRUE(tb.connect());
  tb.env.run(100_ms);
  tb.master_lm->request_park(1, /*pm_addr=*/9);
  tb.env.run(200_ms);
  EXPECT_EQ(tb.slave_dev->lc().slave_mode(), LinkMode::kPark);
  EXPECT_TRUE(tb.master_dev->lc().piconet().has_parked());

  tb.master_lm->request_unpark(9, 1);
  tb.env.run(500_ms);
  EXPECT_EQ(tb.slave_dev->lc().slave_mode(), LinkMode::kActive);
  const auto* link = tb.master_dev->lc().piconet().find(std::uint8_t{1});
  ASSERT_NE(link, nullptr);
  EXPECT_EQ(link->mode, LinkMode::kActive);
}

TEST(LinkManagerTest, DetachTearsDownBothSides) {
  LmBed tb;
  ASSERT_TRUE(tb.connect());
  bool slave_detached = false;
  LinkManager::Events sev;
  sev.detached = [&] { slave_detached = true; };
  tb.slave_lm->set_events(std::move(sev));
  tb.master_lm->detach(1);
  tb.env.run(500_ms);
  EXPECT_TRUE(slave_detached);
  EXPECT_EQ(tb.slave_dev->lc().state(), LcState::kStandby);
  EXPECT_TRUE(tb.master_dev->lc().piconet().slaves().empty());
}

TEST(LinkManagerTest, UserDataBypassesLmp) {
  LmBed tb;
  ASSERT_TRUE(tb.connect());
  std::vector<std::uint8_t> got;
  LinkManager::Events sev;
  sev.user_data = [&](std::uint8_t, std::vector<std::uint8_t> d) {
    got = std::move(d);
  };
  tb.slave_lm->set_events(std::move(sev));
  tb.master_dev->lc().send_acl(1, baseband::kLlidStart, {0xCA, 0xFE});
  tb.env.run(200_ms);
  EXPECT_EQ(got, (std::vector<std::uint8_t>{0xCA, 0xFE}));
}

TEST(LinkManagerTest, PduCountersAdvance) {
  LmBed tb;
  ASSERT_TRUE(tb.connect());
  tb.master_lm->request_sniff(1, 50, 0, 1);
  tb.env.run(1_sec);
  EXPECT_GE(tb.master_lm->pdus_sent(), 1u);
  EXPECT_GE(tb.slave_lm->pdus_received(), 1u);
  EXPECT_GE(tb.slave_lm->pdus_sent(), 1u);   // the accepted
  EXPECT_GE(tb.master_lm->pdus_received(), 1u);
}

}  // namespace
}  // namespace btsc::lm
