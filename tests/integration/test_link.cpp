// End-to-end baseband integration: piconet creation (inquiry + page),
// data exchange with ARQ, and the low-power modes.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "baseband/device.hpp"
#include "phy/channel.hpp"
#include "sim/environment.hpp"

namespace btsc::baseband {
namespace {

using namespace btsc::sim::literals;
using btsc::phy::ChannelConfig;
using btsc::phy::NoisyChannel;
using btsc::sim::Environment;
using btsc::sim::SimTime;

const BdAddr kMasterAddr(0x5A3C71, 0x4E, 0x0001);
const BdAddr kSlaveAddr(0x1B9D24, 0x83, 0x0002);

struct Testbed {
  explicit Testbed(double ber = 0.0, std::uint64_t seed = 42)
      : env(seed), ch(env, "ch", cfg(ber)) {
    DeviceConfig mc;
    mc.addr = kMasterAddr;
    mc.clkn_init = 0;
    mc.clkn_phase = SimTime::us(1000);
    // Functional tests must not be hostage to the paper's 1.28 s inquiry
    // timeout (which fails ~25-50% of the time by design, Fig. 8): give
    // inquiry enough time to sweep both trains.
    mc.lc.inquiry_timeout_slots = 16384;  // 10.24 s
    mc.lc.page_timeout_slots = 8192;
    master = std::make_unique<Device>(env, "master", mc, ch);

    DeviceConfig sc;
    sc.addr = kSlaveAddr;
    // Arbitrary clock and integer-microsecond phase: unsynchronised.
    sc.clkn_init = static_cast<std::uint32_t>(env.rng().uniform(0, kClockMask));
    sc.clkn_phase = SimTime::us(env.rng().uniform(1, 1249));
    slave = std::make_unique<Device>(env, "slave", sc, ch);
  }

  static ChannelConfig cfg(double ber) {
    ChannelConfig c;
    c.ber = ber;
    return c;
  }

  /// Runs inquiry to completion; returns success.
  bool run_inquiry(SimTime limit = 12_sec) {
    std::optional<bool> done;
    LinkController::Callbacks cb;
    cb.inquiry_complete = [&](bool ok) { done = ok; };
    master->lc().set_callbacks(cb);
    slave->lc().enable_inquiry_scan();
    master->lc().enable_inquiry();
    const SimTime deadline = env.now() + limit;
    while (!done && env.now() < deadline) env.run(10_ms);
    return done.value_or(false);
  }

  /// Runs page to completion (requires prior inquiry success).
  bool run_page(SimTime limit = 6_sec) {
    const auto& found = master->lc().discovered();
    if (found.empty()) return false;
    std::optional<bool> done;
    LinkController::Callbacks cb;
    cb.page_complete = [&](bool ok) { done = ok; };
    master->lc().set_callbacks(cb);
    slave->lc().enable_page_scan();
    master->lc().enable_page(found[0].addr, found[0].clkn_offset);
    const SimTime deadline = env.now() + limit;
    while (!done && env.now() < deadline) env.run(10_ms);
    return done.value_or(false);
  }

  bool create_piconet() { return run_inquiry() && run_page(); }

  Environment env;
  NoisyChannel ch;
  std::unique_ptr<Device> master;
  std::unique_ptr<Device> slave;
};

TEST(LinkIntegration, InquiryDiscoversScanner) {
  Testbed tb;
  ASSERT_TRUE(tb.run_inquiry());
  ASSERT_EQ(tb.master->lc().discovered().size(), 1u);
  EXPECT_EQ(tb.master->lc().discovered()[0].addr, kSlaveAddr);
}

TEST(LinkIntegration, InquiryClockEstimateAccurate) {
  Testbed tb;
  ASSERT_TRUE(tb.run_inquiry());
  const auto& d = tb.master->lc().discovered()[0];
  const std::uint32_t est =
      (tb.master->clock().clkn() + d.clkn_offset) & kClockMask;
  const std::uint32_t actual = tb.slave->clock().clkn();
  const std::uint32_t err = std::min((actual - est) & kClockMask,
                                     (est - actual) & kClockMask);
  EXPECT_LE(err, 4u) << "clock estimate off by " << err << " ticks";
}

TEST(LinkIntegration, InquiryTimesOutWithNoScanner) {
  Testbed tb;
  tb.master->lc().config().inquiry_timeout_slots = 2048;  // paper value
  std::optional<bool> done;
  LinkController::Callbacks cb;
  cb.inquiry_complete = [&](bool ok) { done = ok; };
  tb.master->lc().set_callbacks(cb);
  tb.master->lc().enable_inquiry();  // nobody scanning
  tb.env.run(2_sec);
  ASSERT_TRUE(done.has_value());
  EXPECT_FALSE(*done);
  EXPECT_EQ(tb.master->lc().state(), LcState::kStandby);
}

TEST(LinkIntegration, PageEstablishesConnection) {
  Testbed tb;
  ASSERT_TRUE(tb.create_piconet());
  EXPECT_EQ(tb.master->lc().state(), LcState::kConnectionMaster);
  EXPECT_EQ(tb.slave->lc().state(), LcState::kConnectionSlave);
  EXPECT_EQ(tb.slave->lc().own_lt_addr(), 1);
  ASSERT_EQ(tb.master->lc().piconet().slaves().size(), 1u);
  EXPECT_EQ(tb.master->lc().piconet().slaves()[0].addr, kSlaveAddr);
}

TEST(LinkIntegration, PageIsFastWhenSynchronised) {
  // The paper: ~17 slots to page with a post-inquiry clock estimate.
  Testbed tb;
  ASSERT_TRUE(tb.run_inquiry());
  const SimTime page_start = tb.env.now();
  ASSERT_TRUE(tb.run_page());
  const auto slots = (tb.env.now() - page_start) / kSlotDuration;
  EXPECT_LT(slots, 120u) << "page took " << slots << " slots";
}

TEST(LinkIntegration, SlaveClockTracksMaster) {
  Testbed tb;
  ASSERT_TRUE(tb.create_piconet());
  tb.env.run(100_ms);
  const std::uint32_t master_clk = tb.master->lc().piconet_clock();
  const std::uint32_t slave_est = tb.slave->lc().piconet_clock();
  const std::uint32_t err = std::min((master_clk - slave_est) & kClockMask,
                                     (slave_est - master_clk) & kClockMask);
  EXPECT_LE(err, 1u);
}

TEST(LinkIntegration, MasterToSlaveData) {
  Testbed tb;
  ASSERT_TRUE(tb.create_piconet());
  std::vector<std::vector<std::uint8_t>> received;
  LinkController::Callbacks cb;
  cb.acl_rx = [&](std::uint8_t, std::uint8_t, std::vector<std::uint8_t> d) {
    received.push_back(std::move(d));
  };
  tb.slave->lc().set_callbacks(cb);
  ASSERT_TRUE(tb.master->lc().send_acl(1, kLlidStart, {0xDE, 0xAD}));
  tb.env.run(200_ms);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], (std::vector<std::uint8_t>{0xDE, 0xAD}));
}

TEST(LinkIntegration, SlaveToMasterData) {
  Testbed tb;
  ASSERT_TRUE(tb.create_piconet());
  std::vector<std::vector<std::uint8_t>> received;
  LinkController::Callbacks cb;
  cb.acl_rx = [&](std::uint8_t lt, std::uint8_t,
                  std::vector<std::uint8_t> d) {
    EXPECT_EQ(lt, 1);
    received.push_back(std::move(d));
  };
  tb.master->lc().set_callbacks(cb);
  ASSERT_TRUE(tb.slave->lc().send_acl(1, kLlidStart, {0xBE, 0xEF}));
  tb.env.run(200_ms);  // delivered at the next poll
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], (std::vector<std::uint8_t>{0xBE, 0xEF}));
}

TEST(LinkIntegration, ManyMessagesInOrderUnderNoise) {
  Testbed tb(1.0 / 200.0);
  ASSERT_TRUE(tb.create_piconet());
  std::vector<std::uint8_t> order;
  LinkController::Callbacks cb;
  cb.acl_rx = [&](std::uint8_t, std::uint8_t, std::vector<std::uint8_t> d) {
    order.push_back(d.at(0));
  };
  tb.slave->lc().set_callbacks(cb);
  for (std::uint8_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(tb.master->lc().send_acl(1, kLlidStart, {i}));
  }
  tb.env.run(2_sec);
  ASSERT_EQ(order.size(), 10u) << "ARQ must deliver all messages";
  for (std::uint8_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(LinkIntegration, SniffReducesSlaveRxActivity) {
  Testbed tb;
  ASSERT_TRUE(tb.create_piconet());
  tb.env.run(100_ms);

  // Measure active-mode RX duty over an idle second.
  tb.slave->radio().reset_activity();
  tb.env.run(1_sec);
  const double active_duty =
      static_cast<double>(tb.slave->radio().rx_on_time().as_ns()) / 1e9;

  // Enter sniff with Tsniff = 100 slots on both ends.
  tb.master->lc().master_set_sniff(1, 100, 0, 1);
  tb.slave->lc().slave_set_sniff(100, 0, 1);
  tb.env.run(100_ms);
  tb.slave->radio().reset_activity();
  tb.env.run(1_sec);
  const double sniff_duty =
      static_cast<double>(tb.slave->radio().rx_on_time().as_ns()) / 1e9;

  // Active idle listening ~2.6%; sniff at Tsniff=100 ~1%.
  EXPECT_NEAR(active_duty, 0.026, 0.012);
  EXPECT_LT(sniff_duty, active_duty * 0.7);
}

TEST(LinkIntegration, SniffedSlaveStillReceivesDataAtAnchor) {
  Testbed tb;
  ASSERT_TRUE(tb.create_piconet());
  tb.master->lc().master_set_sniff(1, 20, 0, 1);
  tb.slave->lc().slave_set_sniff(20, 0, 1);
  std::vector<std::uint8_t> got;
  LinkController::Callbacks cb;
  cb.acl_rx = [&](std::uint8_t, std::uint8_t, std::vector<std::uint8_t> d) {
    got.push_back(d.at(0));
  };
  tb.slave->lc().set_callbacks(cb);
  tb.master->lc().send_acl(1, kLlidStart, {0x42});
  tb.env.run(500_ms);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 0x42);
}

TEST(LinkIntegration, HoldSilencesRadioThenResynchronises) {
  Testbed tb;
  ASSERT_TRUE(tb.create_piconet());
  tb.env.run(100_ms);

  const std::uint32_t hold_slots = 400;
  tb.master->lc().master_set_hold(1, hold_slots);
  tb.slave->lc().slave_set_hold(hold_slots);
  tb.env.run(10_ms);

  // During hold the slave radio is off.
  tb.slave->radio().reset_activity();
  tb.env.run(200_ms);  // well inside the 250 ms hold
  EXPECT_EQ(tb.slave->radio().rx_on_time(), SimTime::zero());
  EXPECT_EQ(tb.slave->radio().tx_on_time(), SimTime::zero());

  // After expiry the link carries data again.
  std::vector<std::uint8_t> got;
  LinkController::Callbacks cb;
  cb.acl_rx = [&](std::uint8_t, std::uint8_t, std::vector<std::uint8_t> d) {
    got.push_back(d.at(0));
  };
  tb.slave->lc().set_callbacks(cb);
  tb.env.run(100_ms);  // hold ends at ~250 ms
  tb.master->lc().send_acl(1, kLlidStart, {0x7E});
  tb.env.run(200_ms);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(tb.slave->lc().slave_mode(), LinkMode::kActive);
}

TEST(LinkIntegration, ParkAndUnpark) {
  Testbed tb;
  ASSERT_TRUE(tb.create_piconet());
  tb.env.run(100_ms);
  tb.master->lc().master_set_park(1, /*pm_addr=*/5);
  tb.slave->lc().slave_set_park(5);
  tb.env.run(100_ms);
  EXPECT_TRUE(tb.master->lc().piconet().has_parked());

  // Parked RX activity is tiny (beacon windows only).
  tb.slave->radio().reset_activity();
  tb.env.run(1_sec);
  const double parked_duty =
      static_cast<double>(tb.slave->radio().rx_on_time().as_ns()) / 1e9;
  EXPECT_LT(parked_duty, 0.01);

  tb.master->lc().master_unpark(5);
  tb.slave->lc().slave_unpark(1);
  std::vector<std::uint8_t> got;
  LinkController::Callbacks cb;
  cb.acl_rx = [&](std::uint8_t, std::uint8_t, std::vector<std::uint8_t> d) {
    got.push_back(d.at(0));
  };
  tb.slave->lc().set_callbacks(cb);
  tb.env.run(200_ms);
  tb.master->lc().send_acl(1, kLlidStart, {0x11});
  tb.env.run(300_ms);
  ASSERT_EQ(got.size(), 1u);
}

// A slave's slot timer sleeps through a sniff interval, and a mode
// change brings it forward: leaving sniff mid-interval, the slave listens
// again from the next master even slot, not from its next sniff anchor.
TEST(LinkIntegration, LeavingSniffListensFromTheNextSlot) {
  Testbed tb;
  ASSERT_TRUE(tb.create_piconet());
  tb.env.run(100_ms);
  tb.master->lc().master_set_sniff(1, 1000, 0, 1);
  tb.slave->lc().slave_set_sniff(1000, 0, 1);
  while ((tb.slave->lc().piconet_clock() / 2) % 1000 != 500) {
    tb.env.run(kSlotDuration);
  }
  tb.master->lc().master_clear_sniff(1);
  tb.slave->lc().slave_clear_sniff();
  tb.slave->radio().reset_activity();
  tb.env.run(kSlotDuration * 3);
  EXPECT_GT(tb.slave->radio().rx_on_time(), SimTime::zero());
}

// A command issued from a timed callback at one of the device's own tick
// instants acts on that tick, after the instant's timed callbacks -- as
// when every tick woke the controller -- even though the standby
// controller was not waking on ticks.
TEST(LinkIntegration, CommandAtTickInstantActsOnThatTick) {
  Testbed tb;
  tb.env.run(5_ms);
  const SimTime tick = tb.slave->clock().last_tick_time() + kTickPeriod * 4;
  tb.env.schedule(tick - tb.env.now(),
                  [&] { tb.slave->lc().enable_page_scan(); });
  tb.env.run_until(tick);
  EXPECT_TRUE(tb.slave->radio().rx_enabled());
}

// The order at a tick instant of a controller that wakes on every tick:
// a timer queued before the tick's wake runs ahead of the tick work, and
// a command it issues still acts on that tick; a timer queued after the
// wake sees the tick work done.
TEST(LinkIntegration, TickWorkRunsInsideTheWakeTimer) {
  Testbed tb;
  tb.slave->lc().enable_page_scan();
  tb.env.run(5_ms);
  // A TX half slot (CLKN1 == 0), in which inquiry sends an ID.
  const NativeClock& clk = tb.slave->clock();
  std::uint64_t k = clk.ticks() + 2;
  while ((clk.clkn_at_tick(k) >> 1) & 1u) ++k;
  const SimTime tick = clk.last_tick_time() + kTickPeriod * (k - clk.ticks());

  std::uint64_t before = 0;
  bool earlier_ran = false, later_ran = false;
  tb.env.schedule(tick - tb.env.now(), [&] {
    before = tb.env.process_activations();
    EXPECT_FALSE(tb.slave->radio().tx_busy());
    tb.slave->lc().enable_inquiry();
    earlier_ran = true;
  });
  tb.env.schedule(tick - tb.env.now() - SimTime::ns(156'250), [&] {
    tb.env.schedule(tick - tb.env.now(), [&] {
      EXPECT_EQ(tb.env.process_activations(), before + 1);
      EXPECT_EQ(tb.slave->lc().state(), LcState::kInquiry);
      EXPECT_TRUE(tb.slave->radio().tx_busy());
      later_ran = true;
    });
  });
  tb.env.run_until(tick);
  EXPECT_TRUE(earlier_ran);
  EXPECT_TRUE(later_ran);
}

// A windowed inquiry scanner sleeps between its scan windows: over one
// scan interval its controller wakes on the ticks of its two (interlaced)
// windows, plus the tick after each that turns the receiver off.
TEST(LinkIntegration, WindowedInquiryScannerSleepsBetweenWindows) {
  Testbed tb;
  tb.slave->lc().enable_inquiry_scan();
  const std::uint64_t before = tb.env.process_activations();
  tb.env.run(kSlotDuration * kInquiryScanIntervalSlots);
  const std::uint64_t wakes = tb.env.process_activations() - before;
  EXPECT_GE(wakes, 2 * 2 * kInquiryScanWindowSlots);
  EXPECT_LE(wakes, 2 * 2 * kInquiryScanWindowSlots + 2);
}

TEST(LinkIntegration, DetachResetReturnsToStandby) {
  Testbed tb;
  ASSERT_TRUE(tb.create_piconet());
  tb.master->lc().enable_detach_reset();
  tb.slave->lc().enable_detach_reset();
  EXPECT_EQ(tb.master->lc().state(), LcState::kStandby);
  EXPECT_EQ(tb.slave->lc().state(), LcState::kStandby);
  tb.env.run(100_ms);
  EXPECT_FALSE(tb.master->radio().rx_enabled());
  EXPECT_FALSE(tb.slave->radio().rx_enabled());
}

TEST(LinkIntegration, CreationWorksAtLowNoise) {
  Testbed tb(1.0 / 100.0, 7);
  EXPECT_TRUE(tb.run_inquiry());
}

// Creation must succeed across many random clock phases (seeds).
class CreationSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CreationSeeds, PiconetFormsNoiselessly) {
  Testbed tb(0.0, GetParam());
  ASSERT_TRUE(tb.run_inquiry());
  ASSERT_TRUE(tb.run_page());
  EXPECT_EQ(tb.slave->lc().state(), LcState::kConnectionSlave);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CreationSeeds,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace btsc::baseband
