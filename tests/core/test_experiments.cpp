// Reduced-size runs of every figure experiment: each must reproduce the
// qualitative claims of the paper (who wins, where crossovers sit). Every
// run is staged like a sweep replication: a warm-up on the test's seed,
// then the measure stage on the same seed.
#include "core/experiments.hpp"

#include <gtest/gtest.h>

#include "core/system.hpp"
#include "core/traffic.hpp"

namespace btsc::core {
namespace {

/// `seeds` creation replications at one BER, all forked from one
/// warm-up image: warm-up seed 1000, replication seeds 1000 + s.
CreationPoint creation_point(double ber, int seeds) {
  const auto warm = make_creation_system(ber, 2048, 1000);
  const auto image = warm->save_snapshot();
  CreationPoint point;
  point.ber = ber;
  for (int s = 0; s < seeds; ++s) {
    auto sys = make_creation_system(ber, 2048, 1000);
    sys->restore_snapshot(image);
    point.add(run_creation_from(*sys, 1000 + static_cast<std::uint64_t>(s)));
  }
  return point;
}

MasterActivityRow master_activity(double duty,
                                  const MasterActivityConfig& cfg) {
  auto w = master_activity_warmup(cfg.seed);
  return run_master_activity_from(*w.system, duty, cfg);
}

SlaveActivityRow sniff_activity(std::optional<std::uint32_t> tsniff,
                                const SniffActivityConfig& cfg) {
  auto w = sniff_activity_warmup(cfg.seed);
  return run_sniff_activity_from(*w.system, tsniff, cfg);
}

SlaveActivityRow hold_activity(std::optional<std::uint32_t> thold,
                               const HoldActivityConfig& cfg) {
  auto w = hold_activity_warmup(cfg.seed);
  return run_hold_activity_from(*w.system, thold, cfg);
}

ThroughputRow throughput(baseband::PacketType type, double ber,
                         const ThroughputConfig& cfg) {
  auto w = throughput_warmup(type, cfg.seed);
  return run_throughput_from(*w.system, type, ber, cfg);
}

TEST(CreationExperiment, NoiselessInquiryMeanInPaperBand) {
  const CreationPoint p = creation_point(0.0, 12);
  ASSERT_GE(p.inquiry_slots.count(), 4u);
  // Paper: ~1556 slots mean; accept the band 800..2048.
  EXPECT_GT(p.inquiry_slots.mean(), 800.0);
  EXPECT_LT(p.inquiry_slots.mean(), 2048.0);
}

TEST(CreationExperiment, NoiselessPageFastAndReliable) {
  const CreationPoint p = creation_point(0.0, 12);
  // Paper: 17 slots; page succeeds whenever inquiry did.
  EXPECT_EQ(p.page_ok.successes(), p.page_ok.trials());
  EXPECT_LT(p.page_slots.mean(), 60.0);
}

TEST(CreationExperiment, PageIsTheBottleneckUnderNoise) {
  const CreationPoint hi = creation_point(1.0 / 30.0, 12);
  // At BER 1/30 the paper finds page essentially impossible.
  EXPECT_LT(hi.page_ok.ratio(), 0.5);
  // Creation overall (inquiry AND page) is very unlikely.
  const double creation =
      hi.inquiry_ok.ratio() * (hi.page_ok.trials() > 0 ? hi.page_ok.ratio() : 0.0);
  EXPECT_LT(creation, 0.2);
}

TEST(CreationExperiment, FailureGrowsWithBer) {
  const CreationPoint lo = creation_point(1.0 / 100.0, 12);
  const CreationPoint hi = creation_point(1.0 / 30.0, 12);
  EXPECT_GE(lo.inquiry_ok.ratio(), hi.inquiry_ok.ratio());
}

TEST(MasterActivityExperiment, LinearInDutyAndTxAboveRx) {
  MasterActivityConfig cfg;
  cfg.measure_slots = 6000;
  const auto low = master_activity(0.005, cfg);
  const auto high = master_activity(0.02, cfg);
  // Monotone increasing, roughly linear (4x duty -> ~4x activity).
  EXPECT_GT(high.master.tx_fraction, 2.5 * low.master.tx_fraction);
  EXPECT_LT(high.master.tx_fraction, 6.0 * low.master.tx_fraction);
  // Fig. 10: the TX curve sits above the RX curve.
  EXPECT_GT(high.master.tx_fraction, high.master.rx_fraction);
  EXPECT_GT(high.messages, 2 * low.messages);
}

TEST(MasterActivityExperiment, ZeroDutyNearZeroActivity) {
  MasterActivityConfig cfg;
  cfg.measure_slots = 6000;
  const auto idle = master_activity(0.0, cfg);
  EXPECT_LT(idle.master.total(), 0.005);
}

TEST(SniffExperiment, ActiveBaselineNearPaperValue) {
  SniffActivityConfig cfg;
  cfg.measure_slots = 6000;
  const auto active = sniff_activity(std::nullopt, cfg);
  // Paper Fig. 11: ~4.2% for the active slave with data every 100 slots.
  EXPECT_GT(active.slave.total(), 0.025);
  EXPECT_LT(active.slave.total(), 0.07);
}

TEST(SniffExperiment, LongSniffBeatsActiveShortDoesNot) {
  SniffActivityConfig cfg;
  cfg.measure_slots = 6000;
  const auto active = sniff_activity(std::nullopt, cfg);
  const auto sniff100 = sniff_activity(100, cfg);
  const auto sniff10 = sniff_activity(10, cfg);
  // Paper: ~30% saving at Tsniff=100; no saving below Tsniff~30.
  EXPECT_LT(sniff100.slave.total(), 0.8 * active.slave.total());
  EXPECT_GT(sniff10.slave.total(), 0.8 * active.slave.total());
}

TEST(SniffExperiment, ActivityDecreasesWithTsniff) {
  SniffActivityConfig cfg;
  cfg.measure_slots = 6000;
  const auto s20 = sniff_activity(20, cfg);
  const auto s50 = sniff_activity(50, cfg);
  const auto s100 = sniff_activity(100, cfg);
  EXPECT_GT(s20.slave.total(), s50.slave.total());
  EXPECT_GT(s50.slave.total(), s100.slave.total());
}

TEST(HoldExperiment, ActiveBaselineIsPaper2_6Percent) {
  HoldActivityConfig cfg;
  cfg.min_measure_slots = 6000;
  const auto active = hold_activity(std::nullopt, cfg);
  EXPECT_NEAR(active.slave.total(), 0.026, 0.006);
}

TEST(HoldExperiment, CrossoverNearPaper120Slots) {
  HoldActivityConfig cfg;
  cfg.min_measure_slots = 6000;
  const auto active = hold_activity(std::nullopt, cfg);
  const auto short_hold = hold_activity(60, cfg);
  const auto long_hold = hold_activity(400, cfg);
  // Short holds cost more than staying active; long holds pay off.
  EXPECT_GT(short_hold.slave.total(), active.slave.total());
  EXPECT_LT(long_hold.slave.total(), active.slave.total());
}

TEST(HoldExperiment, ActivityDecreasesWithThold) {
  HoldActivityConfig cfg;
  cfg.min_measure_slots = 6000;
  const auto h100 = hold_activity(100, cfg);
  const auto h400 = hold_activity(400, cfg);
  const auto h1000 = hold_activity(1000, cfg);
  EXPECT_GT(h100.slave.total(), h400.slave.total());
  EXPECT_GT(h400.slave.total(), h1000.slave.total());
}

// The clock wakes a link controller only on the ticks it acts on: a
// connected slave on none (its slot timer runs on the master's grid and
// sleeps through hold), a connected master on one per even slot.
TEST(HoldExperiment, HeldLinkEventBudget) {
  auto w = hold_activity_warmup(1);
  BluetoothSystem& sys = *w.system;
  sys.run(baseband::kSlotDuration * 64);

  constexpr std::uint32_t kHoldSlots = 400;
  sys.master().lc().master_set_hold(sys.lt_addr_of(0), kHoldSlots);
  sys.slave(0).lc().slave_set_hold(kHoldSlots);
  const std::uint64_t activations = sys.env().process_activations();
  const std::uint64_t fired = sys.env().scheduler_stats().fired;
  sys.run(baseband::kSlotDuration * kHoldSlots);

  // Every tick dispatch is the master's, one per even slot; a single
  // slave tick would push the count past it.
  EXPECT_EQ(sys.env().process_activations() - activations, kHoldSlots / 2);
  // The master's wake-ups, plus a handful of slave slot actions and the
  // resynchronising exchange as the hold ends.
  EXPECT_LE(sys.env().scheduler_stats().fired - fired, kHoldSlots / 2 + 8);
}

TEST(ThroughputExperiment, Dh5BestOnCleanChannel) {
  ThroughputConfig cfg;
  cfg.measure_slots = 4000;
  const auto dh5 = throughput(baseband::PacketType::kDh5, 0.0, cfg);
  const auto dm1 = throughput(baseband::PacketType::kDm1, 0.0, cfg);
  EXPECT_GT(dh5.goodput_kbps, 300.0);  // paper-era DH5 peak ~477 kb/s
  EXPECT_GT(dh5.goodput_kbps, 3.0 * dm1.goodput_kbps);
}

TEST(ThroughputExperiment, DmBeatsDhUnderHeavyNoise) {
  ThroughputConfig cfg;
  cfg.measure_slots = 4000;
  const double ber = 1.0 / 150.0;
  const auto dm1 = throughput(baseband::PacketType::kDm1, ber, cfg);
  const auto dh5 = throughput(baseband::PacketType::kDh5, ber, cfg);
  // FEC-protected short packets win once the channel is noisy: the
  // crossover the paper's model was built to expose.
  EXPECT_GT(dm1.goodput_kbps, dh5.goodput_kbps);
}

TEST(ThroughputExperiment, RetransmissionsGrowWithBer) {
  ThroughputConfig cfg;
  cfg.measure_slots = 3000;
  const auto clean = throughput(baseband::PacketType::kDh1, 0.0, cfg);
  const auto noisy = throughput(baseband::PacketType::kDh1, 1.0 / 100.0, cfg);
  EXPECT_GT(noisy.retransmissions, clean.retransmissions);
  EXPECT_LT(noisy.goodput_kbps, clean.goodput_kbps);
}

TEST(ThroughputExperiment, TrafficAfterRunThroughputFromLeavesNoHandler) {
  // run_throughput_from() resets the slave's handler before it returns:
  // traffic started afterwards must not reach its frame.
  const auto type = baseband::PacketType::kDm1;
  auto w = throughput_warmup(type, 5);
  ThroughputConfig cfg;
  cfg.measure_slots = 200;
  run_throughput_from(*w.system, type, 0.0, cfg);
  const std::uint64_t sent = w.system->master().lc().stats().data_tx;
  SaturatingTrafficSource more(w.system->master(), w.system->lt_addr_of(0),
                               baseband::max_user_bytes(type));
  w.system->run(baseband::kSlotDuration * 200);
  EXPECT_GT(w.system->master().lc().stats().data_tx, sent);
}

TEST(MetricsTest, PowerModelWeighsDutyCycles) {
  PowerModel pm;
  RfActivity idle;
  RfActivity txonly;
  txonly.tx_fraction = 1.0;
  RfActivity mixed;
  mixed.tx_fraction = 0.1;
  mixed.rx_fraction = 0.2;
  EXPECT_NEAR(pm.average_mw(idle), pm.idle_mw, 1e-9);
  EXPECT_NEAR(pm.average_mw(txonly), pm.tx_mw, 1e-9);
  EXPECT_NEAR(pm.average_mw(mixed),
              0.1 * pm.tx_mw + 0.2 * pm.rx_mw + 0.7 * pm.idle_mw, 1e-9);
}

}  // namespace
}  // namespace btsc::core
