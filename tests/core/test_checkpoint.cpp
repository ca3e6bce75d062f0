// Checkpoint/fork behaviour of the assembled simulator:
//  * round-trip goldens -- save -> restore into a structurally identical
//    twin -> save again must reproduce the byte stream exactly, at every
//    interesting epoch (fresh construction, mid-inquiry under noise at a
//    half-slot boundary, connected piconet);
//  * the mid-flight test -- a restored run and the uninterrupted run it
//    forked from must evolve identically, asserted by byte-comparing
//    their snapshots after both advance the same additional window (the
//    VCD tracer is a write-only sink and deliberately not checkpointable,
//    so equal state streams stand in for equal waveforms);
//  * forked-vs-cold -- every staged experiment family must produce
//    bitwise-identical samples whether the warm-up is re-run or restored
//    from its snapshot, the contract behind every forked sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baseband/bt_clock.hpp"
#include "core/coexistence.hpp"
#include "core/experiments.hpp"
#include "core/system.hpp"
#include "core/traffic.hpp"
#include "sim/snapshot.hpp"
#include "stats/accumulator.hpp"

namespace btsc::core {
namespace {

using baseband::kSlotDuration;
using sim::SimTime;

/// Bitwise double comparison: the fork contract is sample *identity*,
/// not closeness.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Noisy 3-device (master + 2 slaves) configuration used by the
/// mid-flight tests: enough BER to exercise the error paths without
/// stalling creation entirely.
SystemConfig noisy_three_device_config() {
  SystemConfig sc;
  sc.num_slaves = 2;
  sc.ber = 1.0 / 80;
  sc.seed = 20260807;
  sc.lc.inquiry_timeout_slots = 32768;
  sc.lc.page_timeout_slots = 16384;
  return sc;
}

/// Takes a snapshot at (or just after) the current instant. A checkpoint
/// is only legal when no transmission with a completion callback is in
/// flight (Radio::save_state throws); if the requested instant lands
/// inside one, nudge forward in 25 us steps until the stream closes --
/// deterministic, and never more than one packet airtime away.
std::vector<std::uint8_t> snapshot_when_legal(BluetoothSystem& sys) {
  for (int step = 0; step < 64; ++step) {
    try {
      return sys.save_snapshot();
    } catch (const sim::SnapshotError&) {
      sys.run(SimTime::us(25));
    }
  }
  return sys.save_snapshot();  // let the SnapshotError propagate
}

/// A structurally identical twin ready to receive a restore: same
/// construction path (so the same object graph and rearm registrations),
/// settled so the kernel accepts the overwrite.
std::unique_ptr<BluetoothSystem> twin_of(const SystemConfig& sc) {
  auto sys = std::make_unique<BluetoothSystem>(sc);
  sys->env().settle();
  return sys;
}

// ---- round-trip goldens ----------------------------------------------------

TEST(SystemCheckpoint, PostConstructionRoundTrip) {
  const SystemConfig sc = noisy_three_device_config();
  auto a = twin_of(sc);
  const auto snap = a->save_snapshot();

  auto b = twin_of(sc);
  b->restore_snapshot(snap);
  EXPECT_EQ(b->save_snapshot(), snap);
}

TEST(SystemCheckpoint, MidInquiryHalfSlotRoundTrip) {
  const SystemConfig sc = noisy_three_device_config();
  auto a = twin_of(sc);
  a->slave(0).lc().enable_inquiry_scan();
  a->slave(1).lc().enable_inquiry_scan();
  a->master().lc().enable_inquiry();
  // Deep inside the inquiry (mean completion ~1556 slots), at a
  // half-slot boundary: scan windows, backoff timers and correlator
  // state are all live.
  a->run(kSlotDuration * 250 + SimTime::ns(312500));
  const auto snap = snapshot_when_legal(*a);

  auto b = twin_of(sc);
  b->restore_snapshot(snap);
  EXPECT_EQ(b->save_snapshot(), snap);
}

TEST(SystemCheckpoint, MidFlightRestoredRunMatchesUninterrupted) {
  const SystemConfig sc = noisy_three_device_config();
  auto a = twin_of(sc);
  a->slave(0).lc().enable_inquiry_scan();
  a->slave(1).lc().enable_inquiry_scan();
  a->master().lc().enable_inquiry();
  a->run(kSlotDuration * 250 + SimTime::ns(312500));
  const auto snap = snapshot_when_legal(*a);

  auto b = twin_of(sc);
  b->restore_snapshot(snap);

  // Both runs now advance the same window: `a` uninterrupted, `b` from
  // the restored image. Identical state streams at the end mean the
  // checkpoint was transparent -- same timers, same RNG, same signals.
  a->run(kSlotDuration * 512);
  b->run(kSlotDuration * 512);
  EXPECT_EQ(snapshot_when_legal(*a), snapshot_when_legal(*b));
}

TEST(SystemCheckpoint, ConnectedPiconetRoundTrip) {
  auto warm = master_activity_warmup(4242);
  auto& sys = *warm.system;
  const auto snap = sys.save_snapshot();

  auto twin = master_activity_scaffold(warm.construction_seed);
  twin->restore_snapshot(snap);
  EXPECT_EQ(twin->save_snapshot(), snap);
}

TEST(SystemCheckpoint, RestoreRejectsTrailingBytes) {
  const SystemConfig sc = noisy_three_device_config();
  auto a = twin_of(sc);
  auto snap = a->save_snapshot();
  snap.push_back(0);

  auto b = twin_of(sc);
  EXPECT_THROW(b->restore_snapshot(snap), sim::SnapshotError);
}

TEST(CoexistenceCheckpoint, ConnectedRoundTrip) {
  auto net = coexistence_warmup(2030);
  const auto snap = net->save_snapshot();

  auto twin = coexistence_scaffold(2030);
  twin->restore_snapshot(snap);
  EXPECT_EQ(twin->save_snapshot(), snap);
}

/// Deterministic observables of a coexistence run: medium counters plus
/// per-device link-layer counters in fixed device order.
std::vector<std::uint64_t> coexistence_signature(TwoPiconets& net) {
  std::vector<std::uint64_t> sig = {net.channel().collision_samples(),
                                    net.channel().bits_driven(),
                                    net.channel().bits_flipped()};
  for (int p = 0; p < 2; ++p) {
    for (auto* dev : {&net.master(p), &net.slave(p)}) {
      const auto& st = dev->lc().stats();
      sig.insert(sig.end(), {st.data_tx, st.data_rx_ok, st.retransmissions,
                             st.poll_tx, st.null_tx});
    }
  }
  return sig;
}

// With rf_delay > 0 every drive lands through a tagged apply timer; a
// checkpoint taken while one is pending must carry it (the channel's
// ".rf" re-arm handler) and the restored twin must evolve identically.
TEST(CoexistenceCheckpoint, PendingRfApplyRoundTrip) {
  const CoexistenceConfig cfg{.seed = 33, .ber = 1e-3,
                              .rf_delay = SimTime::us(10)};
  TwoPiconets net(cfg);
  ASSERT_TRUE(net.create(0));
  ASSERT_TRUE(net.create(1));
  PeriodicTrafficSource t0(net.master(0), 1, 8, 9);
  PeriodicTrafficSource t1(net.master(1), 1, 8, 9);

  // Step until an instant is both settled (no untagged timer in flight)
  // and holds a pending rf apply timer, whose descriptor names the
  // channel's re-arm registration.
  const std::string rf_name = "channel.rf";
  auto has_rf_descriptor = [&](const std::vector<std::uint8_t>& img) {
    return std::search(img.begin(), img.end(), rf_name.begin(),
                       rf_name.end()) != img.end();
  };
  std::vector<std::uint8_t> snap;
  for (int step = 0; step < 20000; ++step) {
    try {
      snap = net.save_snapshot();
      if (has_rf_descriptor(snap)) break;
    } catch (const sim::SnapshotError&) {
    }
    snap.clear();
    net.run(SimTime::us(1));
  }
  ASSERT_FALSE(snap.empty()) << "no checkpoint with a pending rf apply";

  TwoPiconets twin(cfg);
  ASSERT_TRUE(twin.create(0));
  ASSERT_TRUE(twin.create(1));
  PeriodicTrafficSource u0(twin.master(0), 1, 8, 9);
  PeriodicTrafficSource u1(twin.master(1), 1, 8, 9);
  twin.restore_snapshot(snap);
  EXPECT_EQ(twin.env().now(), net.env().now());

  net.run(SimTime::ms(500));
  twin.run(SimTime::ms(500));
  EXPECT_EQ(coexistence_signature(twin), coexistence_signature(net));
}

// ---- per-module goldens ------------------------------------------------------

TEST(ModuleCheckpoint, AccumulatorRoundTripGolden) {
  stats::Accumulator a;
  a.add(1.0);
  a.add(-2.5);
  a.add(1e-12);
  sim::SnapshotWriter w1;
  a.save_state(w1);
  const auto bytes = w1.take();

  stats::Accumulator b;
  b.add(999.0);  // must be fully overwritten
  sim::SnapshotReader r(bytes);
  b.restore_state(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(bits(b.mean()), bits(a.mean()));

  sim::SnapshotWriter w2;
  b.save_state(w2);
  EXPECT_EQ(w2.take(), bytes);
}

TEST(ModuleCheckpoint, RatioCounterRoundTripGolden) {
  stats::RatioCounter a;
  a.add(true);
  a.add(false);
  a.add(true);
  sim::SnapshotWriter w1;
  a.save_state(w1);
  const auto bytes = w1.take();

  stats::RatioCounter b;
  sim::SnapshotReader r(bytes);
  b.restore_state(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(b.successes(), a.successes());
  EXPECT_EQ(b.trials(), a.trials());

  sim::SnapshotWriter w2;
  b.save_state(w2);
  EXPECT_EQ(w2.take(), bytes);
}

TEST(ModuleCheckpoint, PeriodicTrafficSourceRoundTripGolden) {
  auto warm = master_activity_warmup(99);
  auto& sys = *warm.system;
  PeriodicTrafficSource src(sys.master(), sys.lt_addr_of(0), 40, 9);
  sys.run(kSlotDuration * 300);

  sim::SnapshotWriter w1;
  src.save_state(w1);
  const auto bytes = w1.take();
  sim::SnapshotReader r(bytes);
  src.restore_state(r);
  EXPECT_TRUE(r.at_end());

  sim::SnapshotWriter w2;
  src.save_state(w2);
  EXPECT_EQ(w2.take(), bytes);
}

TEST(ModuleCheckpoint, SaturatingTrafficSourceRoundTripGolden) {
  auto warm = throughput_warmup(baseband::PacketType::kDm1, 77);
  auto& sys = *warm.system;
  SaturatingTrafficSource src(sys.master(), sys.lt_addr_of(0), 17);
  sys.run(kSlotDuration * 200);

  sim::SnapshotWriter w1;
  src.save_state(w1);
  const auto bytes = w1.take();
  sim::SnapshotReader r(bytes);
  src.restore_state(r);
  EXPECT_TRUE(r.at_end());

  sim::SnapshotWriter w2;
  src.save_state(w2);
  EXPECT_EQ(w2.take(), bytes);
}

// ---- forked vs cold: every staged family ------------------------------------

TEST(CheckpointFork, CreationForkEqualsCold) {
  const double ber = 1.0 / 80;
  const std::uint64_t warm_seed = 31337;
  const std::uint64_t rep_seed = 777;

  auto cold = make_creation_system(ber, 2048, warm_seed);
  const CreationSample sc = run_creation_from(*cold, rep_seed);

  auto warm = make_creation_system(ber, 2048, warm_seed);
  const auto img = warm->save_snapshot();
  auto forked = make_creation_system(ber, 2048, warm_seed);
  forked->restore_snapshot(img);
  const CreationSample sf = run_creation_from(*forked, rep_seed);

  EXPECT_EQ(sf.inquiry_success, sc.inquiry_success);
  EXPECT_EQ(sf.inquiry_slots, sc.inquiry_slots);
  EXPECT_EQ(sf.page_attempted, sc.page_attempted);
  EXPECT_EQ(sf.page_success, sc.page_success);
  EXPECT_EQ(sf.page_slots, sc.page_slots);
}

TEST(CheckpointFork, BackoffForkEqualsCold) {
  auto cold = make_backoff_system(255, 9001);
  const BackoffSample sc = run_backoff_from(*cold, 4321);

  auto warm = make_backoff_system(255, 9001);
  const auto img = warm->save_snapshot();
  auto forked = make_backoff_system(255, 9001);
  forked->restore_snapshot(img);
  const BackoffSample sf = run_backoff_from(*forked, 4321);

  EXPECT_EQ(sf.success, sc.success);
  EXPECT_EQ(sf.slots, sc.slots);
}

TEST(CheckpointFork, MasterActivityForkEqualsCold) {
  MasterActivityConfig cfg;
  cfg.seed = 777;
  cfg.measure_slots = 4000;

  auto cold = master_activity_warmup(4242);
  const MasterActivityRow rc =
      run_master_activity_from(*cold.system, 0.01, cfg);

  auto warm = master_activity_warmup(4242);
  const auto img = warm.system->save_snapshot();
  auto forked = master_activity_scaffold(warm.construction_seed);
  forked->restore_snapshot(img);
  const MasterActivityRow rf = run_master_activity_from(*forked, 0.01, cfg);

  EXPECT_EQ(bits(rf.master.tx_fraction), bits(rc.master.tx_fraction));
  EXPECT_EQ(bits(rf.master.rx_fraction), bits(rc.master.rx_fraction));
  EXPECT_EQ(rf.messages, rc.messages);
}

TEST(CheckpointFork, SniffActivityForkEqualsCold) {
  SniffActivityConfig cfg;
  cfg.seed = 555;
  cfg.measure_slots = 4000;

  auto cold = sniff_activity_warmup(1717);
  const SlaveActivityRow rc = run_sniff_activity_from(*cold.system, 40u, cfg);

  auto warm = sniff_activity_warmup(1717);
  const auto img = warm.system->save_snapshot();
  auto forked = sniff_activity_scaffold(warm.construction_seed);
  forked->restore_snapshot(img);
  const SlaveActivityRow rf = run_sniff_activity_from(*forked, 40u, cfg);

  EXPECT_EQ(bits(rf.slave.total()), bits(rc.slave.total()));
}

TEST(CheckpointFork, HoldActivityForkEqualsCold) {
  HoldActivityConfig cfg;
  cfg.seed = 666;
  cfg.min_measure_slots = 4000;

  auto cold = hold_activity_warmup(2929);
  const SlaveActivityRow rc = run_hold_activity_from(*cold.system, 120u, cfg);

  auto warm = hold_activity_warmup(2929);
  const auto img = warm.system->save_snapshot();
  auto forked = hold_activity_scaffold(warm.construction_seed);
  forked->restore_snapshot(img);
  const SlaveActivityRow rf = run_hold_activity_from(*forked, 120u, cfg);

  EXPECT_EQ(bits(rf.slave.total()), bits(rc.slave.total()));
}

TEST(CheckpointFork, ThroughputForkEqualsCold) {
  ThroughputConfig cfg;
  cfg.seed = 888;
  cfg.measure_slots = 2000;
  const auto type = baseband::PacketType::kDm3;
  const double ber = 1.0 / 1000;

  auto cold = throughput_warmup(type, 3131);
  const ThroughputRow rc = run_throughput_from(*cold.system, type, ber, cfg);

  auto warm = throughput_warmup(type, 3131);
  const auto img = warm.system->save_snapshot();
  auto forked = throughput_scaffold(type, warm.construction_seed);
  forked->restore_snapshot(img);
  const ThroughputRow rf = run_throughput_from(*forked, type, ber, cfg);

  EXPECT_EQ(bits(rf.goodput_kbps), bits(rc.goodput_kbps));
  EXPECT_EQ(rf.delivered_messages, rc.delivered_messages);
  EXPECT_EQ(rf.retransmissions, rc.retransmissions);
}

TEST(CheckpointFork, CoexistenceForkEqualsCold) {
  CoexistenceRunConfig cfg;
  cfg.seed = 999;
  cfg.measure_slots = 4000;

  auto cold = coexistence_warmup(2030);
  const CoexistenceRow rc = run_coexistence_from(*cold, 8, cfg);

  auto warm = coexistence_warmup(2030);
  const auto img = warm->save_snapshot();
  auto forked = coexistence_scaffold(2030);
  forked->restore_snapshot(img);
  const CoexistenceRow rf = run_coexistence_from(*forked, 8, cfg);

  EXPECT_EQ(bits(rf.goodput_kbps), bits(rc.goodput_kbps));
  EXPECT_EQ(rf.retransmissions, rc.retransmissions);
  EXPECT_EQ(rf.collision_samples, rc.collision_samples);
}

}  // namespace
}  // namespace btsc::core
