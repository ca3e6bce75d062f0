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
#include "lm/link_manager.hpp"
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

/// A structurally identical twin ready to receive a restore: same
/// construction path (so the same object graph and rearm registrations).
std::unique_ptr<BluetoothSystem> twin_of(const SystemConfig& sc) {
  return std::make_unique<BluetoothSystem>(sc);
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
  const auto snap = a->save_snapshot();

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
  const auto snap = a->save_snapshot();

  auto b = twin_of(sc);
  b->restore_snapshot(snap);

  // Both runs now advance the same window: `a` uninterrupted, `b` from
  // the restored image. Identical state streams at the end mean the
  // checkpoint was transparent -- same timers, same RNG, same signals.
  a->run(kSlotDuration * 512);
  b->run(kSlotDuration * 512);
  EXPECT_EQ(a->save_snapshot(), b->save_snapshot());
}

// A connected piconet under saturating traffic, checkpointed while the
// master's LMP_sniff_req awaits its LMP_accepted (LinkManager pending
// map non-empty), the master holds an armed hold-instant LM timer from
// the slave's LMP_hold_req, and a data packet is on the air: the LC has
// an unacknowledged in-flight message and the radio a live TX burst
// whose channel run the restore must rebind.
TEST(SystemCheckpoint, PendingLmpAndInFlightDataRoundTrip) {
  const auto type = baseband::PacketType::kDm3;
  const std::size_t payload = baseband::max_user_bytes(type);
  auto warm = throughput_warmup(type, 6161);
  BluetoothSystem& a = *warm.system;
  const std::uint8_t lt = a.lt_addr_of(0);
  SaturatingTrafficSource src_a(a.master(), lt, payload);
  a.run(kSlotDuration * 40);

  bool sniff_accepted = false;
  lm::LinkManager::Events ev;
  ev.procedure_complete = [&](lm::LmpOpcode op, std::uint8_t, bool) {
    if (op == lm::LmpOpcode::kSniffReq) sniff_accepted = true;
  };
  a.master_lm().set_events(std::move(ev));
  const std::uint64_t heard = a.master_lm().pdus_received();
  a.master_lm().request_sniff(lt, 100, 10, 4);
  a.slave_lm(0).request_hold(lt, 200);

  // Step half a slot at a time (plus an odd 25 us so the instant is not
  // slot-aligned) until the hold request has reached the master, while
  // the sniff request is still unanswered and a packet is on the air.
  bool found = false;
  for (int step = 0; step < 64 && !found; ++step) {
    a.run(SimTime::ns(312500) + SimTime::us(25));
    const auto& slaves = a.master().lc().piconet().slaves();
    found = !sniff_accepted && a.master_lm().pdus_received() > heard &&
            a.master().radio().tx_busy() && !slaves.empty() &&
            slaves.front().in_flight.has_value();
  }
  ASSERT_TRUE(found) << "no instant with the LMP transaction pending and a "
                        "data packet in flight";
  const auto snap = a.save_snapshot();

  auto b = throughput_scaffold(type, warm.construction_seed);
  SaturatingTrafficSource src_b(b->master(), lt, payload);
  b->restore_snapshot(snap);
  EXPECT_EQ(b->save_snapshot(), snap);

  a.run(kSlotDuration * 512);
  b->run(kSlotDuration * 512);
  EXPECT_EQ(a.save_snapshot(), b->save_snapshot());
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

// ---- format version ----------------------------------------------------------

// The digest of one canonical image is pinned next to the format version,
// so a layout change that does not bump kSnapshotVersion fails here. On a
// deliberate layout change, bump the version and re-record the digest; a
// model change that only moves the warm-up's state re-records the digest
// alone.
TEST(SnapshotFormat, CanonicalImagePinnedToVersion) {
  const auto warm = sniff_activity_warmup(1);
  const std::vector<std::uint8_t> image = warm.system->save_snapshot();
  const std::uint64_t digest =
      sim::snapshot_checksum(image.data(), image.size());
  EXPECT_EQ(std::make_pair(sim::kSnapshotVersion, digest),
            std::make_pair(std::uint32_t{7}, std::uint64_t{0x9463e25716a8c8d5}))
      << std::hex << "digest 0x" << digest;
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
