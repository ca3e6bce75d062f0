// Clean runs carry the packet: a run nothing can corrupt is delivered to
// a matching receiver from its logical form, with no composing and no
// HEC, FEC or CRC work. These tests guard that the fast path is really
// taken where it should be (the coexistence and throughput scaffolds at
// BER 0), that every way of leaving it -- a late enable, a foreign
// access code, a rejecting header hook, a reconfiguration, contention,
// an abort, a checkpoint, noise inside the run -- gives exactly the
// per-bit reference's results and counters, and which reason the
// receiver's telemetry records for each.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baseband/access_code.hpp"
#include "baseband/device.hpp"
#include "baseband/packet.hpp"
#include "baseband/receiver.hpp"
#include "baseband/tx_packet.hpp"
#include "core/coexistence.hpp"
#include "core/experiments.hpp"
#include "core/system.hpp"
#include "core/traffic.hpp"
#include "phy/channel.hpp"
#include "phy/radio.hpp"
#include "sim/environment.hpp"
#include "sim/snapshot.hpp"

namespace btsc::baseband {
namespace {

using namespace btsc::sim::literals;
using sim::SimTime;
using Stats = Receiver::CleanPathStats;

constexpr std::uint32_t kLap = 0x2A613C;
constexpr std::uint32_t kOtherLap = 0x5B0E17;
constexpr std::uint8_t kUap = 0x47;
constexpr std::uint8_t kWhiten = 0x55;
constexpr int kFreq = 11;

std::uint64_t receptions(const Stats& s) { return s.clean + s.air; }

// ---- scaffolds at BER 0 ------------------------------------------------------

Stats add(Stats a, const Stats& b) {
  a.clean += b.clean;
  a.air += b.air;
  a.air_bits += b.air_bits;
  a.mismatch += b.mismatch;
  a.offset += b.offset;
  a.hook += b.hook;
  a.interrupted += b.interrupted;
  return a;
}

TEST(CleanPath, CoexistenceScaffoldTakesCleanPath) {
  auto net = core::coexistence_warmup(2030);
  Stats before;
  for (int p = 0; p < 2; ++p) {
    before = add(before, net->master(p).receiver().clean_path_stats());
    before = add(before, net->slave(p).receiver().clean_path_stats());
  }
  core::CoexistenceRunConfig cfg;
  cfg.measure_slots = 4000;
  core::run_coexistence_from(*net, 4, cfg);
  Stats after;
  for (int p = 0; p < 2; ++p) {
    after = add(after, net->master(p).receiver().clean_path_stats());
    after = add(after, net->slave(p).receiver().clean_path_stats());
  }
  const std::uint64_t clean = after.clean - before.clean;
  const std::uint64_t total = receptions(after) - receptions(before);
  ASSERT_GT(total, 1000u);
  EXPECT_GE(static_cast<double>(clean), 0.99 * static_cast<double>(total))
      << clean << " of " << total << " packets took the clean path";
}

TEST(CleanPath, ThroughputScaffoldTakesCleanPath) {
  for (const PacketType type : {PacketType::kDm1, PacketType::kDh3,
                                PacketType::kDm5, PacketType::kDh5}) {
    SCOPED_TRACE(to_string(type));
    auto warm = core::throughput_warmup(type, 17);
    core::BluetoothSystem& sys = *warm.system;
    const Stats m0 = sys.master().receiver().clean_path_stats();
    const Stats s0 = sys.slave(0).receiver().clean_path_stats();
    core::ThroughputConfig cfg;
    cfg.measure_slots = 1000;
    core::run_throughput_from(sys, type, 0.0, cfg);
    const Stats m1 = sys.master().receiver().clean_path_stats();
    const Stats s1 = sys.slave(0).receiver().clean_path_stats();
    const std::uint64_t clean = (m1.clean - m0.clean) + (s1.clean - s0.clean);
    const std::uint64_t total = receptions(m1) - receptions(m0) +
                                receptions(s1) - receptions(s0);
    ASSERT_GT(total, 100u);
    EXPECT_GE(static_cast<double>(clean), 0.99 * static_cast<double>(total))
        << clean << " of " << total << " packets took the clean path";
  }
}

// ---- one link: every exit from the clean path against per-bit --------------

/// A transmitter radio, a receiving radio with its Receiver, and a third
/// radio to contend with, on one channel.
struct Link {
  sim::Environment env{7};
  phy::NoisyChannel ch;
  phy::Radio tx{env, "tx", ch};
  phy::Radio rx_radio{env, "rx", ch};
  phy::Radio other{env, "other", ch};
  Receiver rx{env, "rec"};
  TxPacket packet;
  TxPacket other_packet;
  std::vector<std::string> log;

  Link(bool burst, double ber)
      : ch(env, "ch", phy::ChannelConfig{.ber = ber, .burst_transport = burst}) {
    rx_radio.set_burst_rx_sink(&rx);
    rx.set_transport_hooks([this] { rx_radio.rx_catch_up(); },
                           [this] { rx_radio.rx_state_changed(); });
    rx.set_handler([this](const Receiver::Result& r) {
      std::ostringstream os;
      os << env.now().as_ns() << " id" << r.is_id << " h" << r.header_ok
         << " p" << r.payload_ok << " f" << r.fec_failed << " "
         << r.header.pack() << " @" << r.packet_start.as_ns() << " [";
      for (std::uint8_t b : r.payload_body) os << int{b} << ",";
      os << "]";
      log.push_back(os.str());
    });
    configure(kLap, kUap, kWhiten);
  }

  void configure(std::uint32_t lap, std::uint8_t check,
                 std::optional<std::uint8_t> whiten) {
    rx.configure(sync_bits(lap), check, whiten, Receiver::Expect::kFull);
  }

  /// Fills `p` with a `type` packet carrying `user` bytes.
  static void fill(TxPacket& p, std::uint32_t lap, PacketType type,
                   std::size_t user) {
    LinkParams params;
    params.check_init = kUap;
    params.whiten_init = kWhiten;
    PacketHeader h;
    h.type = type;
    h.lt_addr = 1;
    std::vector<std::uint8_t> body;
    if (type != PacketType::kNull && type != PacketType::kPoll) {
      std::vector<std::uint8_t> data(user);
      for (std::size_t i = 0; i < user; ++i) {
        data[i] = static_cast<std::uint8_t>(i * 37 + 5);
      }
      body = build_acl_body(type, kLlidStart, true, data);
    }
    p.set(AccessCode::of(lap), h, body, params);
  }

  /// What both transports must agree on.
  std::string outcome() {
    std::ostringstream os;
    for (const auto& l : log) os << l << "\n";
    os << "carrier " << rx.carrier_samples() << " syncs "
       << rx.syncs_detected() << " hec " << rx.hec_failures() << " crc "
       << rx.crc_failures() << " fec " << rx.fec_failures() << " driven "
       << ch.bits_driven() << " flipped " << ch.bits_flipped()
       << " collisions " << ch.collision_samples() << " sampled "
       << rx_radio.bits_sampled() << " rng " << env.rng().next();
    sim::SnapshotWriter w;
    rx.save_state(w);
    const std::vector<std::uint8_t> bytes = w.take();
    os << " recv";
    for (std::uint8_t b : bytes) os << " " << int{b};
    return os.str();
  }
};

/// Runs `script` on a burst link and on a per-bit link and requires the
/// same outcome; returns the burst link's receiver telemetry.
Stats check_against_per_bit(double ber,
                            const std::function<void(Link&)>& script) {
  Link burst(true, ber);
  Link ref(false, ber);
  script(burst);
  script(ref);
  EXPECT_EQ(burst.outcome(), ref.outcome());
  return burst.rx.clean_path_stats();
}

/// Starts `link.packet` at 1 ms on kFreq with the receiver listening.
void send(Link& l, PacketType type, std::size_t user,
          std::uint32_t lap = kLap) {
  Link::fill(l.packet, lap, type, user);
  l.rx_radio.enable_rx(kFreq);
  l.env.run(1_ms);
  l.tx.transmit(kFreq, l.packet);
}

TEST(CleanPath, CleanPacketIsTakenAndMatchesPerBit) {
  for (const PacketType type :
       {PacketType::kPoll, PacketType::kDm1, PacketType::kDh1,
        PacketType::kDm3, PacketType::kDh5}) {
    SCOPED_TRACE(to_string(type));
    const Stats s = check_against_per_bit(0.0, [&](Link& l) {
      send(l, type, max_user_bytes(type) / 2);
      l.env.run(5_ms);
    });
    EXPECT_EQ(s.clean, 1u);
    EXPECT_EQ(s.air + s.interrupted + s.mismatch, 0u);
  }
}

TEST(CleanPath, LateEnabledReceiver) {
  // Two bits late the correlator still fires at air bit 67 (64 sync
  // bits seen): taken. Twenty bits late it never fires.
  for (const int late_us : {2, 20}) {
    SCOPED_TRACE(late_us);
    const Stats s = check_against_per_bit(0.0, [&](Link& l) {
      Link::fill(l.packet, kLap, PacketType::kDm1, 10);
      l.env.run(1_ms);
      l.tx.transmit(kFreq, l.packet);
      l.env.run(SimTime::us(late_us));
      l.rx_radio.enable_rx(kFreq);
      l.env.run(5_ms);
    });
    EXPECT_EQ(s.clean, late_us == 2 ? 1u : 0u);
  }
}

TEST(CleanPath, ForeignAccessCodeReadsBits) {
  // Another LAP: the correlator searches the whole run (composed) and
  // never fires.
  Stats s = check_against_per_bit(0.0, [&](Link& l) {
    send(l, PacketType::kDh3, 100, kOtherLap);
    l.env.run(5_ms);
  });
  EXPECT_EQ(receptions(s), 0u);
  // Same LAP, other check init: synced but not taken; the HEC fails.
  s = check_against_per_bit(0.0, [&](Link& l) {
    l.configure(kLap, kUap ^ 0x11, kWhiten);
    send(l, PacketType::kDh3, 100);
    l.env.run(5_ms);
  });
  EXPECT_EQ(s.mismatch, 1u);
  EXPECT_EQ(s.clean, 0u);
}

TEST(CleanPath, RejectingHeaderHookLeavesTheTakenPacket) {
  const Stats s = check_against_per_bit(0.0, [&](Link& l) {
    l.rx.set_header_hook([](const PacketHeader&) { return false; });
    send(l, PacketType::kDm5, 200);
    l.env.run(5_ms);
  });
  EXPECT_EQ(s.hook, 1u);
  EXPECT_EQ(receptions(s), 0u);
}

TEST(CleanPath, ReconfigureMidRun) {
  // Inside the header, and inside the payload, whose samples have
  // advanced the old machine's whitener (kept across the reset).
  for (const int at_us : {100, 500}) {
    SCOPED_TRACE(at_us);
    const Stats s = check_against_per_bit(0.0, [&](Link& l) {
      send(l, PacketType::kDh5, 300);
      l.env.run(SimTime::us(at_us));
      l.configure(kLap, kUap, kWhiten);
      l.env.run(5_ms);
    });
    EXPECT_EQ(receptions(s), 0u);
    EXPECT_EQ(s.interrupted, 1u);
  }
}

TEST(CleanPath, ReconfigureFromTheHandlerOrHook) {
  // The result handler re-arms the receiver when a whitened DM5 it took
  // is delivered, or the header hook re-arms it and rejects the packet
  // (as a link controller moving to its next state does). The packet is
  // over for the machine by then: none of its samples reach the fresh
  // one, and the whitener the reset keeps stepped once per data bit.
  for (const bool from_hook : {false, true}) {
    SCOPED_TRACE(from_hook);
    const Stats s = check_against_per_bit(0.0, [&](Link& l) {
      if (from_hook) {
        l.rx.set_header_hook([&l](const PacketHeader&) {
          l.configure(kLap, kUap, kWhiten);
          return false;
        });
      } else {
        l.rx.set_handler([&l](const Receiver::Result& r) {
          l.log.push_back(std::to_string(l.env.now().as_ns()) + " p" +
                          std::to_string(r.payload_ok) + " " +
                          std::to_string(r.payload_body.size()));
          l.configure(kLap, kUap, kWhiten);
        });
      }
      send(l, PacketType::kDm5, 200);
      l.env.run(5_ms);
    });
    EXPECT_EQ(s.clean, from_hook ? 0u : 1u);
    EXPECT_EQ(s.air, 0u);
  }
}

TEST(CleanPath, ContentionMidRun) {
  const Stats s = check_against_per_bit(0.0, [&](Link& l) {
    send(l, PacketType::kDh5, 300);
    l.env.run(SimTime::us(400));  // inside the payload
    Link::fill(l.other_packet, kOtherLap, PacketType::kDm1, 5);
    l.other.transmit(kFreq, l.other_packet);
    l.env.run(5_ms);
  });
  EXPECT_EQ(s.interrupted, 1u);
  EXPECT_EQ(s.clean, 0u);
}

TEST(CleanPath, AbortMidRun) {
  const Stats s = check_against_per_bit(0.0, [&](Link& l) {
    send(l, PacketType::kDm3, 100);
    l.env.run(SimTime::us(300));
    l.tx.abort_tx();
    l.env.run(5_ms);
  });
  EXPECT_EQ(s.interrupted, 1u);
  EXPECT_EQ(s.clean, 0u);
}

TEST(CleanPath, NoiseInsideOrBeyondTheRun) {
  // BER 1/100 puts flips inside a DH5 run: the medium shows the noisy
  // copy and the receiver decodes bits. At 1e-9 the first gap exceeds
  // the run: clean.
  Stats s = check_against_per_bit(1.0 / 100, [&](Link& l) {
    send(l, PacketType::kDh5, 300);
    l.env.run(5_ms);
  });
  EXPECT_EQ(s.clean, 0u);
  EXPECT_EQ(s.air_bits, 1u);
  s = check_against_per_bit(1e-9, [&](Link& l) {
    send(l, PacketType::kDh5, 300);
    l.env.run(5_ms);
  });
  EXPECT_EQ(s.clean, 1u);
}

TEST(CleanPath, CheckpointOfATakenPacketSavesThePerBitMachine) {
  // Mid-payload, after the radio has caught up, the receiver section of
  // the snapshot is byte-identical to the per-bit reference's; the taken
  // packet stays taken and completes on the clean path.
  std::vector<std::uint8_t> bytes[2];
  for (int mode = 0; mode < 2; ++mode) {
    Link l(mode == 0, 0.0);
    send(l, PacketType::kDm5, 200);
    l.env.run(SimTime::ns(900'100));
    l.rx_radio.rx_catch_up();
    ASSERT_TRUE(l.rx.assembling());
    sim::SnapshotWriter w;
    l.rx.save_state(w);
    bytes[mode] = w.take();
    l.env.run(5_ms);
    ASSERT_EQ(l.log.size(), 1u);
    if (mode == 0) {
      EXPECT_EQ(l.rx.clean_path_stats().clean, 1u);
      EXPECT_EQ(l.rx.clean_path_stats().interrupted, 0u);
    }
  }
  EXPECT_EQ(bytes[0], bytes[1]);
}

TEST(CleanPath, SystemCheckpointMidPacketRoundTrips) {
  // save -> restore -> continue equals the uninterrupted run, and both
  // end on the per-bit reference's row.
  const PacketType type = PacketType::kDh5;
  const std::size_t payload = max_user_bytes(type);
  auto delivered = [&](bool burst) {
    phy::NoisyChannel::set_burst_transport_default(burst);
    auto warm = core::throughput_warmup(type, 23);
    core::BluetoothSystem& a = *warm.system;
    const std::uint8_t lt = a.lt_addr_of(0);
    std::uint64_t delivered_a = 0;
    lm::LinkManager::Events ev;
    ev.user_data = [&](std::uint8_t, std::vector<std::uint8_t> d) {
      delivered_a += d.size();
    };
    a.slave_lm(0).set_events(std::move(ev));
    core::SaturatingTrafficSource src_a(a.master(), lt, payload);
    a.run(kSlotDuration * 40);
    // Step until the slave is assembling a packet on the air.
    for (int i = 0; i < 400 && !(a.master().radio().tx_busy() &&
                                 a.slave(0).receiver().assembling());
         ++i) {
      a.run(SimTime::us(37));
    }
    EXPECT_TRUE(a.slave(0).receiver().assembling());
    const std::vector<std::uint8_t> snap = a.save_snapshot();
    const std::uint64_t delivered_at_snap = delivered_a;

    auto b = core::throughput_scaffold(type, warm.construction_seed);
    std::uint64_t delivered_b = 0;
    lm::LinkManager::Events evb;
    evb.user_data = [&](std::uint8_t, std::vector<std::uint8_t> d) {
      delivered_b += d.size();
    };
    b->slave_lm(0).set_events(std::move(evb));
    core::SaturatingTrafficSource src_b(b->master(), lt, payload);
    b->restore_snapshot(snap);
    EXPECT_EQ(b->save_snapshot(), snap);
    a.run(kSlotDuration * 200);
    b->run(kSlotDuration * 200);
    EXPECT_EQ(a.save_snapshot(), b->save_snapshot());
    EXPECT_EQ(delivered_a - delivered_at_snap, delivered_b);
    a.slave_lm(0).set_events({});
    b->slave_lm(0).set_events({});
    return delivered_a;
  };
  const std::uint64_t burst = delivered(true);
  const std::uint64_t ref = delivered(false);
  phy::NoisyChannel::set_burst_transport_default(true);
  EXPECT_EQ(burst, ref);
  EXPECT_GT(burst, 0u);
}

}  // namespace
}  // namespace btsc::baseband
